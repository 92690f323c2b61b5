"""Command-line behavior: records, formats, exit codes, determinism."""
import json

import pytest

from gghecke import cli
from gghecke.chevalley import chevalley_group
from gghecke.cyclo import CycloNum
from gghecke.gf import make_field
from gghecke.hecke import HeckeAlgebra
from gghecke.intersect import intersect, rep_to_dict
from gghecke.rootsys import weyl_group


def run_cli(argv):
    try:
        return cli.run(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2


def run_json(argv, capsys):
    rc = run_cli(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out) if out else None


def test_basis_listing(capsys):
    rc, payload = run_json(["basis", "--type", "A2", "--q", "3"], capsys)
    assert rc == 0
    recs = payload["records"]
    assert len(recs) == 9
    assert recs[0] == {"kind": 0, "params": [1, 1], "point": "0:1,1", "length": 3}
    assert recs[-1] == {"kind": 3, "params": [], "point": "3:", "length": 0}
    points = [r["point"] for r in recs]
    assert points == sorted(points, key=lambda s: (int(s[0]), s))


def test_basis_csv(capsys):
    rc = run_cli(["basis", "--type", "A2", "--q", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "point,kind,params,length"
    assert len(lines) == 5


def test_constants_single_triple(capsys):
    rc, payload = run_json(
        ["constants", "--type", "A2", "--q", "3",
         "--i", "1:1", "--j", "1:1", "--k", "2:2"],
        capsys,
    )
    assert rc == 0
    recs = payload["records"]
    assert len(recs) == 1
    assert recs[0]["value"] == {"p": 3, "coeffs": ["3", "0"]}
    assert recs[0]["render"] == "3"
    assert (recs[0]["i"], recs[0]["j"], recs[0]["k"]) == ("1:1", "1:1", "2:2")


def test_constants_match_library(capsys):
    from gghecke.hecke import BasisElem, hecke_algebra

    rc, payload = run_json(["constants", "--type", "A2", "--q", "2"], capsys)
    assert rc == 0
    recs = payload["records"]
    assert len(recs) == 64
    H = hecke_algebra("A2", make_field(2))
    for r in recs[:10]:
        i, j, k = (cli._parse_point(r[t]) for t in ("i", "j", "k"))
        assert r["value"] == H.structure_constant(i, j, k).to_dict()


def test_jobs_do_not_change_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["constants", "--type", "A2", "--q", "2", "--out", str(a)]) == 0
    assert run_cli(["constants", "--type", "A2", "--q", "2", "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


class _InlinePool:
    """Stands in for multiprocessing.Pool: records its size, starts nothing."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(it) for it in items]


@pytest.mark.parametrize("cpus,want", [(3, 3), (None, None), (10**6, 64)])
def test_jobs_are_clamped(monkeypatch, tmp_path, cpus, want):
    # A2/q=2 has 4 basis elements, so 64 triples in 64 kind-pattern chunks
    monkeypatch.setattr(cli, "Pool", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["constants", "--type", "A2", "--q", "2"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert _InlinePool.sizes == []
    assert run_cli(argv + ["--jobs", "10000", "--out", str(b)]) == 0
    assert _InlinePool.sizes == ([want] if want else [])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(monkeypatch, jobs, capsys):
    monkeypatch.setattr(cli, "Pool", _InlinePool)
    for cmd in ("constants", "verify-tables"):
        assert run_cli([cmd, "--type", "A2", "--q", "2", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_output_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["intersect", "--type", "B2", "--q", "3", "--x", "0:1,1", "--y", "0:1,1", "--z", "0:1,1"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_intersect_records(capsys):
    rc, payload = run_json(
        ["intersect", "--type", "B2", "--q", "3",
         "--x", "0:1,1", "--y", "0:1,1", "--z", "0:1,1"],
        capsys,
    )
    assert rc == 0
    recs = payload["records"]
    w0 = weyl_group("B2").basis_elements()[0]
    G = chevalley_group("B2", make_field(3))
    want = [rep_to_dict(r) for r in intersect(w0, (1, 1), w0, (1, 1), w0, (1, 1), group=G)]
    want.sort(key=lambda r: (r["j"], r["mu"]))
    assert recs == want
    assert all(
        sorted(r) == ["j", "mu", "rep", "t_0", "t_mu", "type", "uxu", "zuy"]
        for r in recs
    )


def test_intersect_empty_csv(capsys):
    # (w2 t_1(1), w1 t_2(1), e) is empty since 1 != -1 in F_3
    rc = run_cli(
        ["intersect", "--type", "A2", "--q", "3", "--format", "csv",
         "--x", "2:1", "--y", "1:1", "--z", "3:"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "j,type,mu,t_mu,t_0,rep,uxu,zuy\n"


def test_verify_tables_passes(capsys):
    rc, payload = run_json(["verify-tables", "--type", "A2", "--q", "3"], capsys)
    assert rc == 0
    assert payload["checked"] == 729
    assert payload["mismatches"] == []
    assert payload["type"] == "A2" and payload["q"] == 3


def test_verify_tables_reports_mismatch(monkeypatch, tmp_path):
    orig = HeckeAlgebra.table_formula

    def wrong(self, i, j, k):
        v = orig(self, i, j, k)
        if (i.kind, j.kind, k.kind) == (3, 3, 3):
            return v + CycloNum.from_int(self.F.p, 1)
        return v

    monkeypatch.setattr(HeckeAlgebra, "table_formula", wrong)
    out = tmp_path / "report.json"
    rc = run_cli(["verify-tables", "--type", "A2", "--q", "2", "--out", str(out)])
    assert rc == 1
    payload = json.loads(out.read_text())
    assert payload["checked"] == 64
    assert len(payload["mismatches"]) == 1
    m = payload["mismatches"][0]
    assert (m["i"], m["j"], m["k"]) == ("3:", "3:", "3:")
    assert m["algorithm"] == "1"
    assert m["table"] == "2"
    assert m["cosets"] == [[[], []]]


def test_verify_oracle_passes(capsys):
    rc, payload = run_json(["verify-oracle", "--type", "A2", "--q", "2"], capsys)
    assert rc == 0
    assert payload["checked"] == 64
    assert payload["mismatches"] == []


def test_sums(capsys):
    rc, payload = run_json(
        ["sums", "--q", "3", "--kloosterman", "1,1,1,1"], capsys
    )
    assert rc == 0
    recs = payload["records"]
    assert recs[0] == {
        "sum": "gauss",
        "value": {"p": 3, "coeffs": ["1", "2"]},
        "render": "1 + 2*z",
    }
    assert recs[1]["sum"] == "S_1(1,1,1)"
    assert recs[1]["value"] == {"p": 3, "coeffs": ["-1", "-1"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--type", "A2"],
        ["basis", "--type", "B2", "--q", "2"],
        ["basis", "--type", "B2", "--p", "2", "--f", "2"],
        ["basis", "--type", "A2", "--q", "6"],
        ["intersect", "--type", "A2", "--q", "3", "--x", "9:1", "--y", "3:", "--z", "3:"],
        ["sums", "--q", "3", "--kloosterman", "1,2"],
        ["sums", "--q", "3", "--kloosterman", "nope"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["1,1,5,1", "1,7,1,1", "1,-1,1,1"])
def test_kloosterman_rejects_non_codes(spec, capsys):
    # 5 and 7 are no codes of F_3 and -1 is none either: usage error, one line
    assert run_cli(["sums", "--q", "3", "--kloosterman", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "Traceback" not in captured.err


def test_modulus_override(capsys):
    rc, payload = run_json(
        ["basis", "--type", "A2", "--p", "2", "--f", "2", "--modulus", "1,1,1"],
        capsys,
    )
    assert rc == 0
    assert len(payload["records"]) == 16
