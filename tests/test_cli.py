"""Command-line behavior: records, formats, exit codes, determinism."""
import csv
import io
import json
import multiprocessing
import os
import tracemalloc
from functools import lru_cache

import pytest

from gghecke import cli
from gghecke.chevalley import chevalley_group
from gghecke.cyclo import CycloNum
from gghecke.gf import make_field
from gghecke.hecke import BasisElem, HeckeAlgebra
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


def test_records_follow_the_string_order_of_points(capsys):
    # from q = 11 on, string order puts "0:1,10" before "0:1,2"
    argv = ["constants", "--type", "A2", "--q", "11", "--i", "1:10", "--j", "2:3"]
    rc, payload = run_json(argv, capsys)
    assert rc == 0
    ks = [r["k"] for r in payload["records"]]
    assert len(ks) == 121 and ks == sorted(ks)
    assert ks.index("0:1,10") < ks.index("0:1,2")


def _point(b):
    return f"{b.kind}:{','.join(str(t) for t in b.params)}"


@lru_cache(maxsize=None)
def _direct_products(tag, pf):
    """A fresh algebra, its basis in the string order of the records, and
    H.multiply(i, j) for every ordered pair: all 64 rep tables, no mirror."""
    H = HeckeAlgebra(tag, make_field(*pf))
    basis = sorted((_point(b), b) for b in H.basis)
    return H, basis, {(i, j): H.multiply(i, j) for _, i in basis for _, j in basis}


def _direct_document(tag, pf, fmt, flags):
    H, basis, products = _direct_products(tag, pf)
    I, J, K = ([(n, b) for n, b in basis if flags.get(f) in (None, n)] for f in "ijk")
    records = []
    for (ni, i), (nj, j), (nk, k) in ((a, b, c) for a in I for b in J for c in K):
        s = H.structure_constant(i, j, k) if "k" in flags else products[i, j].get(k, H.F.p)
        records.append({"i": ni, "j": nj, "k": nk, "render": s.render(), "value": s.to_dict()})
    if fmt == "json":
        return json.dumps({"records": records}, sort_keys=True, indent=2) + "\n"
    header = ["i", "j", "k", "render", "value"]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in records:
        w.writerow([r[h] if h != "value" else json.dumps(r[h], sort_keys=True) for h in header])
    return buf.getvalue()


def _same_text(got, want):
    """got == want, else the first line that differs (a diff of megabytes would take minutes)."""
    if got == want:
        return True
    pairs = zip(got.splitlines(), want.splitlines())
    diff = ((n, a, b) for n, (a, b) in enumerate(pairs) if a != b)
    return next(diff, "one is a prefix of the other")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "tag,pf", [("A2", (2, 2)), ("A2", (5,)), ("B2", (5,))], ids=["A2-4", "A2-5", "B2-5"]
)
def test_constants_equal_every_ordered_product(capsys, tag, pf, fmt):
    # the CLI computes each unordered pair once and mirrors it; the bytes are
    # those of H.multiply(i, j) (or structure_constant under --k) over every
    # ordered pair, with --i of kind 2 and --i --j a descending pair of kinds
    for flags in [{}, {"i": "2:1"}, {"j": "0:1,2"}, {"k": "1:2"}, {"i": "2:3", "j": "0:1,2"}]:
        argv = ["constants", "--type", tag, "--q", str(make_field(*pf).q), "--format", fmt]
        assert run_cli(argv + [a for f, v in flags.items() for a in (f"--{f}", v)]) == 0
        same = _same_text(capsys.readouterr().out, _direct_document(tag, pf, fmt, flags))
        assert same is True, (flags, same)


@pytest.mark.parametrize("tag,pf", [("A2", (2, 2)), ("B2", (3,))], ids=["A2-4", "B2-3"])
def test_constants_build_only_ascending_rep_tables(monkeypatch, tmp_path, tag, pf):
    # on a fresh algebra a full table builds the 40 rep tables (a, b, c) with
    # a <= b and none of the 24 descending ones; slices whose i has the larger
    # kind build none either
    fresh = []

    def algebra(tag, F):
        fresh.append(HeckeAlgebra(tag, F))
        return fresh[-1]

    monkeypatch.setattr(cli, "hecke_algebra", algebra)
    f = tmp_path / "t.json"
    argv = ["constants", "--type", tag, "--q", str(make_field(*pf).q), "--out", str(f)]
    assert run_cli(argv) == 0
    ascending = {(a, b, c) for a in range(4) for b in range(a, 4) for c in range(4)}
    assert set(fresh[-1]._reptables) == ascending
    same = _same_text(f.read_text(), _direct_document(tag, pf, "json", {}))
    assert same is True, same
    for flags in (["--i", "2:1"], ["--i", "3:"], ["--i", "2:1", "--j", "1:1"],
                  ["--i", "1:1", "--k", "0:1,1"]):
        assert run_cli(argv + flags) == 0
        kinds = set(fresh[-1]._reptables)
        assert kinds and kinds <= ascending, (flags, sorted(kinds))


class _InlinePool:
    """Stands in for multiprocessing.Pool, which cli._pool imports when it
    starts workers: records its size and the most results it held that were
    not yet taken, starts nothing."""

    sizes = []
    peaks = []

    def __init__(self, size):
        self.sizes.append(size)
        self.due = self.peak = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.peaks.append(self.peak)
        return False

    def apply_async(self, fn, args):
        self.due += 1
        self.peak = max(self.peak, self.due)
        return _Taken(self, fn(*args))


class _Taken:
    def __init__(self, pool, value):
        self.pool, self.value = pool, value

    def get(self):
        self.pool.due -= 1
        return self.value


@pytest.mark.parametrize(
    "cpus,jobs,flags,want",
    [
        (3, "10000", [], 3),
        (1, "10000", [], None),
        (None, "10000", [], None),
        (3, "1", [], None),
        (10**6, "10000", [], 4),
        (10**6, "2", ["--i", "1:1"], 1),
    ],
    ids=["3-cpus", "1-cpu", "no-cpu-count", "jobs-1", "many-cpus", "one-row"],
)
def test_jobs_are_clamped(monkeypatch, tmp_path, cpus, jobs, flags, want):
    # verify-tables at A2/q=2 has 4 rows i: never more workers than CPUs or
    # rows, and a one-row slice still gets one worker when two could start
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-tables", "--type", "A2", "--q", "2", *flags]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert _InlinePool.sizes == []
    assert run_cli(argv + ["--jobs", jobs, "--out", str(b)]) == 0
    assert _InlinePool.sizes == ([want] if want else [])
    assert a.read_bytes() == b.read_bytes()


def test_verify_tables_through_a_real_pool(monkeypatch, tmp_path):
    # two worker processes compute the closed forms; the report is that of --jobs 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-tables", "--type", "B2", "--q", "3"]
    assert run_cli(argv + ["--jobs", "1", "--out", str(a)]) == 0
    assert run_cli(argv + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(b.read_text())["checked"] == 9**3


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("tag", ["A2", "B2"])
def test_selections_match_full_table(monkeypatch, capsys, tag, jobs):
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])

    def records(n, *flags):
        argv = ["constants", "--type", tag, "--q", "3", "--jobs", n, *flags]
        rc, payload = run_json(argv, capsys)
        assert rc == 0
        return payload["records"]

    full = records("1")
    i, j, k = "0:1,2", "1:2", "2:1"
    for flags, keep in [
        (["--i", i], lambda r: r["i"] == i),
        (["--j", j], lambda r: r["j"] == j),
        (["--k", k], lambda r: r["k"] == k),
        (["--i", i, "--j", j], lambda r: (r["i"], r["j"]) == (i, j)),
    ]:
        assert records(jobs, *flags) == [r for r in full if keep(r)], flags
    # constants walks in one process at any --jobs
    assert _InlinePool.sizes == []


def test_verify_tables_keeps_a_window_of_rows(monkeypatch, tmp_path):
    # the 9 rows of A2/F_3 go to a pool of 2 with at most 4 closed-form rows
    # handed out and not yet taken, and the report is that of --jobs 1
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "peaks", [])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-tables", "--type", "A2", "--q", "3"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--jobs", "2", "--out", str(b)]) == 0
    assert _InlinePool.sizes == [2]
    assert _InlinePool.peaks == [4]
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(b.read_text())["checked"] == 9**3


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(monkeypatch, jobs, capsys):
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
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
        # a point outside F_q^x is an error, not a row lookup that reads 0
        ["constants", "--type", "A2", "--q", "3", "--k", "1:7"],
        ["verify-tables", "--type", "A2", "--q", "3", "--i", "0:1,9"],
        # an empty point, parameter or modulus is malformed, not absent
        ["constants", "--type", "A2", "--q", "2", "--i", ""],
        ["verify-tables", "--type", "A2", "--q", "2", "--j", ""],
        ["verify-oracle", "--type", "A2", "--q", "2", "--k", ""],
        ["constants", "--type", "A2", "--q", "3", "--j", "1:1,"],
        ["constants", "--type", "A2", "--q", "3", "--k", "0:,1,1"],
        ["basis", "--type", "A2", "--p", "2", "--f", "2", "--modulus", ""],
        ["sums", "--q", "3", "--kloosterman", "1,2"],
        ["sums", "--q", "3", "--kloosterman", "nope"],
        # each flag is attached only to the subcommands that read it
        ["basis", "--type", "A2", "--q", "2", "--jobs", "2"],
        ["basis", "--type", "A2", "--q", "2", "--budget", "10"],
        ["intersect", "--type", "A2", "--q", "2", "--x", "3:", "--y", "3:", "--z", "3:",
         "--jobs", "0"],
        ["intersect", "--type", "A2", "--q", "2", "--x", "3:", "--y", "3:", "--z", "3:",
         "--budget", "10"],
        ["constants", "--type", "A2", "--q", "2", "--budget", "10"],
        ["verify-tables", "--type", "A2", "--q", "2", "--budget", "10"],
        ["verify-tables", "--type", "A2", "--q", "2", "--format", "csv"],
        ["verify-oracle", "--type", "A2", "--q", "2", "--jobs", "4"],
        ["verify-oracle", "--type", "A2", "--q", "2", "--format", "csv"],
        ["sums", "--q", "3", "--jobs", "2"],
        ["sums", "--q", "3", "--budget", "10"],
        # an --out that cannot be opened is a usage error, not a traceback
        ["basis", "--type", "A2", "--q", "3", "--out", os.path.join(os.devnull, "x.json")],
        ["constants", "--type", "A2", "--q", "2", "--jobs", "2",
         "--out", os.path.join(os.devnull, "x.json")],
        ["verify-tables", "--type", "A2", "--q", "2", "--out", os.path.join(os.devnull, "x.json")],
        # --q names the whole field, so --p or --f beside it conflicts
        ["basis", "--type", "A2", "--q", "4", "--p", "3"],
        ["basis", "--type", "A2", "--q", "3", "--f", "2"],
        # an oversized field fails on its bound, before any factoring,
        # primality test or power that grows with the input
        ["basis", "--type", "A2", "--q", "999999999989"],
        ["basis", "--type", "A2", "--p", "1000000000000000003"],
        ["basis", "--type", "A2", "--p", "3", "--f", "1000000000"],
        # a budget too small for the oracle's scan is a bad argument
        ["verify-oracle", "--type", "A2", "--q", "2", "--budget", "2"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert "Traceback" not in err
    if "--out" in argv or ("--q" in argv and {"--p", "--f"} & set(argv)):
        assert captured.out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("flag,text", [("--i", ""), ("--j", "1:1,"), ("--k", "0:,1,1"),
                                       ("--modulus", "")])
def test_malformed_flags_write_no_out(tmp_path, flag, text):
    f = tmp_path / "t.json"
    for cmd in ("constants", "verify-tables"):
        assert run_cli([cmd, "--type", "A2", "--q", "3", flag, text, "--out", str(f)]) == 2
        assert not f.exists()
    # an empty parameter list is the unit's, with or without the colon
    assert cli._parse_point("3:") == cli._parse_point("3") == BasisElem(3)


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


def test_unwritable_out_fails_before_the_sweep(monkeypatch, capsys):
    # --out is opened first, so no worker pool starts and no rep table is built
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    bad = os.path.join(os.devnull, "x.json")
    for cmd in ("constants", "verify-tables"):
        assert run_cli([cmd, "--type", "A2", "--q", "2", "--jobs", "2", "--out", bad]) == 2
    assert _InlinePool.sizes == []
    assert capsys.readouterr().out == ""


def _canonical(text, fmt):
    if fmt == "json":
        return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    return buf.getvalue()


# every record-list command over A2/F_2 (p = 2, one coefficient), A2/F_4 and
# B2/F_3, a --i slice of B2/F_9, an empty record list and a one-record table
_DOCS = [
    argv
    for tag, q in [("A2", "2"), ("A2", "4"), ("B2", "3")]
    for argv in [
        ["basis", "--type", tag, "--q", q],
        ["intersect", "--type", tag, "--q", q, "--x", "0:1,1", "--y", "0:1,1", "--z", "0:1,1"],
        ["sums", "--q", q, "--kloosterman", "1,1,1,1"],
        ["constants", "--type", tag, "--q", q],
    ]
] + [
    ["constants", "--type", "B2", "--q", "9", "--i", "0:1,1"],
    ["intersect", "--type", "A2", "--q", "3", "--x", "2:1", "--y", "1:1", "--z", "3:"],
    ["constants", "--type", "A2", "--q", "3", "--i", "1:1", "--j", "1:1", "--k", "2:2"],
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emitter_is_canonical(tmp_path, capsys, fmt):
    # the streamed chunks add up to one canonical document, on stdout and in --out
    for argv in _DOCS:
        argv = [*argv, "--format", fmt]
        assert run_cli(argv) == 0, argv
        out = capsys.readouterr().out
        same = _same_text(out, _canonical(out, fmt))
        assert same is True, (argv, same)
        f = tmp_path / "out"
        assert run_cli([*argv, "--out", str(f)]) == 0, argv
        same = _same_text(f.read_bytes().decode(), out)
        assert same is True, (argv, same)


def test_constants_stream_in_less_memory_than_they_write(tmp_path):
    # rows are written as they are made: no record list, no whole document
    f = tmp_path / "b2.json"
    tracemalloc.start()
    try:
        assert run_cli(["constants", "--type", "B2", "--q", "5", "--out", str(f)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.stat().st_size, (peak, f.stat().st_size)
