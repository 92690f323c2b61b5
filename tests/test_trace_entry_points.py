"""The benchmark tracer finds every entry point it wraps.

perfbench/tracer.py wraps named functions and methods from outside the
package and records the names it cannot find instead of failing, so a
renamed entry point would silently trace 0 calls.
"""
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_every_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()


def test_every_written_byte_is_emitted(monkeypatch, tmp_path):
    # a streamed table reaches --out only through cli.emit, framing included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from gghecke import cli

    f = tmp_path / "b2.json"
    with tracer.Tracer() as t:
        assert cli.run(["constants", "--type", "B2", "--q", "3", "--jobs", "2", "--out", str(f)]) == 0
    assert t.emitted_bytes == f.stat().st_size > 0


_TRACE_THEN_UNTRACE = """
import itertools, sys
sys.path.insert(0, {perfbench!r})
import tracer
from gghecke.gf import make_field
from gghecke.hecke import hecke_algebra

H = hecke_algebra("B2", make_field(3))
assert "gghecke.formulas" not in sys.modules
triples = list(itertools.product(H.basis, repeat=3))
t = tracer.Tracer()
t.install()
for i, j, k in triples:
    H.table_formula(i, j, k)
t.uninstall()
traced = t.summary()["hecke.root_sum"][0]
for i, j, k in triples:
    H.table_formula(i, j, k)
print(traced, t.summary()["hecke.root_sum"][0])
"""


def test_root_sum_is_traced_only_while_installed():
    # the closed forms load mid-trace, on the first table_formula; a module that
    # bound root_sum by name then would keep the tracer's wrapper after uninstall
    code = _TRACE_THEN_UNTRACE.format(perfbench=str(PERFBENCH))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    traced, after = map(int, out)
    assert traced > 0 and after == traced
