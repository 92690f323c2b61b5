"""The benchmark tracer finds every entry point it wraps.

perfbench/tracer.py wraps named functions and methods from outside the
package and records the names it cannot find instead of failing, so a
renamed entry point would silently trace 0 calls.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()
