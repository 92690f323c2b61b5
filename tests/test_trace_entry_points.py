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


def test_every_written_byte_is_emitted(monkeypatch, tmp_path):
    # a streamed table reaches --out only through cli.emit, framing included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from gghecke import cli

    f = tmp_path / "b2.json"
    with tracer.Tracer() as t:
        assert cli.run(["constants", "--type", "B2", "--q", "3", "--jobs", "2", "--out", str(f)]) == 0
    assert t.emitted_bytes == f.stat().st_size > 0
