"""In-memory span tracing around the public entry points of gghecke.

The tracer wraps functions and methods from outside the package: nothing
under src/ knows it exists.  Each call through a wrapper records one span
(name, parent span, start, end) in flat arrays, so a million spans cost
about 24 MB.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.

Run as a program, it is the traced counterpart of `python3 -m gghecke.cli`:

    python3 perfbench/tracer.py SPANS REPORT CLI-ARGS...

runs gghecke.cli.run(CLI-ARGS) in this fresh interpreter with the tracer
installed, writes the spans to SPANS.{json,bin} and the report() to the
JSON file REPORT, and exits with the CLI's status.
"""

import array
import functools
import json
import sys
import time
from pathlib import Path

# (label, module, owner, attribute): owner None means a module-level
# function, which is also replaced wherever another gghecke module imported
# it by name (hecke imports build_rep, distinguished_subexprs, gauss_sum).
ENTRY_POINTS = [
    ("gf.rth_roots", "gghecke.gf", "Field", "rth_roots"),
    ("cyclo.from_zeta_counts", "gghecke.cyclo", "CycloNum", "from_zeta_counts"),
    ("cyclo.arith", "gghecke.cyclo", "CycloNum", "__add__"),
    ("cyclo.arith", "gghecke.cyclo", "CycloNum", "__mul__"),
    ("cyclo.arith", "gghecke.cyclo", "CycloNum", "__rmul__"),
    ("cyclo.arith", "gghecke.cyclo", "CycloNum", "scale"),
    ("cyclo.gauss_sum", "gghecke.cyclo", None, "gauss_sum"),
    ("rootsys.mult", "gghecke.rootsys", "WeylGroup", "mult"),
    ("chevalley.normal_form", "gghecke.chevalley", "Group", "normal_form"),
    ("chevalley.multiply", "gghecke.chevalley", "Group", "multiply"),
    ("chevalley.invert", "gghecke.chevalley", "Group", "invert"),
    ("chevalley.chi_at", "gghecke.chevalley", "Group", "chi_at"),
    ("intersect.build_rep", "gghecke.intersect", None, "build_rep"),
    ("intersect.distinguished_subexprs", "gghecke.intersect", None, "distinguished_subexprs"),
    ("hecke.structure_constant", "gghecke.hecke", "HeckeAlgebra", "structure_constant"),
    ("hecke.multiply", "gghecke.hecke", "HeckeAlgebra", "multiply"),
    ("hecke.table_formula", "gghecke.hecke", "HeckeAlgebra", "table_formula"),
    ("hecke.root_sum", "gghecke.hecke", None, "root_sum"),
    ("cli.run", "gghecke.cli", None, "run"),
    ("cli.emit", "gghecke.cli", None, "emit"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self._restore = []
        self.emitted_bytes = 0
        self.missing = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _wrap_emit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            text = fn(*args, **kwargs)
            tracer.emitted_bytes += len(text.encode("utf-8"))
            return text

        return counting

    def install(self):
        """Wrap every entry point that exists; record the ones that do not."""
        for label, modname, owner, attr in ENTRY_POINTS:
            mod = sys.modules.get(modname) or __import__(modname, fromlist=["_"])
            if owner is not None:
                cls = getattr(mod, owner, None)
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    self.missing.append(f"{modname}.{owner}.{attr}")
                    continue
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(label, raw.__func__))
                else:
                    new = self.wrap(label, raw)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            new = self.wrap(label, orig)
            if label == "cli.emit":
                new = self._wrap_emit(new)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name.startswith("gghecke") and getattr(other, attr, None) is orig:
                    setattr(other, attr, new)
                    self._restore.append((other, attr, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            setattr(target, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """{name: (calls, self seconds)} over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def report(self):
        """What a traced run measured, as JSON-ready data: per-layer calls and
        self time, the exact counters of the lru caches in intersect (None
        where a function has no cache), emitted bytes and entry points not
        found."""
        import gghecke.intersect as ix

        caches = {}
        for name in ("build_rep", "distinguished_subexprs"):
            info = getattr(getattr(ix, name), "cache_info", None)
            caches[name] = info()._asdict() if info else None
        return {
            "layers": self.summary(),
            "caches": caches,
            "emitted_bytes": self.emitted_bytes,
            "missing": self.missing,
            "spans": len(self.start),
        }

    def dump(self, path: Path):
        """Write the spans: a JSON header and four raw little-endian arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "layout": ["name_id:i32", "parent:i32", "start:f64", "end:f64"],
            "clock": "time.perf_counter",
        }
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                if sys.byteorder != "little":
                    arr = array.array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)


def main():
    spans, report, argv = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3:]
    import gghecke.cli

    tracer = Tracer()
    with tracer:
        rc = gghecke.cli.run(argv)
    tracer.dump(spans)
    report.write_text(json.dumps(dict(tracer.report(), rc=rc)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
