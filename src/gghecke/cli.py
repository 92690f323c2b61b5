"""Command-line front end.

Subcommands: basis, intersect, constants, verify-tables, verify-oracle,
sums.  Output is deterministic: records come in canonical order, JSON is
emitted with sorted keys, CSV with a fixed header.  Record lists are
streamed one product row at a time, with the bytes of one whole-list dump.
Exit status 0 means success or verification pass, 1 a verification
mismatch (the mismatch report still goes to --out), 2 a usage error.
"""

import argparse
import csv
import io
import json
import os
import sys
from collections import deque
from contextlib import contextmanager, nullcontext
from itertools import product
from multiprocessing import Pool

from .cyclo import CycloNum, gauss_sum, kloosterman
from .gf import _MAX_Q, Field, field_from_dict, make_field
from .hecke import BasisElem, HeckeAlgebra, hecke_algebra
from .intersect import intersect, left_coset_key, rep_to_dict
from .oracle import DEFAULT_BUDGET, BudgetExceeded, brute_constant, brute_intersect

__all__ = ["run", "main", "emit"]


def _usage(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _factor_q(q: int) -> tuple:
    if q > _MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported bound {_MAX_Q}")
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            m = q
            while m % p == 0:
                m //= p
                f += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, f
    raise ValueError(f"q = {q} is not a prime power")


def _field_of(args) -> Field:
    if args.q is not None:
        if args.p is not None or args.f is not None:
            _usage("give either --q or --p [--f], not both")
        p, f = _factor_q(args.q)
    elif args.p is not None:
        p, f = args.p, 1 if args.f is None else args.f
    else:
        _usage("one of --q or --p is required")
    modulus = None
    if args.modulus:
        modulus = tuple(int(c) for c in args.modulus.split(","))
    return make_field(p, f, modulus)


def _algebra_of(args) -> HeckeAlgebra:
    F = _field_of(args)
    if args.type == "B2" and F.p == 2:
        _usage(
            "B2 requires p odd: the SO5 closed forms hold in odd "
            f"characteristic only, got p = {F.p}"
        )
    return hecke_algebra(args.type, F)


def _parse_point(text: str) -> BasisElem:
    kind_s, _, params_s = text.partition(":")
    kind = int(kind_s)
    params = tuple(int(t) for t in params_s.split(",") if t != "")
    return BasisElem(kind, params)


def _point_str(b: BasisElem) -> str:
    return f"{b.kind}:{','.join(str(p) for p in b.params)}"


# -- emission -----------------------------------------------------------------


class _Doc:
    """A record list on its way out.  A record is a tuple of values in header
    order; JSON writes its keys sorted, CSV its cells in header order.  Each
    distinct value of a column is encoded once, into that column's memo."""

    def __init__(self, fmt: str, header: list):
        self.fmt, self.header, self.count, self.opened = fmt, header, 0, False
        order = range(len(header))
        if fmt == "json":
            order = sorted(order, key=header.__getitem__)
        self.cols = [(c, {}, self._encoder(header[c])) for c in order]

    def _encoder(self, key: str):
        opts = {"sort_keys": True, "default": CycloNum.to_dict}
        if self.fmt == "csv":
            return lambda v: v if isinstance(v, str) else json.dumps(v, **opts)
        lead = f"      {json.dumps(key)}: "  # a member line of a record in the indent=2 document
        return lambda v: lead + json.dumps(v, indent=2, **opts).replace("\n", "\n      ")

    def cells(self, row) -> list:
        out = []
        for c, memo, enc in self.cols:
            v = row[c]
            try:
                text = memo[v]
            except KeyError:
                text = memo[v] = enc(v)
            except TypeError:  # lists and dicts (intersect's few records) go unmemoized
                text = enc(v)
            out.append(text)
        return out


def emit(doc: _Doc, rows, last: bool = False) -> str:
    """The text of one chunk of rows: the document's opening if none of it
    has been emitted yet, one record per row, and its closing if last.  The
    chunks add up to what json.dumps(..., sort_keys=True, indent=2) or one
    csv.writer gives for the whole list."""
    records = [doc.cells(row) for row in rows]
    if doc.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if not doc.opened:
            writer.writerow(doc.header)
        writer.writerows(records)
        text = buf.getvalue()
    else:
        lead = ("" if doc.opened else '{\n  "records": [') + ("," if doc.count and records else "")
        text = lead + ",".join("\n    {\n" + ",\n".join(r) + "\n    }" for r in records)
        if last:
            text += ("\n  ]" if doc.count + len(records) else "]") + "\n}\n"
    doc.opened = True
    doc.count += len(records)
    return text


def _output(args):
    """--out, or stdout, to be opened before any work: a path that cannot be
    written is a usage error before the first rep table is built."""
    return open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)


@contextmanager
def _records(args, header: list):
    """A writer of one record list: each call emits one chunk of rows, and
    the closing follows the last."""
    doc = _Doc(args.format, header)
    with _output(args) as fh:
        yield lambda rows: fh.write(emit(doc, rows))
        fh.write(emit(doc, (), last=True))


# -- subcommands ---------------------------------------------------------------


def _cmd_basis(args) -> int:
    H = _algebra_of(args)
    basis = sorted(H.basis, key=lambda b: (b.kind, b.params))
    rows = [(_point_str(b), b.kind, b.params, H.length(b)) for b in basis]
    with _records(args, ["point", "kind", "params", "length"]) as write:
        write(rows)
    return 0


def _cmd_intersect(args) -> int:
    H = _algebra_of(args)
    bx, by, bz = (_parse_point(t) for t in (args.x, args.y, args.z))
    x, tx = H.point(bx)
    y, ty = H.point(by)
    z, tz = H.point(bz)
    reps = intersect(x, tx, y, ty, z, tz, group=H.G)
    records = sorted((rep_to_dict(r) for r in reps), key=lambda r: (r["j"], r["mu"]))
    header = ["j", "type", "mu", "t_mu", "t_0", "rep", "uxu", "zuy"]
    with _records(args, header) as write:
        write([tuple(r[h] for h in header) for r in records])
    return 0


def _chosen(H: HeckeAlgebra, args) -> list:
    """The i, j and k points of a sweep, each list in the string order of the
    records: the one point a flag names, or the whole basis."""
    if getattr(args, "jobs", 1) < 1:  # before --out is opened; verify-oracle has no --jobs
        _usage(f"--jobs must be at least 1, got {args.jobs}")
    basis = sorted(H.basis, key=_point_str)
    out = []
    for text in (args.i, args.j, args.k):
        if text:
            b = _parse_point(text)
            H.point(b)  # parameters outside F_q^x are a usage error, not a 0
            out.append([b])
        else:
            out.append(basis)
    return out


def _row(H: HeckeAlgebra, i: BasisElem, j: BasisElem, K: list) -> list:
    """S_ij^k for each k in K: one product, or one structure constant when
    --k names the single k (K is otherwise the whole basis, q^2 >= 4 points)."""
    if len(K) == 1:
        return [H.structure_constant(i, j, K[0])]
    vec = H.multiply(i, j)
    return [vec.get(k, H.F.p) for k in K]


def _formula_row(payload) -> list:
    """Closed forms of row i: one list over K for each j."""
    tag, fdict, i, J, K = payload
    H = hecke_algebra(tag, field_from_dict(fdict))
    return [[H.table_formula(i, j, k) for k in K] for j in J]


def _ordered(pool, fn, items, window: int):
    """fn over items in order through the pool, at most window results due and not taken."""
    pending = deque()
    for item in items:
        pending.append(pool.apply_async(fn, (item,)))
        if len(pending) == window:
            yield pending.popleft().get()
    yield from (r.get() for r in pending)


@contextmanager
def _pool(jobs: int, rows: int):
    """map, or an ordered map through a worker pool, two rows in flight per worker."""
    size = min(jobs, os.cpu_count() or 1)
    if size <= 1:
        yield map
        return
    # never more workers than CPUs or rows, whatever --jobs asks for; a one-row
    # slice still gets its worker, whose closed forms overlap the parent's walk
    size = min(size, rows)
    with Pool(size) as pool:
        yield lambda fn, items: _ordered(pool, fn, items, 2 * size)


def _cmd_constants(args) -> int:
    H = _algebra_of(args)
    I, J, K = _chosen(H, args)
    name = {b: _point_str(b) for b in I + J + K}  # one string per point, not per record
    render = {}  # one rendering per distinct constant
    with _records(args, ["i", "j", "k", "render", "value"]) as write:
        for i, j in product(I, J):  # one product row per chunk
            row = _row(H, i, j, K)
            texts = [render.get(s) or render.setdefault(s, s.render()) for s in row]
            write([(name[i], name[j], name[k], t, s) for k, t, s in zip(K, texts, row)])
    return 0


def _mismatch(reps: list, i, j, k, found: dict) -> dict:
    """The triple, what each route found, and the (j, mu) tags of its cosets."""
    cosets = sorted((list(r.j.jvec), list(r.mu.values)) for r in reps)
    ijk = {"i": _point_str(i), "j": _point_str(j), "k": _point_str(k)}
    return {**ijk, **found, "cosets": cosets}


def _report(fh, args, H: HeckeAlgebra, checked: int, mismatches: list) -> int:
    payload = {"checked": checked, "mismatches": mismatches, "type": args.type, "q": H.F.q}
    fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 1 if mismatches else 0


def _cmd_verify_tables(args) -> int:
    H = _algebra_of(args)
    I, J, K = _chosen(H, args)
    mismatches = []
    with _output(args) as fh, _pool(args.jobs, len(I)) as rows:
        # the closed forms of each row i stream back while the parent walks
        tables = rows(_formula_row, ((H.tag, H.F.to_dict(), i, J, K) for i in I))
        for i, table in zip(I, tables):
            for j, trow in zip(J, table):
                for k, a, t in zip(K, _row(H, i, j, K), trow):
                    if a != t:
                        reps = intersect(*H.point(i), *H.point(j), *H.point(k), group=H.G)
                        found = {"algorithm": a.render(), "table": t.render()}
                        mismatches.append(_mismatch(reps, i, j, k, found))
        return _report(fh, args, H, len(I) * len(J) * len(K), mismatches)


def _cmd_verify_oracle(args) -> int:
    H = _algebra_of(args)
    G = H.G
    I, J, K = _chosen(H, args)
    mismatches = []
    with _output(args) as fh:
        for i, j in product(I, J):
            for k, a in zip(K, _row(H, i, j, K)):
                b = brute_constant(H, i, j, k, mode=1, budget=args.budget)
                points = [H.point(t) for t in (i, j, k)]
                lifts = [(G.lift(w), G.torus(*t)) for w, t in points]
                brute_keys = set(brute_intersect(*lifts, G, budget=args.budget))
                reps = intersect(*points[0], *points[1], *points[2], group=G)
                algo_keys = {left_coset_key(r.g) for r in reps}
                if a != b or brute_keys != algo_keys:
                    found = {
                        "algorithm": a.render(),
                        "oracle": b.render(),
                        "coset_sets_equal": brute_keys == algo_keys,
                    }
                    mismatches.append(_mismatch(reps, i, j, k, found))
        return _report(fh, args, H, len(I) * len(J) * len(K), mismatches)


def _cmd_sums(args) -> int:
    F = _field_of(args)
    g = gauss_sum(F)
    rows = [("gauss", g.render(), g)]
    for spec in args.kloosterman or []:
        parts = [int(t) for t in spec.split(",")]
        if len(parts) not in (4, 6):
            _usage(f"--kloosterman wants l,B,a,b or l,B,a,b,ap,bp, got {spec!r}")
        s = kloosterman(F, *parts)
        rows.append((f"S_{parts[0]}({','.join(str(t) for t in parts[1:])})", s.render(), s))
    with _records(args, ["sum", "render", "value"]) as write:
        write(rows)
    return 0


# -- argument plumbing ---------------------------------------------------------


# flags that only some subcommands read; each is attached only where it is read
_EXTRA = {
    "format": {"choices": ("json", "csv"), "default": "json"},
    "jobs": {"type": int, "default": 1},
    "budget": {"type": int, "default": DEFAULT_BUDGET},
}


def _add_common(sub, *extra, with_type=True):
    if with_type:
        sub.add_argument("--type", choices=("A2", "B2"), required=True)
    sub.add_argument("--q", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--f", type=int, default=None)
    sub.add_argument("--modulus", default=None)
    sub.add_argument("--out", default=None)
    for name in extra:
        sub.add_argument(f"--{name}", **_EXTRA[name])


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gghecke",
        description="Gelfand-Graev Hecke algebra structure constants, exactly.",
    )
    subs = top.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("basis", help="list the standard basis")
    _add_common(sub, "format")
    sub.set_defaults(fn=_cmd_basis)

    sub = subs.add_parser("intersect", help="coset representatives of a triple")
    _add_common(sub, "format")
    for flag in ("--x", "--y", "--z"):
        sub.add_argument(flag, required=True, metavar="KIND:PARAMS")
    sub.set_defaults(fn=_cmd_intersect)

    sub = subs.add_parser("constants", help="structure constants")
    _add_common(sub, "format", "jobs")
    for flag in ("--i", "--j", "--k"):
        sub.add_argument(flag, default=None, metavar="KIND:PARAMS")
    sub.set_defaults(fn=_cmd_constants)

    sub = subs.add_parser(
        "verify-tables", help="algorithm vs closed-form tables"
    )
    _add_common(sub, "jobs")
    for flag in ("--i", "--j", "--k"):
        sub.add_argument(flag, default=None, metavar="KIND:PARAMS")
    sub.set_defaults(fn=_cmd_verify_tables)

    sub = subs.add_parser(
        "verify-oracle", help="algorithm vs brute-force oracle"
    )
    _add_common(sub, "budget")
    for flag in ("--i", "--j", "--k"):
        sub.add_argument(flag, default=None, metavar="KIND:PARAMS")
    sub.set_defaults(fn=_cmd_verify_oracle)

    sub = subs.add_parser("sums", help="character sums over the field")
    _add_common(sub, "format", with_type=False)
    sub.add_argument(
        "--kloosterman",
        action="append",
        metavar="l,B,a,b[,ap,bp]",
        help="generalized Kloosterman sum; repeatable",
    )
    sub.set_defaults(fn=_cmd_sums)
    return top


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
