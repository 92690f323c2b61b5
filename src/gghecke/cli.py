"""Command-line front end.

Subcommands: basis, intersect, constants, verify-tables, verify-oracle,
sums.  Output is deterministic: records come in canonical order, JSON is
emitted with sorted keys, CSV with a fixed header.  Exit status 0 means
success or verification pass, 1 a verification mismatch (the mismatch
report still goes to --out), 2 a usage error.
"""

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from itertools import product
from multiprocessing import Pool

from .cyclo import gauss_sum, kloosterman
from .gf import Field, field_from_dict, make_field
from .hecke import BasisElem, HeckeAlgebra, hecke_algebra
from .intersect import intersect, left_coset_key, rep_to_dict
from .oracle import DEFAULT_BUDGET, BudgetExceeded, brute_constant, brute_intersect

__all__ = ["run", "main", "emit"]


def _usage(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _factor_q(q: int) -> tuple:
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


def _sorted_basis_key(b: BasisElem):
    return (b.kind, b.params)


# -- emission -----------------------------------------------------------------


def emit(records: list, fmt: str, header: list) -> str:
    """Byte-stable rendering of a record list."""
    if fmt == "json":
        return json.dumps({"records": records}, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in records:
        writer.writerow(
            [
                v if isinstance(v, str) else json.dumps(v, sort_keys=True)
                for v in (rec.get(h, "") for h in header)
            ]
        )
    return buf.getvalue()


def _write(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_basis(args) -> int:
    H = _algebra_of(args)
    records = [
        {
            "kind": b.kind,
            "params": list(b.params),
            "point": _point_str(b),
            "length": H.length(b),
        }
        for b in sorted(H.basis, key=_sorted_basis_key)
    ]
    _write(args, emit(records, args.format, ["point", "kind", "params", "length"]))
    return 0


def _cmd_intersect(args) -> int:
    H = _algebra_of(args)
    bx, by, bz = (_parse_point(t) for t in (args.x, args.y, args.z))
    x, tx = H.point(bx)
    y, ty = H.point(by)
    z, tz = H.point(bz)
    reps = intersect(x, tx, y, ty, z, tz, group=H.G)
    records = [rep_to_dict(r) for r in reps]
    records.sort(key=lambda r: (r["j"], r["mu"]))
    _write(
        args,
        emit(
            records,
            args.format,
            ["j", "type", "mu", "t_mu", "t_0", "rep", "uxu", "zuy"],
        ),
    )
    return 0


def _chosen(H: HeckeAlgebra, args) -> list:
    """The i, j and k points of a sweep, each list in the string order of the
    records: the one point a flag names, or the whole basis."""
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


def _rep_buckets(payload) -> tuple:
    tag, fdict, kinds = payload
    return hecke_algebra(tag, field_from_dict(fdict)).rep_buckets(kinds)


def _formula_row(payload) -> list:
    """Closed forms of row i: one list over K for each j."""
    tag, fdict, i, J, K = payload
    H = hecke_algebra(tag, field_from_dict(fdict))
    return [[H.table_formula(i, j, k) for k in K] for j in J]


@contextmanager
def _pool(H: HeckeAlgebra, jobs: int, chosen: list):
    """A worker pool, or None when one process is enough, that has built the
    rep table of every kind pattern the sweep reads and installed it in H."""
    if jobs < 1:
        _usage(f"--jobs must be at least 1, got {jobs}")
    patterns = list(product(*(sorted({b.kind for b in c}) for c in chosen)))
    # never more workers than CPUs or patterns, whatever --jobs asks for
    size = min(jobs, os.cpu_count() or 1, len(patterns))
    if size <= 1:
        yield None
        return
    payloads = [(H.tag, H.F.to_dict(), kinds) for kinds in patterns]
    with Pool(size) as pool:
        # one pattern per hand-out: the costliest (0,0,.) patterns come first
        for kinds, buckets in zip(patterns, pool.map(_rep_buckets, payloads, chunksize=1)):
            H._reps(kinds, buckets)
        yield pool


def _cmd_constants(args) -> int:
    H = _algebra_of(args)
    I, J, K = chosen = _chosen(H, args)
    name = {b: _point_str(b) for b in I + J + K}  # one string per point, not per record
    with _pool(H, args.jobs, chosen):
        records = [
            {
                "i": name[i],
                "j": name[j],
                "k": name[k],
                "value": s.to_dict(),
                "render": s.render(),
            }
            for i in I
            for j in J
            for k, s in zip(K, _row(H, i, j, K))
        ]
    _write(
        args,
        emit(records, args.format, ["i", "j", "k", "render", "value"]),
    )
    return 0


def _mismatch(reps: list, i, j, k, found: dict) -> dict:
    """The triple, what each route found, and the (j, mu) tags of its cosets."""
    cosets = sorted((list(r.j.jvec), list(r.mu.values)) for r in reps)
    ijk = {"i": _point_str(i), "j": _point_str(j), "k": _point_str(k)}
    return {**ijk, **found, "cosets": cosets}


def _report(args, H: HeckeAlgebra, checked: int, mismatches: list) -> int:
    payload = {
        "checked": checked,
        "mismatches": mismatches,
        "type": args.type,
        "q": H.F.q,
    }
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 1 if mismatches else 0


def _cmd_verify_tables(args) -> int:
    H = _algebra_of(args)
    I, J, K = chosen = _chosen(H, args)
    mismatches = []
    with _pool(H, args.jobs, chosen) as pool:
        payloads = [(H.tag, H.F.to_dict(), i, J, K) for i in I]
        # the closed forms of each row i stream back while the parent walks
        tables = pool.imap(_formula_row, payloads) if pool else map(_formula_row, payloads)
        for i, table in zip(I, tables):
            for j, trow in zip(J, table):
                for k, a, t in zip(K, _row(H, i, j, K), trow):
                    if a != t:
                        reps = intersect(*H.point(i), *H.point(j), *H.point(k), group=H.G)
                        found = {"algorithm": a.render(), "table": t.render()}
                        mismatches.append(_mismatch(reps, i, j, k, found))
    return _report(args, H, len(I) * len(J) * len(K), mismatches)


def _cmd_verify_oracle(args) -> int:
    H = _algebra_of(args)
    G = H.G
    I, J, K = _chosen(H, args)
    mismatches = []
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
    return _report(args, H, len(I) * len(J) * len(K), mismatches)


def _cmd_sums(args) -> int:
    F = _field_of(args)
    records = []
    g = gauss_sum(F)
    records.append(
        {"sum": "gauss", "value": g.to_dict(), "render": g.render()}
    )
    for spec in args.kloosterman or []:
        parts = [int(t) for t in spec.split(",")]
        if len(parts) not in (4, 6):
            _usage(f"--kloosterman wants l,B,a,b or l,B,a,b,ap,bp, got {spec!r}")
        s = kloosterman(F, *parts)
        records.append(
            {
                "sum": f"S_{parts[0]}({','.join(str(t) for t in parts[1:])})",
                "value": s.to_dict(),
                "render": s.render(),
            }
        )
    _write(args, emit(records, args.format, ["sum", "render", "value"]))
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
