"""Command-line front end.

Subcommands: basis, intersect, constants, verify-tables, verify-oracle,
sums.  Output is deterministic: records are sorted canonically, JSON is
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
from multiprocessing import Pool

from .cyclo import CycloNum, gauss_sum, kloosterman
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


def _triples(H: HeckeAlgebra, args) -> list:
    basis = sorted(H.basis, key=_sorted_basis_key)
    chosen = [
        _parse_point(t) if t else None for t in (args.i, args.j, args.k)
    ]
    out = []
    for i in [chosen[0]] if chosen[0] else basis:
        for j in [chosen[1]] if chosen[1] else basis:
            for k in [chosen[2]] if chosen[2] else basis:
                out.append((i, j, k))
    return out


def _constants_chunk(payload) -> list:
    tag, fdict, triples = payload
    H = hecke_algebra(tag, field_from_dict(fdict))
    out = []
    for i, j, k in triples:
        s = H.structure_constant(i, j, k)
        out.append(
            {
                "i": _point_str(i),
                "j": _point_str(j),
                "k": _point_str(k),
                "value": s.to_dict(),
                "render": s.render(),
            }
        )
    return out


def _fan_out(tag: str, F: Field, triples: list, jobs: int, worker) -> list:
    if jobs < 1:
        _usage(f"--jobs must be at least 1, got {jobs}")
    # partition by kind pattern so each worker builds few rep tables
    buckets = {}
    for t in triples:
        buckets.setdefault(tuple(b.kind for b in t), []).append(t)
    # never more workers than CPUs or chunks, whatever --jobs asks for
    size = min(jobs, os.cpu_count() or 1, len(buckets))
    if size <= 1:
        records = worker((tag, F.to_dict(), triples))
    else:
        payloads = [(tag, F.to_dict(), chunk) for chunk in buckets.values()]
        # one pattern per hand-out: the costliest (0,0,.) patterns come first
        with Pool(size) as pool:
            records = [r for part in pool.map(worker, payloads, chunksize=1) for r in part]
    records.sort(key=lambda r: (r["i"], r["j"], r["k"]))
    return records


def _cmd_constants(args) -> int:
    H = _algebra_of(args)
    triples = _triples(H, args)
    records = _fan_out(args.type, H.F, triples, args.jobs, _constants_chunk)
    _write(
        args,
        emit(records, args.format, ["i", "j", "k", "render", "value"]),
    )
    return 0


def _coset_tags(H: HeckeAlgebra, i, j, k) -> list:
    x, tx = H.point(i)
    y, ty = H.point(j)
    z, tz = H.point(k)
    return sorted(
        (list(r.j.jvec), list(r.mu.values))
        for r in intersect(x, tx, y, ty, z, tz, group=H.G)
    )


def _verify_tables_chunk(payload) -> list:
    tag, fdict, triples = payload
    H = hecke_algebra(tag, field_from_dict(fdict))
    out = []
    for i, j, k in triples:
        a = H.structure_constant(i, j, k)
        t = H.table_formula(i, j, k)
        if a != t:
            out.append(
                {
                    "i": _point_str(i),
                    "j": _point_str(j),
                    "k": _point_str(k),
                    "algorithm": a.render(),
                    "table": t.render(),
                    "cosets": _coset_tags(H, i, j, k),
                }
            )
    return out


def _cmd_verify_tables(args) -> int:
    H = _algebra_of(args)
    triples = _triples(H, args)
    mismatches = _fan_out(
        args.type, H.F, triples, args.jobs, _verify_tables_chunk
    )
    payload = {
        "checked": len(triples),
        "mismatches": mismatches,
        "type": args.type,
        "q": H.F.q,
    }
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 1 if mismatches else 0


def _cmd_verify_oracle(args) -> int:
    H = _algebra_of(args)
    G = H.G
    triples = _triples(H, args)
    mismatches = []
    for i, j, k in triples:
        a = H.structure_constant(i, j, k)
        b = brute_constant(H, i, j, k, mode=1, budget=args.budget)
        x, tx = H.point(i)
        y, ty = H.point(j)
        z, tz = H.point(k)
        px = (G.lift(x), G.torus(*tx))
        py = (G.lift(y), G.torus(*ty))
        pz = (G.lift(z), G.torus(*tz))
        brute_keys = set(brute_intersect(px, py, pz, G, budget=args.budget))
        algo_keys = {
            left_coset_key(r.g)
            for r in intersect(x, tx, y, ty, z, tz, group=G)
        }
        if a != b or brute_keys != algo_keys:
            mismatches.append(
                {
                    "i": _point_str(i),
                    "j": _point_str(j),
                    "k": _point_str(k),
                    "algorithm": a.render(),
                    "oracle": b.render(),
                    "coset_sets_equal": brute_keys == algo_keys,
                    "cosets": _coset_tags(H, i, j, k),
                }
            )
    mismatches.sort(key=lambda r: (r["i"], r["j"], r["k"]))
    payload = {
        "checked": len(triples),
        "mismatches": mismatches,
        "type": args.type,
        "q": H.F.q,
    }
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 1 if mismatches else 0


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
