"""Command-line front end.

Subcommands: basis, intersect, constants, verify-tables, verify-oracle,
sums.  Output is deterministic: records come in canonical order, JSON is
emitted with sorted keys, CSV with a fixed header.  Record lists are
streamed one product row at a time, with the bytes of one whole-list dump.
The algebra is commutative, so `constants` computes each unordered pair
{i, j} once, as e_a e_b with kind(a) <= kind(b), and never builds the rep
tables of descending kinds; the library's products are not reduced, and
the test suite checks S_ij = S_ji on every pair of several fields.
`verify-tables` checks every ordered triple against its closed form, which
worker processes compute in pieces of a row.  Exit status 0 means success
or verification pass, 1 a verification mismatch (the mismatch report still
goes to --out), 2 a usage error.
"""

import argparse
import csv
import io
import json
import os
import sys
from collections import deque
from contextlib import contextmanager, nullcontext
from itertools import product, repeat

from .cyclo import CycloNum, gauss_sum, kloosterman
from .gf import _MAX_Q, Field, field_from_dict, make_field
from .hecke import BasisElem, HeckeAlgebra, hecke_algebra
from .intersect import intersect, left_coset_key, rep_to_dict

__all__ = ["run", "main", "emit"]


def _usage(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _factor_q(q: int) -> tuple:
    if q > _MAX_Q:
        raise ValueError(f"q = {q} exceeds the supported bound {_MAX_Q}")
    p = next((d for d in range(2, q + 1) if q % d == 0), 0)
    for f in range(1, q.bit_length()):
        if p**f == q:
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
    if args.modulus is not None:
        modulus = tuple(int(c) for c in args.modulus.split(","))
    return make_field(p, f, modulus)


def _algebra_of(args) -> HeckeAlgebra:
    F = _field_of(args)
    if args.type == "B2" and F.p == 2:
        _usage("B2 requires p odd: the SO5 closed forms hold in odd "
               f"characteristic only, got p = {F.p}")
    return hecke_algebra(args.type, F)


def _parse_point(text: str) -> BasisElem:
    kind_s, _, params_s = text.partition(":")
    params = tuple(int(t) for t in params_s.split(",")) if params_s else ()
    return BasisElem(int(kind_s), params)


def _point_str(b: BasisElem) -> str:
    return f"{b.kind}:{','.join(str(p) for p in b.params)}"


# -- emission -----------------------------------------------------------------


def _csv_cells(vals) -> str:
    """vals as adjacent cells of a csv.writer record; the empty first cell
    keeps a lone empty value unquoted, as inside a longer record."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", *vals])
    return buf.getvalue()[1:-1]


class _Doc:
    """A record list on its way out.  A row holds one item per field: a field
    is a key, whose value is the item, or (keys, split), adjacent keys whose
    values split(item) gives, encoded together.  JSON writes a record's keys
    sorted and CSV its cells in header order, so a field's keys are adjacent
    in both.  Each distinct item of a field is encoded once, into that field's
    memo."""

    def __init__(self, fmt: str, fields: list):
        fields = [((f,), lambda v: (v,)) if isinstance(f, str) else f for f in fields]
        self.fmt, self.count, self.opened = fmt, 0, False
        self.header = [key for keys, _ in fields for key in keys]
        order = range(len(fields))
        if fmt == "json":
            order = sorted(order, key=lambda n: fields[n][0])
        self.fields = [(n, {}, self._encoder(*fields[n])) for n in order]

    def _encoder(self, keys: tuple, split):
        opts = {"sort_keys": True}
        if self.fmt == "csv":
            return lambda item: _csv_cells(
                v if isinstance(v, str) else json.dumps(v, **opts) for v in split(item)
            )
        # member lines of a record in the indent=2 document
        leads = [f"      {json.dumps(key)}: " for key in keys]
        return lambda item: ",\n".join(
            lead + json.dumps(v, indent=2, **opts).replace("\n", "\n      ")
            for lead, v in zip(leads, split(item))
        )


def _texts(col: tuple, memo: dict, enc) -> list:
    """The encoded items of one field over a chunk of rows."""
    try:
        return list(map(memo.__getitem__, col))
    except KeyError:
        memo.update((v, enc(v)) for v in col if v not in memo)
        return list(map(memo.__getitem__, col))
    except TypeError:  # lists and dicts (the few records of intersect and sums) go unmemoized
        return [enc(v) for v in col]


def emit(doc: _Doc, rows, last: bool = False) -> str:
    """The text of one chunk of rows: the document's opening if none of it
    has been emitted yet, one record per row, and its closing if last.  The
    chunks add up to what json.dumps(..., sort_keys=True, indent=2) or one
    csv.writer gives for the whole list.  A record is one join of its
    fields' texts."""
    cols = list(zip(*rows))
    texts = [_texts(cols[n], memo, enc) for n, memo, enc in doc.fields] if cols else ()
    records = list(map((",\n" if doc.fmt == "json" else ",").join, zip(*texts)))
    if doc.fmt == "csv":
        text = "".join(r + "\n" for r in ([] if doc.opened else [_csv_cells(doc.header)]) + records)
    else:
        text = "" if doc.opened else '{\n  "records": ['
        if records:
            body = "\n    },\n    {\n".join(records)
            text += ("," if doc.count else "") + "\n    {\n" + body + "\n    }"
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
def _records(args, fields: list):
    """A writer of one record list: each call emits one chunk of rows, and
    the closing follows the last."""
    doc = _Doc(args.format, fields)
    with _output(args) as fh:
        yield lambda rows: fh.write(emit(doc, rows))
        fh.write(emit(doc, (), last=True))


# -- subcommands ---------------------------------------------------------------


def _cmd_basis(args) -> int:
    H = _algebra_of(args)
    rows = [(_point_str(b), b.kind, b.params, H.length(b)) for b in sorted(H.basis)]
    with _records(args, ["point", "kind", "params", "length"]) as write:
        write(rows)
    return 0


def _cmd_intersect(args) -> int:
    H = _algebra_of(args)
    (x, tx), (y, ty), (z, tz) = (H.point(_parse_point(t)) for t in (args.x, args.y, args.z))
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
        if text is not None:
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
    get, zero = H.multiply(i, j).coeffs.get, CycloNum.zero(H.F.p)
    return [get(k, zero) for k in K]


# closed forms in one piece of a verify-tables row: a worker's message stays small
_PIECE = 1 << 12


def _formulas(payload) -> list:
    """Closed forms of one piece of row i: one list over K for each j of the
    run, of coefficient tuples.  Points come as their positions in H.basis,
    and plain tuples go back: both pickle in C."""
    tag, fdict, i, run, K = payload
    H = hecke_algebra(tag, field_from_dict(fdict))
    B = H.basis
    i, K = B[i], [B[k] for k in K]
    return [[tuple(H.table_formula(i, B[j], k)) for k in K] for j in run]


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
    """map, or an ordered map through a worker pool, two pieces in flight per worker."""
    size = min(jobs, os.cpu_count() or 1)
    if size <= 1:
        yield map
        return
    # never more workers than CPUs or rows, whatever --jobs asks for; a one-row
    # slice still gets its worker, whose closed forms overlap the parent's walk
    size = min(size, rows)
    from multiprocessing import Pool  # imported only where workers start

    with Pool(size) as pool:
        yield lambda fn, items: _ordered(pool, fn, items, 2 * size)


# constants' render and value columns, both encoded from one CycloNum
_CONSTANT = (("render", "value"), lambda s: (s.render(), s.to_dict()))


def _cmd_constants(args) -> int:
    H = _algebra_of(args)
    I, J, K = _chosen(H, args)
    name = {b: _point_str(b) for b in I + J + K}  # one string per point, not per record
    ks = [name[k] for k in K]
    # S_ij = S_ji: each unordered pair is computed once, as a product whose
    # kinds ascend, and held while its mirror row (c, r) is still due, its
    # constants shared through one CycloNum per distinct value
    mirrored, held, same = I == J, {}, {}
    with _records(args, ["i", "j", "k", _CONSTANT]) as write:
        for r, i in enumerate(I):
            for c, j in enumerate(J):  # one product row per chunk
                row = held.pop((r, c), None)
                if row is None:
                    row = _row(H, *((i, j) if i.kind <= j.kind else (j, i)), K)
                    if mirrored and c > r:
                        held[c, r] = [same.setdefault(s, s) for s in row]
                write(zip(repeat(name[i]), repeat(name[j]), ks, row))
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
    step = max(1, _PIECE // len(K))
    pieces = [(i, J[s : s + step]) for i in I for s in range(0, len(J), step)]
    with _output(args) as fh, _pool(args.jobs, len(I)) as pmap:
        # the closed forms of each piece (i, run of J) stream back while the parent walks
        fdict, at = H.F.to_dict(), {b: n for n, b in enumerate(H.basis)}
        ks = [at[k] for k in K]
        payloads = ((H.tag, fdict, at[i], [at[j] for j in run], ks) for i, run in pieces)
        tables = pmap(_formulas, payloads)
        for (i, run), table in zip(pieces, tables):
            for j, trow in zip(run, table):
                for k, a, t in zip(K, _row(H, i, j, K), trow):
                    if a != t:
                        reps = intersect(*H.point(i), *H.point(j), *H.point(k), group=H.G)
                        found = {"algorithm": a.render(), "table": CycloNum(H.F.p, t).render()}
                        mismatches.append(_mismatch(reps, i, j, k, found))
        return _report(fh, args, H, len(I) * len(J) * len(K), mismatches)


def _cmd_verify_oracle(args) -> int:
    from .oracle import DEFAULT_BUDGET, brute_intersect, coset_sum

    H = _algebra_of(args)
    G = H.G
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    I, J, K = _chosen(H, args)
    mismatches = []
    with _output(args) as fh:
        for i, j in product(I, J):
            for k, a in zip(K, _row(H, i, j, K)):
                points = [H.point(t) for t in (i, j, k)]
                lifts = [(G.lift(w), G.torus(*t)) for w, t in points]
                cosets = brute_intersect(*lifts, G, budget=budget)  # one scan for both checks
                b, brute_keys = coset_sum(G, *lifts, cosets), set(cosets)
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
    sums = [("gauss", gauss_sum(F))]
    for spec in args.kloosterman or []:
        parts = [int(t) for t in spec.split(",")]
        if len(parts) not in (4, 6):
            _usage(f"--kloosterman wants l,B,a,b or l,B,a,b,ap,bp, got {spec!r}")
        sums.append((f"S_{parts[0]}({','.join(str(t) for t in parts[1:])})", kloosterman(F, *parts)))
    with _records(args, ["sum", "render", "value"]) as write:
        write([(name, s.render(), s.to_dict()) for name, s in sums])
    return 0


# -- argument plumbing ---------------------------------------------------------


# flags beyond the field and --out, in groups; each is attached only where it is read
_FLAGS = {
    "format": {"--format": {"choices": ("json", "csv"), "default": "json"}},
    "jobs": {"--jobs": {"type": int, "default": 1}},
    "budget": {"--budget": {"type": int, "default": None}},
    "xyz": {f"--{c}": {"required": True, "metavar": "KIND:PARAMS"} for c in "xyz"},
    "ijk": {f"--{c}": {"default": None, "metavar": "KIND:PARAMS"} for c in "ijk"},
    "kloosterman": {
        "--kloosterman": {
            "action": "append",
            "metavar": "l,B,a,b[,ap,bp]",
            "help": "generalized Kloosterman sum; repeatable",
        }
    },
}

# subcommand -> (help, function, whether it takes --type, its flag groups)
_COMMANDS = {
    "basis": ("list the standard basis", _cmd_basis, True, ["format"]),
    "intersect": ("coset representatives of a triple", _cmd_intersect, True, ["format", "xyz"]),
    "constants": ("structure constants", _cmd_constants, True, ["format", "jobs", "ijk"]),
    "verify-tables": ("algorithm vs closed-form tables", _cmd_verify_tables, True, ["jobs", "ijk"]),
    "verify-oracle": ("algorithm vs brute-force oracle", _cmd_verify_oracle, True, ["budget", "ijk"]),
    "sums": ("character sums over the field", _cmd_sums, False, ["format", "kloosterman"]),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gghecke",
        description="Gelfand-Graev Hecke algebra structure constants, exactly.",
    )
    subs = top.add_subparsers(dest="command", required=True)
    for name, (text, fn, typed, groups) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        if typed:
            sub.add_argument("--type", choices=("A2", "B2"), required=True)
        for flag in ("--q", "--p", "--f"):
            sub.add_argument(flag, type=int, default=None)
        sub.add_argument("--modulus", default=None)
        sub.add_argument("--out", default=None)
        for group in groups:
            for flag, opts in _FLAGS[group].items():
                sub.add_argument(flag, **opts)
        sub.set_defaults(fn=fn)
    return top


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
