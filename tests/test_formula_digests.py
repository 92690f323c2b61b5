"""The closed forms against recorded digests of whole rows.

For each field, one seeded row (i, j) per ordered pair of kinds, and every k
of the basis: the sha256 of the coefficient tuples of table_formula(i, j, k)
in basis order.  The digests in formula_digests.json were recorded from the
closed forms as they stood before their per-pattern rewrite, so any later
form is checked against them byte for byte, at fields far past the walk.

    PYTHONPATH=src python tests/test_formula_digests.py

re-records every digest from the current code; say so whenever that is done.
"""
import hashlib
import json
import math
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from gghecke.gf import make_field
from gghecke.hecke import BasisElem, HeckeAlgebra

PATH = Path(__file__).parent / "formula_digests.json"
# every prime power q <= 49 (odd for B2) in tier-1; two large fields when slow
SLOW = ("A2-512", "B2-343")


def _pf(q: int) -> tuple:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return p, round(math.log(q, p))


def _fields() -> list:
    qs = [q for q in range(2, 50) if _pf(q)[0] ** _pf(q)[1] == q]
    return [f"A2-{q}" for q in qs] + [f"B2-{q}" for q in qs if q % 2] + list(SLOW)


def _algebra(name: str) -> HeckeAlgebra:
    # uncached, so each field's basis is freed after its case
    tag, q = name.split("-")
    return HeckeAlgebra(tag, make_field(*_pf(int(q))))


def row_digest(H: HeckeAlgebra, i, j) -> str:
    h = hashlib.sha256()
    for k in H.basis:
        h.update(repr(tuple(H.table_formula(i, j, k))).encode())
    return h.hexdigest()


def _record(name: str) -> list:
    H = _algebra(name)
    rng = random.Random(name)
    by_kind = [[b for b in H.basis if b.kind == kind] for kind in range(4)]
    rows = []
    for ki, kj in product(range(4), repeat=2):
        i, j = rng.choice(by_kind[ki]), rng.choice(by_kind[kj])
        rows.append([list(i), list(j), row_digest(H, i, j)])
    return rows


DIGESTS = json.loads(PATH.read_text()) if PATH.exists() else {}


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n for n in _fields()]
)
def test_closed_forms_match_recorded_digests(name):
    H = _algebra(name)
    rows = DIGESTS[name]
    assert {(i[0], j[0]) for i, j, _ in rows} == set(product(range(4), repeat=2))
    bad = []
    for i, j, want in rows:
        i, j = BasisElem(i[0], i[1:]), BasisElem(j[0], j[1:])
        if row_digest(H, i, j) != want:
            bad.append((i, j))
    assert not bad, bad


if __name__ == "__main__":
    names = sys.argv[1:] or _fields()
    out = dict(DIGESTS)
    for name in names:
        out[name] = _record(name)
        print(name, flush=True)
    order = _fields()
    PATH.write_text("{\n" + ",\n".join(
        f"  {json.dumps(n)}: [\n" + ",\n".join(f"    {json.dumps(r)}" for r in out[n]) + "\n  ]"
        for n in sorted(out, key=order.index)) + "\n}\n")
