"""Opt-in slow checks: the fast products against the closed forms at the
largest fields verified so far.  Run with `pytest -m slow`."""
import itertools
import random

import pytest

from gghecke.gf import make_field
from gghecke.hecke import HeckeAlgebra, hecke_algebra


@pytest.mark.slow
@pytest.mark.parametrize(
    "tag,q",
    [("A2", (2, 3)), ("A2", (3, 2)), ("B2", (7,)), ("B2", (3, 2))],
    ids=["A2-8", "A2-9", "B2-7", "B2-9"],
)
def test_products_match_closed_forms(tag, q):
    F = make_field(*q)
    H = hecke_algebra(tag, F)
    bad = []
    for i, j in itertools.product(H.basis, repeat=2):
        prod = H.multiply(i, j)
        for k in H.basis:
            if prod.get(k, F.p) != H.table_formula(i, j, k):
                bad.append((i, j, k))
    assert not bad, (len(bad), bad[:5])


@pytest.mark.slow
@pytest.mark.parametrize("tag,q", [("A2", (2, 6)), ("B2", (3, 3))], ids=["A2-64", "B2-27"])
def test_seeded_rows_match_closed_forms(tag, q):
    # past q = 49: one row (i, j) per ordered kind pair, seeded by its kind pattern
    # and q, over every k; the algebra is uncached, so its tables are freed after
    H = HeckeAlgebra(tag, make_field(*q))
    p, by_kind = H.F.p, [[b for b in H.basis if b.kind == kind] for kind in range(4)]
    bad = []
    for ki, kj in itertools.product(range(4), repeat=2):
        rng = random.Random(f"{tag}-{H.F.q}-{ki}{kj}")
        i, j = rng.choice(by_kind[ki]), rng.choice(by_kind[kj])
        prod = H.multiply(i, j)
        for k in H.basis:
            got, want = prod.get(k, p), H.table_formula(i, j, k)
            if got != want:
                bad.append((i, j, k, got, want))
    first = "; ".join(f"S_{i!r},{j!r}^{k!r}: multiply {a.render()}, table_formula {b.render()}"
                      for i, j, k, a, b in bad[:3])
    mismatches = len(bad)  # only the count and the first three reach the report
    assert mismatches == 0, f"{mismatches} mismatches, first: {first}"
