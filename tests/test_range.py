"""Opt-in slow checks: the fast products against the closed forms at the
largest fields verified so far.  Run with `pytest -m slow`."""
import itertools

import pytest

from gghecke.gf import make_field
from gghecke.hecke import hecke_algebra


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
