"""Exact invariants that hold at every q and need no closed form.

The size of each rep table is an Iwahori-Hecke structure constant: the
representatives of a kind pattern (x, y, z) are counted by Deodhar's
distinguished subexpressions (Deodhar, Invent. Math. 79, 1985), so their
number is the coefficient of T_z in T_x T_y, where T_s^2 = (q-1) T_s + q.
The reference below uses only Weyl-group arithmetic with integer q, none of
the group engine.  The Gelfand-Graev Hecke algebra is commutative, which
checks every product against another without any closed form.
"""
from itertools import combinations, product

import pytest

from gghecke import cli
from gghecke.gf import make_field
from gghecke.hecke import hecke_algebra
from gghecke.rootsys import weyl_group


def _iwahori_hecke(W, q: int, x, y) -> dict:
    """T_x T_y as {w: coefficient}, one simple reflection of y at a time."""
    prod = {x: 1}
    for i in y.word:
        s = W.simple(i)
        out = {}
        for w, c in prod.items():
            ws = W.mult(w, s)
            if ws.length() > w.length():
                out[ws] = out.get(ws, 0) + c
            else:
                out[w] = out.get(w, 0) + (q - 1) * c
                out[ws] = out.get(ws, 0) + q * c
        prod = out
    return prod


@pytest.mark.parametrize(
    "tag,pf",
    [("A2", (2, 2)), ("A2", (7,)), ("B2", (3,)), ("B2", (5,))],
    ids=["A2-4", "A2-7", "B2-3", "B2-5"],
)
def test_rep_table_sizes_are_iwahori_hecke_constants(tag, pf):
    F = make_field(*pf)
    W = weyl_group(tag)
    bw = W.basis_elements()
    for kinds in product(range(4), repeat=3):
        x, y, z = (bw[k] for k in kinds)
        # the buckets exactly as a pool worker sends them back
        buckets = cli._rep_buckets((tag, F.to_dict(), kinds))
        got = sum(len(entries) for _, entries in buckets)
        assert got == _iwahori_hecke(W, F.q, x, y).get(z, 0), kinds


@pytest.mark.parametrize(
    "tag,pf",
    [("A2", (2, 2)), ("A2", (7,)), ("B2", (3,)), ("B2", (5,))],
    ids=["A2-4", "A2-7", "B2-3", "B2-5"],
)
def test_multiply_commutes_on_every_pair(tag, pf):
    H = hecke_algebra(tag, make_field(*pf))
    for i, j in combinations(H.basis, 2):
        assert H.multiply(i, j) == H.multiply(j, i), (i, j)
