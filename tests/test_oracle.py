"""Brute-force layer: census numbers, idempotency, both recomputation modes."""
import itertools

import pytest

from gghecke.cyclo import CycloNum
from gghecke.gf import make_field
from gghecke.hecke import hecke_algebra
from gghecke.intersect import intersect, left_coset_key
from gghecke.oracle import (
    BudgetExceeded,
    brute_constant,
    brute_intersect,
    ene,
    enumerate_group,
    idempotent,
    vec_convolve,
    vec_equal,
)


@pytest.mark.parametrize("tag,q,want", [("A2", 2, 168), ("A2", 3, 5616), ("B2", 3, 51840)])
def test_census(tag, q, want):
    order, it = enumerate_group(tag, make_field(q), budget=60_000)
    assert order == want
    assert sum(1 for _ in it) == want


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_group("B2", make_field(3), budget=1000)
    H = hecke_algebra("A2", make_field(3))
    with pytest.raises(BudgetExceeded):
        idempotent(H, budget=10)
    with pytest.raises(BudgetExceeded):
        ene(H, H.unit(), budget=100)


@pytest.mark.parametrize("tag,q", [("A2", 2), ("A2", 3), ("B2", 3)])
def test_idempotent_squares_to_itself(tag, q):
    H = hecke_algebra(tag, make_field(q))
    e = idempotent(H)  # |U| times the idempotent, so e * e = |U| e
    size = H.F.q ** H.G.N
    assert vec_equal(vec_convolve(H.G, e, e), {g: c.scale(size) for g, c in e.items()})


@pytest.mark.parametrize("q", [2, 3])
def test_ene_support_is_the_standard_basis(q):
    # e g e survives exactly at the basis points
    H = hecke_algebra("A2", make_field(q))
    G = H.G
    e = idempotent(H)
    one = CycloNum.from_int(G.F.p, 1)
    points = {H.group_elem(b) for b in H.basis}
    for w in G.W.elements:
        for t1 in G.F.units():
            for t2 in G.F.units():
                g = G.multiply(G.lift(w), G.torus(t1, t2))
                prod = vec_convolve(G, vec_convolve(G, e, {g: one}), e)
                assert bool(prod) == (g in points), (w, t1, t2)


def test_ene_matches_convolution_route():
    H = hecke_algebra("A2", make_field(2))
    G = H.G
    e = idempotent(H)
    one = CycloNum.from_int(2, 1)
    for b in H.basis:
        delta = {H.group_elem(b): one}
        assert vec_equal(ene(H, b), vec_convolve(G, vec_convolve(G, e, delta), e))


@pytest.mark.parametrize("tag,q", [("A2", 2)])
def test_both_modes_full(tag, q):
    H = hecke_algebra(tag, make_field(q))
    for i, j, k in itertools.product(H.basis, repeat=3):
        s = H.structure_constant(i, j, k)
        assert brute_constant(H, i, j, k, mode=1) == s, (i, j, k)
        assert brute_constant(H, i, j, k, mode=2) == s, (i, j, k)


def test_mode_validation():
    H = hecke_algebra("A2", make_field(2))
    with pytest.raises(ValueError):
        brute_constant(H, H.unit(), H.unit(), H.unit(), mode=3)


def test_mode2_sampled_q3():
    H = hecke_algebra("A2", make_field(3))
    picks = [
        (H.basis[0], H.basis[0], H.basis[0]),
        (H.basis[1], H.basis[5], H.basis[7]),
        (H.basis[4], H.basis[2], H.basis[8]),
        (H.basis[6], H.basis[3], H.basis[0]),
    ]
    for i, j, k in picks:
        assert brute_constant(H, i, j, k, mode=2) == H.structure_constant(i, j, k)


def test_brute_intersect_matches_enumerator():
    H = hecke_algebra("A2", make_field(2))
    G = H.G
    for i, j, k in itertools.product(H.basis, repeat=3):
        x, tx = H.point(i)
        y, ty = H.point(j)
        z, tz = H.point(k)
        px = (G.lift(x), G.torus(*tx))
        py = (G.lift(y), G.torus(*ty))
        pz = (G.lift(z), G.torus(*tz))
        brute = brute_intersect(px, py, pz, G)
        fast = {left_coset_key(r.g) for r in intersect(x, tx, y, ty, z, tz, group=G)}
        assert set(brute) == fast, (i, j, k)


def test_mode1_row_over_first_extension_field():
    # the oracle over F_4, where Tr is not the identity: one whole row (a kind-0
    # i, every j and k) against both the fast path and the closed forms
    H = hecke_algebra("A2", make_field(2, 2))
    i = next(b for b in H.basis if b.kind == 0)
    bad = []
    for j, k in itertools.product(H.basis, repeat=2):
        brute = brute_constant(H, i, j, k, mode=1)
        fast, closed = H.structure_constant(i, j, k), H.table_formula(i, j, k)
        if not brute == fast == closed:
            bad.append(((i, j, k), brute, fast, closed))
    assert not bad, (len(bad), bad[:3])
