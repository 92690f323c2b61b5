"""Hecke algebra basis, structure constants, closed forms."""
import itertools

import pytest

from gghecke.cyclo import CycloNum
from gghecke.gf import make_field
from gghecke.hecke import BasisElem, HeckeVec, hecke_algebra, standard_basis


def test_basis_elem_validation():
    with pytest.raises(ValueError):
        BasisElem(5)
    with pytest.raises(ValueError):
        BasisElem(0, (1,))
    with pytest.raises(ValueError):
        BasisElem(3, (1,))
    assert repr(BasisElem(0, (1, 2))) == "e0(1,2)"


@pytest.mark.parametrize("tag,q", [("A2", 2), ("A2", 3), ("A2", 5), ("B2", 3), ("B2", 5)])
def test_basis_shape(tag, q):
    H = hecke_algebra(tag, make_field(q))
    assert len(H.basis) == q * q
    by_kind = {k: [b for b in H.basis if b.kind == k] for k in range(4)}
    assert len(by_kind[0]) == (q - 1) ** 2
    assert len(by_kind[1]) == q - 1
    assert len(by_kind[2]) == q - 1
    assert len(by_kind[3]) == 1
    assert len(set(H.basis)) == q * q


def test_algebra_is_cached():
    F = make_field(3)
    assert hecke_algebra("A2", F) is hecke_algebra("A2", F)
    assert standard_basis("A2", F) == hecke_algebra("A2", F).basis


def test_points_and_lengths():
    H = hecke_algebra("B2", make_field(3))
    bw = H.W.basis_elements()
    assert H.point(BasisElem(0, (2, 1))) == (bw[0], (2, 1))
    assert H.point(BasisElem(1, (2,))) == (bw[1], (1, 2))
    assert H.point(BasisElem(2, (2,))) == (bw[2], (2, 1))
    assert H.point(BasisElem(3)) == (bw[3], (1, 1))
    reps = (BasisElem(0, (1, 1)), BasisElem(1, (1,)), BasisElem(2, (1,)), BasisElem(3))
    assert [H.length(b) for b in reps] == [4, 3, 3, 0]
    with pytest.raises(ValueError):
        H.point(BasisElem(1, (0,)))
    with pytest.raises(ValueError):
        H.point(BasisElem(0, (1, 3)))


def test_group_elem_of_point():
    for tag in ("A2", "B2"):
        H = hecke_algebra(tag, make_field(3))
        G = H.G
        for b in H.basis:
            g = H.group_elem(b)
            w, t = H.point(b)
            assert g == G.multiply(G.lift(w), G.torus(*t))
            assert g.w == w


def test_unit_is_an_identity():
    H = hecke_algebra("A2", make_field(3))
    one = CycloNum.from_int(3, 1)
    e3 = H.unit()
    for b in H.basis:
        assert H.multiply(e3, b) == HeckeVec({b: one})
        assert H.multiply(b, e3) == HeckeVec({b: one})
        assert H.table_formula(e3, b, b) == one
        assert H.table_formula(b, e3, b) == one


def test_structure_constant_rejects_bad_method():
    H = hecke_algebra("A2", make_field(2))
    b = H.unit()
    with pytest.raises(ValueError):
        H.structure_constant(b, b, b, method="bogus")


def test_known_value_at_q3():
    # e_1(1) e_1(1) has coefficient 3 on e_2(2), and that is the only
    # (c1, c2, d) giving 3 together with its inverse pair
    H = hecke_algebra("A2", make_field(3))
    three = CycloNum.from_int(3, 3)
    got = H.structure_constant(BasisElem(1, (1,)), BasisElem(1, (1,)), BasisElem(2, (2,)))
    assert got == three
    assert got.to_dict() == {"p": 3, "coeffs": ["3", "0"]}
    hits = {
        (c1, c2, d)
        for c1 in (1, 2)
        for c2 in (1, 2)
        for d in (1, 2)
        if H.structure_constant(BasisElem(1, (c1,)), BasisElem(1, (c2,)), BasisElem(2, (d,))) == three
    }
    assert hits == {(1, 1, 2), (2, 2, 1)}


@pytest.mark.parametrize("tag,q", [("A2", 2), ("A2", 3), ("B2", 3)])
def test_fast_agrees_with_direct(tag, q):
    H = hecke_algebra(tag, make_field(q))
    for i, j, k in itertools.product(H.basis, repeat=3):
        a = H.structure_constant(i, j, k, method="fast")
        b = H.structure_constant(i, j, k, method="direct")
        assert a == b, (i, j, k)


@pytest.mark.parametrize("tag,q", [("A2", (3,)), ("A2", (2, 2)), ("B2", (3,))])
def test_multiply_agrees_with_direct(tag, q):
    # one bucket walk per kind pattern against coset enumeration per k
    H = hecke_algebra(tag, make_field(*q))
    for i, j in itertools.product(H.basis, repeat=2):
        want = HeckeVec(
            {k: H.structure_constant(i, j, k, method="direct") for k in H.basis}
        )
        assert H.multiply(i, j) == want, (i, j)


def test_single_constant_agrees_with_multiply():
    H = hecke_algebra("A2", make_field(5))
    for i, j in itertools.product(H.basis, repeat=2):
        prod = H.multiply(i, j)
        for k in H.basis:
            assert H.structure_constant(i, j, k) == prod.get(k, 5), (i, j, k)


@pytest.mark.parametrize("tag,q", [("A2", (2, 2)), ("B2", (5,))])
def test_character_table_matches_group(tag, q):
    F = make_field(*q)
    H = hecke_algebra(tag, F)
    G = H.G
    for t in itertools.product(F.units(), repeat=2):
        row = H._chars(t)
        assert len(row) == 2 * G.N + 1
        for idx in range(1, 2 * G.N + 1):
            assert row[idx] == G.chi_at(t, idx), (t, idx)


@pytest.mark.parametrize("tag", ["A2", "B2"])
def test_coefficients_are_ints(tag):
    # every structure constant is an integer combination of powers of zeta
    H = hecke_algebra(tag, make_field(3))
    for i, j, k in itertools.product(H.basis, repeat=3):
        for value in (
            H.structure_constant(i, j, k),
            H.structure_constant(i, j, k, method="direct"),
            H.table_formula(i, j, k),
        ):
            assert all(type(c) is int for c in value.coeffs), (i, j, k, value)


def test_closed_forms_over_extension_field():
    H = hecke_algebra("A2", make_field(2, 2))
    for i, j, k in itertools.product(H.basis, repeat=3):
        assert H.structure_constant(i, j, k) == H.table_formula(i, j, k), (i, j, k)


def test_table_formula_validates_params():
    H = hecke_algebra("A2", make_field(3))
    with pytest.raises(ValueError):
        H.table_formula(BasisElem(1, (0,)), H.unit(), H.unit())


def test_hecke_vec_basics():
    p = 3
    one = CycloNum.from_int(p, 1)
    two = CycloNum.from_int(p, 2)
    a, b = BasisElem(1, (1,)), BasisElem(2, (2,))
    v = HeckeVec({a: one}) + HeckeVec({a: one, b: two})
    assert v == HeckeVec({a: two, b: two})
    assert len(v) == 2
    assert v.get(a, p) == two
    assert v.get(BasisElem(3), p) == CycloNum.zero(p)
    assert v.scale(CycloNum.zero(p)) == HeckeVec()
    assert repr(HeckeVec()) == "0"
    # cancellation drops entries
    assert len(HeckeVec({a: one}) + HeckeVec({a: -one})) == 0


def test_generation_expand_guards():
    with pytest.raises(ValueError):
        hecke_algebra("B2", make_field(3)).generation_expand(1, 1)
    with pytest.raises(ValueError):
        hecke_algebra("A2", make_field(3)).generation_expand(0, 1)


def test_generation_expand_q2():
    H = hecke_algebra("A2", make_field(2))
    want = HeckeVec({BasisElem(0, (1, 1)): CycloNum.from_int(2, 1)})
    assert H.generation_expand(1, 1) == want
