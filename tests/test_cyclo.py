"""Cyclotomic arithmetic and the character sum identities."""
import copy
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gghecke import cyclo
from gghecke.cyclo import (
    CycloNum,
    gauss_sum,
    kloosterman,
    kloosterman_counts,
    phi,
    quad_char_sum,
    square_counts,
)
from gghecke.gf import make_field

SMALL_FIELDS = [
    make_field(2),
    make_field(3),
    make_field(2, 2),
    make_field(5),
    make_field(7),
    make_field(2, 3),
    make_field(3, 2),
]


def _cyclo(p, data):
    cs = data.draw(st.lists(st.integers(-9, 9), min_size=p - 1, max_size=p - 1))
    return CycloNum(p, cs)


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=150)
def test_ring_axioms(p, data):
    a, b, c = _cyclo(p, data), _cyclo(p, data), _cyclo(p, data)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == CycloNum.zero(p)
    assert a - b == a + (-b)
    assert a * CycloNum.from_int(p, 1) == a


@given(st.sampled_from([2, 3, 5, 7]), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=100)
def test_zeta_power_arithmetic(p, i, j):
    zi, zj = CycloNum.zeta_pow(p, i), CycloNum.zeta_pow(p, j)
    assert zi * zj == CycloNum.zeta_pow(p, i + j)


def test_zeta_powers_sum_to_zero():
    for p in (2, 3, 5, 7, 11):
        acc = CycloNum.zero(p)
        for k in range(p):
            acc = acc + CycloNum.zeta_pow(p, k)
        assert acc == CycloNum.zero(p)


def test_wrong_coefficient_count_rejected():
    with pytest.raises(ValueError):
        CycloNum(5, (1, 2))


def test_render():
    assert CycloNum.from_int(3, 3).render() == "3"
    assert CycloNum.zeta_pow(5, 2).render() == "z^2"
    assert CycloNum.zero(7).render() == "0"
    assert (CycloNum.from_int(5, 2) + CycloNum.zeta_pow(5, 1).scale(3)).render() == "2 + 3*z"


def test_dict_round_trip():
    vals = [
        CycloNum.zero(3),
        CycloNum.from_int(7, -4),
        CycloNum.zeta_pow(5, 3).scale(2) + CycloNum.from_int(5, 1),
    ]
    for v in vals:
        assert CycloNum.from_dict(v.to_dict()) == v



def test_cyclonum_is_its_coefficient_tuple():
    c = CycloNum(5, (1, -2, 0, 3))
    zero = CycloNum.zero(5)
    assert isinstance(c, tuple) and tuple(c) == (1, -2, 0, 3) and c == (1, -2, 0, 3)
    assert hash(c) == hash((1, -2, 0, 3))
    assert c.p == len(c) + 1 == 5
    # + and * are the ring's, never concatenation or repetition
    for twice in (c + c, 2 * c, c * 2, sum([c, c], zero), c.scale(2)):
        assert type(twice) is CycloNum and twice == (2, -4, 0, 6)
    assert type(c * c) is CycloNum and len(c * c) == 4
    with pytest.raises(ValueError):
        CycloNum(5, (1, 2, 3))
    with pytest.raises(TypeError):
        CycloNum(5, (1, 2, 3, 4.0))
    # numbers for different p are never equal, not even 0 = 0 or 1 = 1
    assert CycloNum.zero(3) != CycloNum.zero(5)
    assert CycloNum.from_int(3, 1) != CycloNum.from_int(5, 1)
    with pytest.raises(ValueError):
        CycloNum.zero(3) + CycloNum.zero(5)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(twin) is CycloNum and twin == c and twin.p == 5
    assert c.to_dict() == {"p": 5, "coeffs": ["1", "-2", "0", "3"]}
    assert repr(c) == "CycloNum(p=5, '1 + -2*z + 3*z^3')"

def test_integral_coefficients_are_ints():
    v = CycloNum(5, [3, 2, -1, 0])
    assert all(type(c) is int for c in (v * v + v).scale(-2))
    assert all(type(c) is int for c in CycloNum.from_dict(v.to_dict()))
    # a rational is refused, not stored
    with pytest.raises(TypeError):
        CycloNum(5, [Fraction(6, 2), 2, -1, 0])
    with pytest.raises(TypeError):
        CycloNum(5, [0.5, 2, -1, 0])
    with pytest.raises(TypeError):
        v.scale(Fraction(1, 3))
    with pytest.raises(ValueError):
        CycloNum.from_dict({"p": 5, "coeffs": ["1/3", "0", "0", "0"]})
    # division is exact or refused
    assert v.scale(6).exact_div(3) == v.scale(2)
    with pytest.raises(ValueError):
        v.exact_div(3)


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=100)
def test_from_zeta_counts_matches_checked_path(p, data):
    # from_zeta_counts skips the int check; its coefficients must still be the ints
    # that the checked constructor gives for the same sum of zeta powers.  Every
    # route ends in it with exactly p counts: the sweeps with lists, the closed
    # forms with lists or prebuilt tuples, the count tables with tuples
    counts = data.draw(st.lists(st.integers(-30, 30), min_size=p, max_size=p))
    if data.draw(st.booleans()):
        counts = tuple(counts)
    got = CycloNum.from_zeta_counts(p, counts)
    assert type(got) is CycloNum
    checked = CycloNum.zero(p)
    for k, n in enumerate(counts):
        checked = checked + CycloNum(p, CycloNum.zeta_pow(p, k)).scale(n)
    assert got == checked
    assert all(type(c) is int for c in got)
    assert len(got) == p - 1
    # any other number of counts is refused, never folded mod p
    for size in (0, p - 1, p + 1, 2 * p - 1):
        with pytest.raises(ValueError):
            CycloNum.from_zeta_counts(p, list(range(1, size + 1)))


def test_ring_ops_leave_no_tuples_behind():
    # a result built from a bare map makes tuple() trim a temporary, which the
    # interpreter keeps in its tuple free list: 171 KB after 2,999 rounds at p = 7
    a, b = CycloNum(7, (1, -2, 3, 0, 5, -6)), CycloNum(7, (4, 0, -1, 2, 2, 9))
    here = [tracemalloc.Filter(True, cyclo.__file__)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(here)
        for _ in range(2999):
            a + b, a - b, -a
        after = tracemalloc.take_snapshot().filter_traces(here)
    finally:
        tracemalloc.stop()
    grown = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert grown < 16_000, grown


def test_gauss_sum_is_cached_and_exact():
    for q, (p, f) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                      7: (7, 1), 8: (2, 3), 9: (3, 2), 25: (5, 2), 27: (3, 3)}.items():
        F = make_field(p, f)
        inline = CycloNum.zero(p)
        for x in F.elements():
            inline = inline + phi(F, F.mul(x, x))
        assert gauss_sum(F) == inline, q
        assert gauss_sum(F) is gauss_sum(F)


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2),
                                 (3, 3)],
                         ids=["q2", "q4", "q8", "q3", "q5", "q7", "q9", "q25", "q27"])
def test_count_tables_match_direct_counts(p, f):
    # the B2 closed form reads sum_w phi(o + ka w + kb/w) as the Kloosterman
    # row of ka kb rotated by Tr(o), or q - 1 at Tr(o) when ka = kb = 0; at
    # f > 1 the trace is not the identity
    F = make_field(p, f)
    kl = kloosterman_counts(F)
    for ka in F.elements():
        for kb in F.elements():
            o = F.add(ka, F.mul(kb, kb))
            direct = [0] * p
            for w in F.units():
                direct[F.trace(F.add(o, F.add(F.mul(ka, w), F.div(kb, w))))] += 1
            row = kl[F.mul(ka, kb)] if ka or kb else [F.q - 1] + [0] * (p - 1)
            rotated = [0] * p
            for r, n in enumerate(row):
                rotated[(r + F.trace(o)) % p] += n
            assert rotated == direct, (F.q, ka, kb)
    brute = [0] * p
    for x in F.elements():
        brute[F.trace(F.mul(x, x))] += 1
    assert square_counts(F) == tuple(brute)


def test_phi_turns_addition_into_multiplication():
    for F in SMALL_FIELDS:
        for x in F.elements():
            for y in F.elements():
                assert phi(F, x) * phi(F, y) == phi(F, F.add(x, y))


def test_linear_sums():
    # sum over F_q of phi(a x) = q [a = 0]; over units it is q [a = 0] - 1
    for F in SMALL_FIELDS:
        q = F.q
        for a in F.elements():
            full = CycloNum.zero(F.p)
            for x in F.elements():
                full = full + phi(F, F.mul(a, x))
            want = CycloNum.from_int(F.p, q if a == 0 else 0)
            assert full == want
            units = CycloNum.zero(F.p)
            for x in F.units():
                units = units + phi(F, F.mul(a, x))
            assert units == CycloNum.from_int(F.p, q - 1 if a == 0 else -1)


def test_unit_sum_reduces_to_kloosterman_shape():
    # sum over units of phi(a x + b/x) = sum over units of phi(x + ab/x),
    # plus q when a = b = 0
    for F in SMALL_FIELDS:
        for a in F.elements():
            for b in F.elements():
                lhs = CycloNum.zero(F.p)
                rhs = CycloNum.zero(F.p)
                for x in F.units():
                    lhs = lhs + phi(F, F.add(F.mul(a, x), F.div(b, x)))
                    rhs = rhs + phi(F, F.add(x, F.div(F.mul(a, b), x)))
                if a == 0 and b == 0:
                    rhs = rhs + CycloNum.from_int(F.p, F.q)
                assert lhs == rhs


def test_root_restricted_linear_sum():
    # sum over zeta^r = d, x in F_q of phi(x (a - c zeta)) = q [(a/c)^r = d]
    for F in SMALL_FIELDS:
        for r in (2, 3):
            for d in F.units():
                for a in F.units():
                    for c in F.units():
                        acc = CycloNum.zero(F.p)
                        for z in F.rth_roots(d, r):
                            for x in F.elements():
                                acc = acc + phi(F, F.mul(x, F.sub(a, F.mul(c, z))))
                        hit = F.pow(F.div(a, c), r) == d
                        assert acc == CycloNum.from_int(F.p, F.q if hit else 0)


def test_gauss_sum_values():
    for q in (2, 4, 8):
        F = make_field(2, {2: 1, 4: 2, 8: 3}[q])
        assert gauss_sum(F) == CycloNum.zero(2)
    for q in (5, 13):
        F = make_field(q)
        G = gauss_sum(F)
        assert G * G == CycloNum.from_int(q, q)
    for q in (3, 7, 11):
        F = make_field(q)
        G = gauss_sum(F)
        assert G * G == CycloNum.from_int(q, -q)


def test_gauss_sum_is_pure_quadratic_sum():
    for F in SMALL_FIELDS:
        if F.p == 2:
            continue
        assert gauss_sum(F) == quad_char_sum(F, 1, 0, 0)


def test_quad_char_sum_matches_brute_force():
    for F in SMALL_FIELDS:
        for A in F.elements():
            for B in F.elements():
                for C in F.elements():
                    acc = CycloNum.zero(F.p)
                    for x in F.elements():
                        arg = F.add(F.mul(A, F.mul(x, x)), F.add(F.mul(B, x), C))
                        acc = acc + phi(F, arg)
                    assert acc == quad_char_sum(F, A, B, C)


def test_kloosterman_symmetry():
    for F in SMALL_FIELDS:
        for ell in (1, 2, 3):
            for a in F.elements():
                for b in F.elements():
                    assert kloosterman(F, ell, 1, a, b) == kloosterman(F, ell, 1, b, a)


def test_kloosterman_edge_cases():
    F = make_field(5)
    with pytest.raises(ValueError):
        kloosterman(F, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        kloosterman(F, 2, 0, 1, 1)
    # 2 is not a fourth power mod 5, so the root set is empty
    assert kloosterman(F, 4, 2, 1, 1) == CycloNum.zero(5)


def test_kloosterman_quartic_terms():
    # the roots found by powering every unit; l = q - 1 takes every unit at B = 1,
    # the set the B2 closed forms sum over, and none at any other B
    for (p, f), l in [((7, 1), 3), ((3, 2), 2), ((3, 3), 2), ((7, 1), 6), ((3, 2), 8)]:
        F = make_field(p, f)
        for B in F.units():
            for a, b, ap, bp in [(1, 2, 3, 4), (0, 0, 1, 1), (2, 0, 0, 5)]:
                acc = CycloNum.zero(p)
                for z in F.units():
                    if F.pow(z, l) != B:
                        continue
                    zi = F.inv(z)
                    arg = F.add(
                        F.add(F.mul(ap, F.mul(z, z)), F.mul(a, z)),
                        F.add(F.mul(b, zi), F.mul(bp, F.mul(zi, zi))),
                    )
                    acc = acc + phi(F, arg)
                assert kloosterman(F, l, B, a, b, ap, bp) == acc, (F.q, l, B, a, b, ap, bp)
