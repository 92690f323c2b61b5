"""Finite field layer: construction, axioms, traces, roots."""
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gghecke import gf
from gghecke.gf import Field, field_from_dict, make_field

FIELDS = [
    make_field(2),
    make_field(3),
    make_field(2, 2),
    make_field(5),
    make_field(7),
    make_field(2, 3),
    make_field(3, 2),
]


def test_make_field_is_deterministic():
    assert make_field(2, 3) is make_field(2, 3)
    assert make_field(3, 2).to_dict() == make_field(3, 2).to_dict()
    # q = 4 has a single monic irreducible quadratic
    assert make_field(2, 2).to_dict() == {"p": 2, "f": 2, "modulus": [1, 1, 1]}


def test_round_trip_through_dict():
    for F in FIELDS:
        assert field_from_dict(F.to_dict()) == F


@pytest.mark.parametrize(
    "args",
    [(4,), (1,), (6, 2), (2, 0), (2, 2, (0, 1, 1)), (2, 2, (1, 0, 1)), (2, 10), (521,), (3, 10**9)],
)
def test_rejects_bad_parameters(args):
    with pytest.raises(ValueError):
        make_field(*args)


@given(st.sampled_from(FIELDS), st.integers(0, 512), st.integers(0, 512), st.integers(0, 512))
@settings(max_examples=200)
def test_ring_axioms(F: Field, i, j, k):
    a, b, c = i % F.q, j % F.q, k % F.q
    assert F.add(a, b) == F.add(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(a, b) == F.mul(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    assert F.sub(a, b) == F.add(a, F.neg(b))
    if a:
        assert F.mul(a, F.inv(a)) == F.of(1)
        assert F.div(b, a) == F.mul(b, F.inv(a))
    assert F.pow(a, 3) == F.mul(a, F.mul(a, a))


@given(st.sampled_from(FIELDS), st.integers(0, 512), st.integers(0, 512))
@settings(max_examples=150)
def test_frobenius_is_additive(F: Field, i, j):
    a, b = i % F.q, j % F.q
    assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))


def test_trace_additive_and_onto():
    for F in FIELDS:
        traces = set()
        for a in F.elements():
            traces.add(F.trace(a))
            for b in F.elements():
                assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % F.p
        assert traces == set(range(F.p))


def test_trace_of_f4_generator():
    F = make_field(2, 2)
    assert F.coeffs(2) == (0, 1)
    assert F.trace(2) == 1


def test_coeff_round_trip():
    for F in FIELDS:
        for a in F.elements():
            cs = F.coeffs(a)
            assert len(cs) == F.f
            # the code is sum(c_i * p^i), little-endian
            assert sum((c % F.p) * F.p**i for i, c in enumerate(cs)) == a


def test_rth_roots():
    for F in FIELDS:
        q = F.q
        for r in range(1, 7):
            assert F.rth_roots(0, r) == frozenset({0})
            total = 0
            for a in F.units():
                roots = F.rth_roots(a, r)
                for x in roots:
                    assert F.pow(x, r) == a
                assert len(roots) in (0, math.gcd(r, q - 1))
                total += len(roots)
            assert total == q - 1


def test_is_square_matches_euler_criterion():
    for F in FIELDS:
        for a in F.elements():
            if F.p == 2:
                assert F.is_square(a)
            else:
                want = a == 0 or F.pow(a, (F.q - 1) // 2) == F.of(1)
                assert F.is_square(a) == want


def _multiplicative_generator(F):
    """Least generator of F_q^* in code order."""
    n = F.q - 1
    primes = [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]
    return next(g for g in F.units() if all(F.pow(g, n // pr) != 1 for pr in primes))


def test_multiplicative_generator():
    for F in FIELDS:
        g = _multiplicative_generator(F)
        powers = {F.pow(g, n) for n in range(F.q - 1)}
        assert len(powers) == F.q - 1


@pytest.mark.parametrize("q", [(5,), (3, 2)], ids=["q5", "q9"])
def test_div_by_zero_raises(q):
    F = make_field(*q)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    assert all(F.mul(F.div(a, b), b) == a for a in F.elements() for b in F.units())


# sha256 of repr((_add, _neg, _mul, _inv, _trace)) and the default modulus of
# every prime power q <= 512, recorded from the schoolbook-product tables the
# fields were built from before the digit recurrence replaced them
DIGESTS = {int(q): rec for q, rec in json.loads(
    (Path(__file__).parent / "gf_table_digests.json").read_text()).items()}


def _pf(q: int) -> tuple:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return p, round(math.log(q, p))


@pytest.mark.parametrize(
    "q",
    [q if q <= 64 or _pf(q)[1] > 1 else pytest.param(q, marks=pytest.mark.slow) for q in DIGESTS],
)
def test_tables_match_recorded_digests(q, monkeypatch):
    # uncached, so the large fields are freed after each case
    monkeypatch.setattr(gf, "_make_field_cached", Field)
    F = make_field(*_pf(q))
    assert F.q == q and list(F.modulus) == DIGESTS[q]["modulus"]
    tables = repr((F._add, F._neg, F._mul, F._inv, F._trace)).encode()
    assert hashlib.sha256(tables).hexdigest() == DIGESTS[q]["sha256"]


def _schoolbook(F: Field, a: int, b: int) -> int:
    """a * b by long multiplication of coordinate vectors, reduced mod the modulus."""
    p, f, m = F.p, F.f, F.modulus
    ca, cb = ([(c // p**i) % p for i in range(f)] for c in (a, b))
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    for d in range(2 * f - 2, f - 1, -1):  # x^d = -x^(d-f) (m_0 + ... + m_{f-1} x^(f-1))
        c, prod[d] = prod[d], 0
        for i in range(f):
            prod[d - f + i] -= c * m[i]
    return sum((c % p) * p**i for i, c in enumerate(prod[:f]))


OTHER_MODULI = [(2, 3, (1, 0, 1, 1)), (3, 2, (2, 1, 1)), (2, 4, (1, 0, 0, 1, 1)), (5, 2, (2, 1, 1))]


@pytest.mark.parametrize(
    "p,f,modulus",
    [pytest.param(*_pf(q), None, id=f"q{q}") for q in DIGESTS if q <= 64]
    + [pytest.param(p, f, m, id=f"q{p**f}-" + "".join(map(str, m))) for p, f, m in OTHER_MODULI],
)
def test_mul_and_inv_match_schoolbook_products(p, f, modulus):
    F = make_field(p, f, modulus)
    if modulus is not None:  # --modulus reaches the tables, not only the default
        assert F.modulus == modulus != make_field(p, f).modulus
    for a in F.elements():
        assert F._mul[a] == [_schoolbook(F, a, b) for b in F.elements()], a
        if a:
            assert _schoolbook(F, a, F._inv[a]) == 1, a
    assert F._inv[0] == 0
