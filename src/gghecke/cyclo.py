"""Exact arithmetic in Z[zeta_p] and the character sums built on it.

A CycloNum is a vector of p-1 coefficients over the basis 1, zeta, ...,
zeta^(p-2) of Q(zeta_p), where zeta = exp(2 pi i / p); the relation
1 + zeta + ... + zeta^(p-1) = 0 folds the top power into the basis.  The
additive character of F_q is phi(x) = zeta_p^Tr(x).

Coefficients are ints.  A Fraction appears only where a rational is passed
in (the 1/q of generation_expand, the 1/|U| of the oracle's idempotent),
and one that reduces to an integer is stored as an int again.

>>> from gghecke.gf import make_field
>>> F = make_field(5)
>>> sum((phi(F, x) for x in F.elements()), CycloNum.zero(5)).is_zero()
True
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import gf


def _exact(c):
    """An int as is; anything else as a Fraction, or an int when integral."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class CycloNum:
    """Element of Q(zeta_p), exact; immutable."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        cs = tuple(map(_exact, coeffs))
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p = {p}")
        self.p = p
        self.coeffs = cs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "CycloNum":
        return CycloNum(p, (0,) * (p - 1))

    @staticmethod
    def from_int(p: int, n) -> "CycloNum":
        return CycloNum(p, (n,) + (0,) * (p - 2))

    @staticmethod
    def zeta_pow(p: int, k: int) -> "CycloNum":
        k %= p
        if k < p - 1:
            cs = [0] * (p - 1)
            cs[k] = 1
            return CycloNum(p, cs)
        return CycloNum(p, (-1,) * (p - 1))

    @staticmethod
    def from_zeta_counts(p: int, counts) -> "CycloNum":
        """sum(counts[k] * zeta^k), counts indexed by exponent mod p."""
        cs = [0] * (p - 1)
        for k, n in enumerate(counts):
            if n:
                k %= p
                if k < p - 1:
                    cs[k] += n
                else:
                    for i in range(p - 1):
                        cs[i] -= n
        return CycloNum(p, cs)

    # -- ring ops -------------------------------------------------------------

    def __add__(self, other: "CycloNum") -> "CycloNum":
        self._chk(other)
        return CycloNum(self.p, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        self._chk(other)
        return CycloNum(self.p, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.p, (-a for a in self.coeffs))

    def __mul__(self, other) -> "CycloNum":
        if not isinstance(other, CycloNum):
            return self.scale(other)
        self._chk(other)
        p = self.p
        acc = [0] * p  # exponents mod p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return CycloNum(p, (acc[i] - top for i in range(p - 1)))

    __rmul__ = __mul__

    def scale(self, c) -> "CycloNum":
        c = _exact(c)
        return CycloNum(self.p, (a * c for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _chk(self, other: "CycloNum") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")

    # -- plumbing --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloNum)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"CycloNum(p={self.p}, {self.render()!r})"

    def render(self) -> str:
        """Canonical human form: "c0 + c1*z + c2*z^2 + ..." with zero terms dropped.

        >>> CycloNum.from_int(3, 3).render()
        '3'
        >>> CycloNum.zeta_pow(5, 2).render()
        'z^2'
        """
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"

    def to_dict(self) -> dict:
        return {"p": self.p, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_dict(d: dict) -> "CycloNum":
        return CycloNum(d["p"], d["coeffs"])


# -- character sums -----------------------------------------------------------


def phi(field: gf.Field, x: int) -> CycloNum:
    """The additive character phi(x) = zeta_p^Tr(x)."""
    return CycloNum.zeta_pow(field.p, field.trace(x))


@lru_cache(maxsize=None)
def gauss_sum(field: gf.Field) -> CycloNum:
    """G = sum over x in F_q of phi(x^2); 0 in characteristic 2.

    Computed once per field; the shared CycloNum is immutable.
    """
    counts = [0] * field.p
    for x in field.elements():
        counts[field.trace(field.mul(x, x))] += 1
    return CycloNum.from_zeta_counts(field.p, counts)


def quad_char_sum(field: gf.Field, A: int, B: int, C: int) -> CycloNum:
    """sum over x in F_q of phi(A x^2 + B x + C), in closed form.

    A = 0 degenerates to the linear case q*delta_{B,0}*phi(C).  For odd p the
    square is completed, leaving chi(A)*G*phi(C - B^2/4A) with chi the
    quadratic character.  In characteristic 2 the map x -> A x^2 + B x is
    F_p-linear; the sum is q*phi(C) exactly when A = B^2 and 0 otherwise.
    """
    p, q = field.p, field.q
    if A == 0:
        if B != 0:
            return CycloNum.zero(p)
        return phi(field, C).scale(q)
    if p == 2:
        if A == field.mul(B, B):
            return phi(field, C).scale(q)
        return CycloNum.zero(p)
    # odd p: A x^2 + B x + C = A (x + B/2A)^2 + C - B^2/4A
    shift = field.sub(C, field.div(field.mul(B, B), field.mul(field.of(4), A)))
    sign = 1 if field.is_square(A) else -1
    return (gauss_sum(field) * phi(field, shift)).scale(sign)


def kloosterman(
    field: gf.Field, l: int, B: int, a: int, b: int, ap: int = 0, bp: int = 0
) -> CycloNum:
    """Generalized Kloosterman sum over the l-th roots of B:

        sum over zeta with zeta^l = B of phi(ap*zeta^2 + a*zeta + b/zeta + bp/zeta^2)

    The plain S_l(B, a, b) is the ap = bp = 0 case.  An empty root set gives 0.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if not all(v in range(field.q) for v in (B, a, b, ap, bp)):
        raise ValueError(f"B, a, b, ap, bp must be codes 0..{field.q - 1} of F_{field.q}")
    if B == 0:
        raise ValueError("B must be a unit")
    counts = [0] * field.p
    for z in field.rth_roots(B, l):
        zi = field.inv(z)
        arg = field.mul(a, z)
        arg = field.add(arg, field.mul(b, zi))
        if ap:
            arg = field.add(arg, field.mul(ap, field.mul(z, z)))
        if bp:
            arg = field.add(arg, field.mul(bp, field.mul(zi, zi)))
        counts[field.trace(arg)] += 1
    return CycloNum.from_zeta_counts(field.p, counts)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
