"""Exact arithmetic in Z[zeta_p] and the character sums built on it.

A CycloNum is the tuple of its p-1 coefficients over the basis 1, zeta, ...,
zeta^(p-2) of Z[zeta_p], where zeta = exp(2 pi i / p); the relation
1 + zeta + ... + zeta^(p-1) = 0 folds the top power into the basis.  The
additive character of F_q is phi(x) = zeta_p^Tr(x).

Coefficients are ints, always.  A caller that needs a rational (the 1/q of
generation_expand, the 1/|U| of the oracle) sums in Z[zeta_p] and ends with
one exact_div, which checks that every coefficient divides.

>>> from gghecke.gf import make_field
>>> F = make_field(5)
>>> sum((phi(F, x) for x in F.elements()), CycloNum.zero(5)).is_zero()
True
"""

from functools import lru_cache

from . import gf


class CycloNum(tuple):
    """Element of Z[zeta_p], exact; immutable.  It is the tuple of its p - 1
    int coefficients, equal to and hashed as that tuple, so p = len + 1."""

    __slots__ = ()

    def __new__(cls, p: int, coeffs):
        cs = tuple.__new__(cls, coeffs)
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p = {p}")
        if not all(type(c) is int for c in cs):
            raise TypeError(f"coefficients must be ints, got {tuple(cs)!r}")
        return cs

    def __getnewargs__(self):
        return self.p, tuple(self)

    @property
    def p(self) -> int:
        return len(self) + 1

    @staticmethod
    def _of(cs) -> "CycloNum":
        """Unchecked constructor: cs yields p - 1 ints."""
        return tuple.__new__(CycloNum, cs)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "CycloNum":
        return CycloNum(p, (0,) * (p - 1))

    @staticmethod
    def from_int(p: int, n) -> "CycloNum":
        return CycloNum(p, (n,) + (0,) * (p - 2))

    @staticmethod
    def zeta_pow(p: int, k: int) -> "CycloNum":
        counts = [0] * p
        counts[k % p] = 1
        return CycloNum.from_zeta_counts(p, counts)

    @staticmethod
    def from_zeta_counts(p: int, counts) -> "CycloNum":
        """sum(counts[k] * zeta^k) for exactly p int counts, k = 0..p-1.  Coefficient
        k is counts[k] - counts[p-1], as the p powers sum to 0: the one place that
        relation is applied.  ValueError for any other number of counts."""
        if len(counts) != p:
            raise ValueError(f"need {p} zeta counts for p = {p}, got {len(counts)}")
        top = counts[p - 1]
        return tuple.__new__(CycloNum, [c - top for c in counts[:p - 1]] if top else counts[:p - 1])

    # -- ring ops -------------------------------------------------------------

    def __add__(self, other: "CycloNum") -> "CycloNum":
        self._chk(other)
        return CycloNum._of([a + b for a, b in zip(self, other)])

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        self._chk(other)
        return CycloNum._of([a - b for a, b in zip(self, other)])

    def __neg__(self) -> "CycloNum":
        return CycloNum._of([-a for a in self])

    def __mul__(self, other) -> "CycloNum":
        if not isinstance(other, CycloNum):
            return self.scale(other)
        self._chk(other)
        p = self.p
        acc = [0] * p  # exponents mod p
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(other):
                    if b:
                        acc[(i + j) % p] += a * b
        return CycloNum.from_zeta_counts(p, acc)

    __rmul__ = __mul__

    def scale(self, c: int) -> "CycloNum":
        if type(c) is not int:
            raise TypeError(f"scale factor must be an int, got {c!r}")
        return CycloNum._of([a * c for a in self])

    def exact_div(self, n: int) -> "CycloNum":
        """self / n; ValueError unless n divides every coefficient."""
        if type(n) is not int:
            raise TypeError(f"divisor must be an int, got {n!r}")
        if any(a % n for a in self):
            raise ValueError(f"{self.render()} is not divisible by {n}")
        return CycloNum._of([a // n for a in self])

    def is_zero(self) -> bool:
        return not any(self)

    def _chk(self, other: "CycloNum") -> None:
        if len(self) != len(other):
            raise ValueError(f"mixed cyclotomic orders {self.p} and {other.p}")

    # -- plumbing --------------------------------------------------------------

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
        for i, c in enumerate(self):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) if terms else "0"

    def to_dict(self) -> dict:
        return {"p": self.p, "coeffs": [str(c) for c in self]}

    @staticmethod
    def from_dict(d: dict) -> "CycloNum":
        return CycloNum(d["p"], (int(c) if isinstance(c, str) else c for c in d["coeffs"]))


# -- character sums -----------------------------------------------------------


def phi(field: gf.Field, x: int) -> CycloNum:
    """The additive character phi(x) = zeta_p^Tr(x)."""
    return CycloNum.zeta_pow(field.p, field.trace(x))


def root_sum(field: gf.Field, roots, a: int, b: int, a2: int = 0, b2: int = 0) -> list:
    """Count vector of the sum of phi(a2*z^2 + a*z + b/z + b2/z^2) over the
    units z in roots: entry r is the number of them whose argument has trace r.

    The caller holds the roots (rth_roots of a unit, a root-table row, or
    F.units()); each is evaluated from the field's tables alone.
    """
    A, M, I, T = field._add, field._mul, field._inv, field._trace
    ma, mb, ma2, mb2 = M[a], M[b], M[a2], M[b2]
    counts = [0] * field.p
    for z in roots:
        iz = I[z]
        counts[T[A[A[ma[z]][mb[iz]]][A[ma2[M[z][z]]][mb2[M[iz][iz]]]]]] += 1
    return counts


@lru_cache(maxsize=None)
def square_counts(field: gf.Field) -> tuple:
    """Entry r is #{x in F_q : Tr(x^2) = r}, so G = sum_r entry_r zeta^r."""
    counts = root_sum(field, field.units(), 0, 0, a2=1)
    counts[0] += 1  # x = 0
    return tuple(counts)


@lru_cache(maxsize=None)
def kloosterman_counts(field: gf.Field) -> tuple:
    """Row c, entry r is #{w in F_q^* : Tr(w + c/w) = r}: the count vector of
    the Kloosterman sum over w of phi(w + c/w).  Row 0 counts Tr(u) over units.

    For units a, b, w -> w/a turns the sum over w of phi(a w + b/w) into row
    ab; when exactly one of a, b is 0 that sum is row 0.
    """
    units = field.units()
    return tuple(tuple(root_sum(field, units, 1, c)) for c in field.elements())


@lru_cache(maxsize=None)
def gauss_sum(field: gf.Field) -> CycloNum:
    """G = sum over x in F_q of phi(x^2); 0 in characteristic 2.

    Computed once per field; the shared CycloNum is immutable.
    """
    return CycloNum.from_zeta_counts(field.p, square_counts(field))


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
    roots = field.rth_roots(B, l)
    return CycloNum.from_zeta_counts(field.p, root_sum(field, roots, a, b, ap, bp))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
