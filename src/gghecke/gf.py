"""Arithmetic in small finite fields F_q, q = p^f.

Elements are integer codes 0..q-1.  The code of an element with polynomial
coordinates (c_0, ..., c_{f-1}) over F_p is sum(c_i * p^i), little-endian, so
codes 0..p-1 are the prime subfield and arithmetic on them matches Z/p.

Fields are built once and carry dense lookup tables for add/mul/neg/inv and
the absolute trace, which keeps the group-rewriting layers free of polynomial
work.  A code is (code // p) * x + code % p, so each table row follows from
those of smaller codes, with one reduction mod the modulus per element and no
polynomial product: about 0.1 s at q = 512 (CPython 3.11, one Xeon VM core).
Intended for q up to a few hundred; construction refuses larger q.

>>> F4 = make_field(2, 2)
>>> F4.modulus          # x^2 + x + 1, little-endian coefficients
(1, 1, 1)
>>> F4.trace(2)         # the class of x generates F_4; Tr(x) = 1
1
>>> F9 = make_field(3, 2)
>>> F9.modulus          # x^2 + 1 is the least irreducible over F_3
(1, 0, 1)
>>> F9.trace(3)         # i = class of x, i^2 = -1; Tr(i) = i + i^3 = 0
0
"""

from collections.abc import Iterable
from functools import lru_cache

_MAX_Q = 512


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Dense polynomials over F_p, little-endian coefficient tuples.


def _pmod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _poly_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg(m)//2."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            cand = _decode_poly(code, p, d) + (1,)
            if not _pmod(m, cand, p):
                return False
    return True


def _decode_poly(code: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return tuple(out)


class Field:
    """Immutable F_q with dense operation tables; elements are int codes."""

    __slots__ = (
        "p", "f", "q", "modulus",
        "_add", "_mul", "_neg", "_inv", "_trace", "_squares",
        "_roots_cache",
    )

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        q = self.q
        # a code is (code // p) * x + code % p, so every table follows from
        # the rows of smaller codes, filled in increasing order
        add = [list(range(q))]
        for a in range(1, q):
            hi, lo = add[a // p], a % p
            add.append([p * hi[b // p] + (lo + b) % p for b in range(q)])
        neg = [0]
        for a in range(1, q):
            neg.append(p * neg[a // p] + (-a) % p)
        # x * c: c's coordinates shifted up a degree, reduced once
        xc = [sum(d * p**i for i, d in enumerate(_pmod((0,) + _decode_poly(c, p, f), modulus, p)))
              for c in range(q)]
        mul = []
        for a in range(q):
            row = [0]  # d * a for d < p, then a * b = x * (a * (b // p)) + (b % p) * a
            for _ in range(1, p):
                row.append(add[row[-1]][a])
            for b in range(p, q):
                row.append(add[xc[row[b // p]]][row[b % p]])
            mul.append(row)
        self._add, self._neg, self._mul = add, neg, mul
        self._inv = [0] + [row.index(1) for row in mul[1:]]
        tr = []
        for a in range(q):
            s, x = 0, a
            for _ in range(f):
                s = self._add[s][x]
                x = self.pow(x, p)
            # the trace lies in the prime subfield, where code == residue
            tr.append(s)
        self._trace = tr
        self._squares = frozenset(self._mul[a][a] for a in range(q))
        self._roots_cache = {}

    # -- basic ops ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return self._mul[a][self._inv[b]]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        r, base = 1, a
        while n:
            if n & 1:
                r = self._mul[r][base]
            base = self._mul[base][base]
            n >>= 1
        return r

    def of(self, n: int) -> int:
        """Embed an integer through Z -> F_p <= F_q."""
        return n % self.p

    def coeffs(self, a: int) -> tuple[int, ...]:
        return _decode_poly(a, self.p, self.f)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- field-theoretic queries --------------------------------------------

    def trace(self, a: int) -> int:
        """Absolute trace F_q -> F_p, returned as a residue 0..p-1."""
        return self._trace[a]

    def is_square(self, a: int) -> bool:
        return a in self._squares or a == 0

    def rth_roots(self, a: int, r: int) -> frozenset[int]:
        """All y with y^r = a.  {0} for a = 0; empty or gcd(r, q-1) solutions otherwise."""
        if r < 1:
            raise ValueError("r must be >= 1")
        if a == 0:
            return frozenset((0,))
        cache = self._roots_cache
        if r not in cache:
            table: dict[int, list[int]] = {}
            for y in range(1, self.q):
                table.setdefault(self.pow(y, r), []).append(y)
            cache[r] = {x: frozenset(ys) for x, ys in table.items()}
        return cache[r].get(a, frozenset())

    # -- plumbing ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"p": self.p, "f": self.f, "modulus": list(self.modulus)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.f, self.modulus))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, f={self.f}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def _make_field_cached(p: int, f: int, modulus: tuple[int, ...]) -> Field:
    return Field(p, f, modulus)


def make_field(p: int, f: int = 1, modulus: Iterable[int] | None = None) -> Field:
    """Construct F_{p^f}.

    When no modulus is given the lex-least monic irreducible of degree f is
    chosen (least integer code of the non-leading coefficient vector), so the
    construction is deterministic.

    >>> make_field(5).q
    5
    >>> make_field(2, 3).modulus      # x^3 + x + 1
    (1, 1, 0, 1)
    >>> make_field(4)
    Traceback (most recent call last):
        ...
    ValueError: p must be prime, got 4
    """
    if f < 1:
        raise ValueError(f"f must be >= 1, got {f}")
    # bound first, so neither p**f nor the primality test grows with the
    # input; 2^f alone exceeds the bound once f >= its bit length
    if p > _MAX_Q or f >= _MAX_Q.bit_length() or p**f > _MAX_Q:
        raise ValueError(f"q = {p}^{f} exceeds the supported bound {_MAX_Q}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if modulus is None:
        if f == 1:
            mod = (0, 1)
        else:
            for code in range(p**f):
                cand = _decode_poly(code, p, f) + (1,)
                if _poly_irreducible(cand, p):
                    mod = cand
                    break
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != f + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if f >= 2 and not _poly_irreducible(mod, p):
            raise ValueError(f"modulus {mod} is reducible over F_{p}")
    return _make_field_cached(p, f, mod)


def field_from_dict(d: dict) -> Field:
    return make_field(d["p"], d["f"], tuple(d["modulus"]))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
