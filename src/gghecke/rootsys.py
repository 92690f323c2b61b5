"""Rank-2 root data and Weyl groups for the adjoint types A2 and B2.

Roots are integer coefficient pairs (c1, c2) over the simple roots alpha1,
alpha2, indexed 1..2N with the positive roots first in the fixed order

    A2: alpha1, alpha2, alpha1+alpha2
    B2: alpha1, alpha2, alpha1+alpha2, 2*alpha1+alpha2   (alpha1 short)

and alpha_{N+i} = -alpha_i.  Weyl elements carry a canonical reduced word
(lexicographically least), which is also the stored lift word downstream; for
the four coset representatives w_0, w_1, w_2, w_3 this canonical word equals
the fixed lift word (checked in tests).

>>> rs = root_system("B2")
>>> rs.pos
((1, 0), (0, 1), (1, 1), (2, 1))
>>> W = weyl_group("B2")
>>> [w.digits() for w in W.basis_elements()]
['1212', '212', '121', '']
"""

from enum import IntEnum
from functools import lru_cache
from operator import attrgetter


class Cmp(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


LESS, EQUAL, GREATER = Cmp.LESS, Cmp.EQUAL, Cmp.GREATER

_DATA = {
    # cartan[i-1][j-1] = <alpha_j, alpha_i^vee>
    "A2": {
        "pos": ((1, 0), (0, 1), (1, 1)),
        "cartan": ((2, -1), (-1, 2)),
        "norm": {(1, 0): 2, (0, 1): 2, (1, 1): 2},
    },
    "B2": {
        "pos": ((1, 0), (0, 1), (1, 1), (2, 1)),
        "cartan": ((2, -2), (-1, 2)),
        "norm": {(1, 0): 2, (0, 1): 4, (1, 1): 2, (2, 1): 4},
    },
}


class Record:
    """Immutable record over __slots__, built from its _fields in order, equal
    and hashed by those named in the class keyword compare (default all)."""

    __slots__ = ()

    def __init_subclass__(cls, compare=None):
        cls._key = attrgetter(*(compare or cls._fields))

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({inner})"


class RootSystem(Record):
    __slots__ = _fields = ("tag", "pos", "cartan")

    @property
    def n_pos(self) -> int:
        return len(self.pos)

    def root(self, idx: int) -> tuple[int, int]:
        """Coefficient pair of root number idx (1..2N)."""
        n = self.n_pos
        if 1 <= idx <= n:
            return self.pos[idx - 1]
        if n < idx <= 2 * n:
            c1, c2 = self.pos[idx - n - 1]
            return (-c1, -c2)
        raise ValueError(f"root index {idx} out of range")

    def index(self, pair: tuple[int, int]) -> int:
        n = self.n_pos
        for i, r in enumerate(self.pos):
            if r == pair:
                return i + 1
            if (-r[0], -r[1]) == pair:
                return i + 1 + n
        raise ValueError(f"{pair} is not a root of {self.tag}")

    def is_root(self, pair: tuple[int, int]) -> bool:
        return pair in self.pos or (-pair[0], -pair[1]) in self.pos

    def pairing(self, pair: tuple[int, int], i: int) -> int:
        """<beta, alpha_i^vee> for beta given by its coefficient pair."""
        c1, c2 = pair
        return c1 * self.cartan[i - 1][0] + c2 * self.cartan[i - 1][1]

    def reflect(self, i: int, idx: int) -> int:
        """Index of s_i(alpha_idx)."""
        c1, c2 = self.root(idx)
        k = self.pairing((c1, c2), i)
        if i == 1:
            return self.index((c1 - k, c2))
        return self.index((c1, c2 - k))

    def norm(self, idx: int) -> int:
        """(beta, beta), normalized so short roots have norm 2."""
        c1, c2 = self.root(idx)
        if c1 < 0 or (c1 == 0 and c2 < 0):
            c1, c2 = -c1, -c2
        return _DATA[self.tag]["norm"][(c1, c2)]


class WeylElem(Record, compare=("perm",)):
    """Group element as a permutation of root indices, plus canonical word."""

    _fields = ("perm", "word")
    __slots__ = _fields + ("_hash",)

    def __init__(self, perm: tuple, word: tuple):
        super().__init__(perm, word)
        object.__setattr__(self, "_hash", hash((perm,)))  # dict keys: hash once

    def __hash__(self) -> int:
        return self._hash

    def length(self) -> int:
        return len(self.word)

    def digits(self) -> str:
        return "".join(str(i) for i in self.word)

    def __repr__(self) -> str:
        return f"WeylElem({self.digits() or 'e'})"


class WeylGroup:
    """The Weyl group of a rank-2 root system, fully tabulated."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n2 = 2 * rs.n_pos
        id_perm = tuple(range(1, n2 + 1))
        gens = {
            i: tuple(rs.reflect(i, idx) for idx in range(1, n2 + 1)) for i in (1, 2)
        }
        # BFS in lex order; first discovery yields the lex-least reduced word.
        elems: dict[tuple[int, ...], WeylElem] = {}
        order: list[WeylElem] = []
        e = WeylElem(id_perm, ())
        elems[id_perm] = e
        order.append(e)
        qi = 0
        while qi < len(order):
            cur = order[qi]
            qi += 1
            for i in (1, 2):
                # right multiplication by s_i: (w s_i)(beta) = w(s_i beta)
                newp = tuple(cur.perm[gens[i][k] - 1] for k in range(n2))
                if newp not in elems:
                    ne = WeylElem(newp, cur.word + (i,))
                    elems[newp] = ne
                    order.append(ne)
        self.elements: tuple[WeylElem, ...] = tuple(order)
        self.identity = e
        self._simple = {i: elems[gens[i]] for i in (1, 2)}
        # products and inverses, keyed by permutations: (ab)(beta) = a(b(beta))
        self._mult = {
            (a.perm, b.perm): elems[tuple(a.perm[k - 1] for k in b.perm)]
            for a in order for b in order
        }
        self._inv = {a.perm: b for a in order for b in order if self._mult[a.perm, b.perm] is e}

    def simple(self, i: int) -> WeylElem:
        return self._simple[i]

    def mult(self, a: WeylElem, b: WeylElem) -> WeylElem:
        return self._mult[a.perm, b.perm]

    def inv(self, a: WeylElem) -> WeylElem:
        return self._inv[a.perm]

    def act(self, w: WeylElem, idx: int) -> int:
        return w.perm[idx - 1]

    def from_word(self, word) -> WeylElem:
        out = self.identity
        for i in word:
            out = self.mult(out, self._simple[i])
        return out

    def longest(self) -> WeylElem:
        return max(self.elements, key=lambda w: w.length())

    def basis_elements(self) -> tuple[WeylElem, ...]:
        """(w_0, w_1, w_2, w_3): longest coset representatives, fixed lifts."""
        if self.rs.tag == "A2":
            words = ((1, 2, 1), (1, 2), (2, 1), ())
        else:
            words = ((1, 2, 1, 2), (2, 1, 2), (1, 2, 1), ())
        return tuple(self.from_word(w) for w in words)

    def inversions(self, w: WeylElem) -> tuple[int, ...]:
        """Positive root indices sent negative by w."""
        n = self.rs.n_pos
        return tuple(i for i in range(1, n + 1) if w.perm[i - 1] > n)

    def descent(self, w: WeylElem, s: int, y: WeylElem) -> Cmp:
        """Compare l(s_s * w * y) with l(w * y); s = 0 is the identity."""
        if s == 0:
            return EQUAL
        wy = self.mult(w, y)
        swy = self.mult(self._simple[s], wy)
        d = swy.length() - wy.length()
        return LESS if d < 0 else GREATER


@lru_cache(maxsize=None)
def root_system(tag: str) -> RootSystem:
    if tag not in _DATA:
        raise ValueError(f"unsupported type {tag!r}; expected 'A2' or 'B2'")
    d = _DATA[tag]
    return RootSystem(tag, d["pos"], d["cartan"])


@lru_cache(maxsize=None)
def weyl_group(tag: str) -> WeylGroup:
    return WeylGroup(root_system(tag))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
