"""Adjoint Chevalley groups of types A2 and B2 over a small finite field,
with exact rewriting to Bruhat normal form.

Normal form is g = u * t * n_w * u', where u lies in U (coordinates over the
positive roots in the fixed order), t lies in the adjoint torus T = (F_q^*)^2
recorded by its character values (chi(alpha1), chi(alpha2)), n_w is the
canonical lift of w (product of n_i(1) over the canonical reduced word; the
braid relations make the lift word-independent), and u' is supported on the
inversion set of w.

Generators: u_alpha(x) for every root alpha, n_i(t) =
u_i(t) u_{-i}(-1/t) u_i(t) for simple i, and the fundamental-coweight
cocharacters t_1(l), t_2(l) with chi(alpha_j) = l^{delta_ij}.  The
Chevalley commutator formula (Carter, Simple Groups of Lie Type, ch. 5)
gives, for the positive root elements,

    u1(x) u2(z) u1(-x) = u2(z) u3(xz)              (A2)
    u1(x) u2(z) u1(-x) = u2(z) u3(xz) u4(x^2 z)    (B2)
    u1(x) u3(z) u1(-x) = u3(z) u4(2xz)             (B2)

(all other positive pairs commute), so U has a closed-form coordinate law.
Coordinates (a1, ..., aN) stand for u1(a1) ... uN(aN); a right factor
u_k(c) adds c to a_k, and for k = 1 first moves past u2 and u3:

    A2:  (a1 + c, a2, a3 - a2 c)
    B2:  (a1 + c, a2, a3 - a2 c, a4 + a2 c^2 - 2 a3 c)

Each w splits U as U_out U_in, over the positive roots that w keeps
positive and those it inverts.  Going from the fixed order to that order
only u1 ever moves right: past u2, and in B2 also past u3 when w keeps
alpha1 + alpha2.  So a table over w gives u = u_out u_in in closed form
(`_split`).  Absorbing n_i splits off the alpha_i factor by the law itself:
u' = v u_i(c_i) with v = u' u_i(-c_i).  The torus scales root coordinates
by chi(alpha1)^c1 chi(alpha2)^c2 for beta = c1 alpha1 + c2 alpha2, and n_i
conjugates n_i u_beta(c) n_i^{-1} = u_{s_i beta}(eta_i(beta) c).
The 28 signs eta (12 for A2, 16 for B2) are the engine's only free data and
are kept as the literal table `_ETA`.  tests/test_chevalley.py pins every
entry: it builds the adjoint Lie algebra from the structure constants that the
relations above fix, checks the Jacobi identity, and reads each eta off the
matrix of Ad(n_i(1)), together with n_i^2 = h_i(-1).
"""

from functools import lru_cache
from itertools import product

from .gf import Field
from .rootsys import Record, RootSystem, WeylElem, WeylGroup, root_system, weyl_group

# eta[(i, idx)] with n_i u_idx(c) n_i^{-1} = u_{s_i idx}(eta c); root indices
# as in rootsys (1..N positive, N+1..2N their negatives)
_ETA = {
    "A2": {
        (1, 1): -1, (1, 2): 1, (1, 3): -1, (1, 4): -1, (1, 5): 1, (1, 6): -1,
        (2, 1): -1, (2, 2): -1, (2, 3): 1, (2, 4): -1, (2, 5): -1, (2, 6): 1,
    },
    "B2": {
        (1, 1): -1, (1, 2): 1, (1, 3): -1, (1, 4): 1,
        (1, 5): -1, (1, 6): 1, (1, 7): -1, (1, 8): 1,
        (2, 1): -1, (2, 2): -1, (2, 3): 1, (2, 4): 1,
        (2, 5): -1, (2, 6): -1, (2, 7): 1, (2, 8): 1,
    },
}


class GroupElem(Record, compare=("u", "t", "w", "u2")):
    """Bruhat normal form u * t * n_w * u'.  Immutable."""

    __slots__ = _fields = ("group", "u", "t", "w", "u2")

    def __init__(self, group: "Group", u, t, w: WeylElem, u2):
        inv = group.inv_set(w)
        if any(c and (i + 1) not in inv for i, c in enumerate(u2)):
            raise ValueError("u' has support outside the inversion set")
        if t[0] == 0 or t[1] == 0:
            raise ValueError("torus coordinates must be units")
        super().__init__(group, tuple(u), tuple(t), w, tuple(u2))

    def key(self):
        return (self.u, self.t, self.w.perm, self.u2)

    def __repr__(self):
        return (
            f"GroupElem(u={self.u}, t={self.t}, w={self.w.digits() or 'e'},"
            f" u2={self.u2})"
        )

    def to_dict(self) -> dict:
        return {
            "u": list(self.u),
            "t": list(self.t),
            "w": self.w.digits(),
            "u2": list(self.u2),
        }


class Group:
    """Rewriting engine for one (type, field) pair."""

    def __init__(self, tag: str, field: Field):
        if tag == "B2" and field.p == 2:
            raise ValueError("type B2 requires odd characteristic")
        self.tag = tag
        self.F = field
        self.rs: RootSystem = root_system(tag)
        self.W: WeylGroup = weyl_group(tag)
        self.N = self.rs.n_pos
        F = field
        # chi_at reads root coefficients and powers x^e (e in -2..2) of every unit;
        # _absorb_n reads the powers by Cartan entries, which lie in -2..2
        self._coef = {i: self.rs.root(i) for i in range(1, 2 * self.N + 1)}
        self._pow = {e: (0,) + tuple(F.pow(x, e) for x in F.units()) for e in range(-2, 3)}
        self._two = F.of(2)
        # h_i(-1) = n_i^2: -1 raised to row i of the Cartan matrix
        neg1 = F.neg(F.of(1))
        self._h_neg1 = {
            i: tuple(F.pow(neg1, c) for c in self.rs.cartan[i - 1]) for i in (1, 2)
        }
        self._eta = {key: F.of(v) for key, v in _ETA[tag].items()}
        self._refl = {
            i: {idx: self.rs.reflect(i, idx) for idx in range(1, 2 * self.N + 1)}
            for i in (1, 2)
        }
        self._inv_sets = {
            w: frozenset(self.W.inversions(w)) for w in self.W.elements
        }
        # per w: inversion-set mask, whether u1 moves right past u2 only (2),
        # past u2 and u3 (3), or stays first (0) in u = u_out * u_in, and
        # whether w inverts no positive root (1) or all of them (2)
        self._splits = {}
        self._zeros = (0,) * self.N
        for w, inv in self._inv_sets.items():
            move = 0 if 1 not in inv or 2 in inv else (2 if 3 in inv else 3)
            whole = 1 if not inv else (2 if len(inv) == self.N else 0)
            self._splits[w] = (tuple(k in inv for k in range(1, self.N + 1)), move, whole)
        # for each non-simple positive root, a simple reflection lowering it
        self._desc = {}
        for g in range(3, self.N + 1):
            for i in (1, 2):
                if self.rs.pairing(self.rs.root(g), i) > 0:
                    self._desc[g] = i
                    break
        self._id = GroupElem(self, (0,) * self.N, (1, 1), self.W.identity, (0,) * self.N)
        self._lifts = {
            w: self.normal_form([("n", i, 1) for i in w.word]) for w in self.W.elements
        }

    def __reduce__(self):  # copies and pickles are the one engine of the pair
        return chevalley_group, (self.tag, self.F)

    # -- torus helpers ----------------------------------------------------------

    def chi_at(self, t, idx: int) -> int:
        """chi_t evaluated at the root with index idx."""
        c1, c2 = self._coef[idx]
        return self.F.mul(self._pow[c1][t[0]], self._pow[c2][t[1]])

    def inv_set(self, w: WeylElem) -> frozenset:
        return self._inv_sets[w]

    # -- the coordinate law on U ----------------------------------------------------

    def _times(self, u, k, c):
        """u * u_k(c), in place on the coordinate list u."""
        F = self.F
        if k == 1:
            a2, a3 = u[1], u[2]
            if self.N == 4 and (a2 or a3):
                # a4 + a2 c^2 - 2 a3 c
                u[3] = F.add(u[3], F.mul(F.sub(F.mul(a2, c), F.mul(self._two, a3)), c))
            if a2:
                u[2] = F.sub(a3, F.mul(a2, c))
        u[k - 1] = F.add(u[k - 1], c)

    def _split(self, w, u):
        """(u_out, u_in) with u = u_out * u_in, u_in on the inversion set of w.
        At w = e and w = w0 one side is zero and the other is u itself."""
        mask, move, whole = self._splits[w]
        if whole:
            return (u, self._zeros) if whole == 1 else (self._zeros, u)
        a1 = u[0]
        if move and a1:
            F = self.F
            a2, a3 = u[1], u[2]
            u = list(u)
            u[2] = F.add(a3, F.mul(a1, a2))
            if self.N == 4:
                if move == 2:  # u1 u2 = u2 u1 u3(a1 a2) u4(-a1^2 a2)
                    u[3] = F.sub(u[3], F.mul(F.mul(a1, a1), a2))
                else:  # ... then u1 u3(x) = u3(x) u1 u4(2 a1 x)
                    u[3] = F.add(u[3], F.mul(a1, F.add(F.mul(self._two, a3), F.mul(a1, a2))))
        return (
            [0 if m else x for x, m in zip(u, mask)],
            [x if m else 0 for x, m in zip(u, mask)],
        )

    def _conj_n_fwd(self, i, items):
        """n_i * x * n_i^{-1} per atom."""
        F, eta, refl = self.F, self._eta, self._refl[i]
        return [(refl[idx], F.mul(eta[(i, idx)], c)) for idx, c in items]

    def _conj_n_back(self, i, items):
        """n_i^{-1} * x * n_i per atom."""
        F, eta, refl = self.F, self._eta, self._refl[i]
        return [(refl[idx], F.mul(eta[(i, refl[idx])], c)) for idx, c in items]

    # -- absorption into normal form ------------------------------------------------

    def _absorb(self, st, atom):
        kind = atom[0]
        if kind == "u":
            _, idx, c = atom
            if idx <= self.N:
                self._absorb_u_pos(st, idx, c)
            else:
                self._absorb_u_neg(st, idx, c)
        elif kind == "T":
            self._absorb_torus(st, atom[1], atom[2])
        elif kind == "n":
            self._absorb_n(st, atom[1], atom[2])
        else:
            raise ValueError(f"unknown atom {atom!r}")

    def _absorb_u_pos(self, st, idx, c):
        if c == 0:
            return
        u, t, w, u2 = st
        u2 = list(u2)
        self._times(u2, idx, c)
        out, inn = self._split(w, u2)
        a = [(k + 1, x) for k, x in enumerate(out) if x]
        if a:
            for letter in reversed(w.word):
                a = self._conj_n_fwd(letter, a)
            F = self.F
            u = list(u)
            for k, v in a:
                if k > self.N:
                    raise AssertionError("conjugated complement left U")
                self._times(u, k, F.mul(self.chi_at(t, k), v))
            st[0] = u
        st[3] = inn

    def _absorb_u_neg(self, st, idx, c):
        if c == 0:
            return
        F = self.F
        g = idx - self.N
        if g in (1, 2):
            y = F.inv(c)
            self._absorb_u_pos(st, g, y)
            self._absorb_n(st, g, F.neg(y))
            self._absorb_u_pos(st, g, y)
            return
        i = self._desc[g]
        delta = self._refl[i][g]
        eta = self._eta[(i, idx)]
        self._absorb_n(st, i, F.neg(F.of(1)))
        self._absorb_u_neg(st, delta + self.N, F.mul(eta, c))
        self._absorb_n(st, i, 1)

    def _absorb_torus(self, st, chi1, chi2):
        u, t, w, u2 = st
        F = self.F
        tp = (chi1, chi2)
        winv = self.W.inv(w)
        st[1] = [
            F.mul(t[0], self.chi_at(tp, self.W.act(winv, 1))),
            F.mul(t[1], self.chi_at(tp, self.W.act(winv, 2))),
        ]
        st[3] = [F.mul(F.inv(self.chi_at(tp, i + 1)), c) if c else 0 for i, c in enumerate(u2)]

    def _absorb_n(self, st, i, c):
        F = self.F
        if c == 0:
            raise ValueError("n_i(0) is undefined")
        if c != 1:
            cart = self.rs.cartan[i - 1]
            self._absorb_torus(st, self._pow[cart[0]][c], self._pow[cart[1]][c])
        u, t, w, u2 = st
        # u2 = v * u_i(ci) with v = u2 * u_i(-ci)
        v = list(u2)
        ci = v[i - 1]
        if ci:
            self._times(v, i, F.neg(ci))
        wnew = self.W.mult(w, self.W.simple(i))
        decreasing = self.W.act(w, i) > self.N
        if ci and not decreasing:
            raise AssertionError("alpha_i coordinate in u' outside inversion set")
        if ci == 0:
            st[2] = wnew
            st[3] = [0] * self.N
            for k, x in self._conj_n_back(i, [(k + 1, x) for k, x in enumerate(v) if x]):
                self._times(st[3], k, x)
            if decreasing:
                # n_w = n_{wnew} n_i, and the leftover n_i^2 = h_i(-1) moves into t
                h = self._h_neg1[i]
                winv = self.W.inv(wnew)
                tt = st[1]
                st[1] = [
                    F.mul(tt[0], self.chi_at(h, self.W.act(winv, 1))),
                    F.mul(tt[1], self.chi_at(h, self.W.act(winv, 2))),
                ]
            return
        # u_i(ci) n_i = n_i u_{-i}(-ci), then expand the negative root element
        st[3] = v
        self._absorb_n(st, i, 1)
        y = F.neg(F.inv(ci))
        self._absorb_u_pos(st, i, y)
        self._absorb_n(st, i, F.inv(ci))
        self._absorb_u_pos(st, i, y)

    # -- public API ------------------------------------------------------------------

    def identity(self) -> GroupElem:
        return self._id

    def normal_form(self, word, start: GroupElem | None = None) -> GroupElem:
        """start * word in normal form; start defaults to the identity."""
        g = self._id if start is None else start
        self._check(g)
        st = [list(g.u), list(g.t), g.w, list(g.u2)]
        for atom in word:
            self._absorb(st, atom)
        return GroupElem(self, st[0], st[1], st[2], st[3])

    def expansion(self, g: GroupElem):
        """A generator word multiplying back to g."""
        self._check(g)
        atoms = [("u", i + 1, c) for i, c in enumerate(g.u) if c]
        if g.t != (1, 1):
            atoms.append(("T", g.t[0], g.t[1]))
        atoms.extend(("n", i, 1) for i in g.w.word)
        atoms.extend(("u", i + 1, c) for i, c in enumerate(g.u2) if c)
        return atoms

    def multiply(self, g: GroupElem, *hs: GroupElem) -> GroupElem:
        return self.normal_form([a for h in hs for a in self.expansion(h)], start=g)

    def invert(self, g: GroupElem) -> GroupElem:
        F = self.F
        atoms = []
        for kind, a, b in reversed(self.expansion(g)):
            if kind == "T":
                atoms.append(("T", F.inv(a), F.inv(b)))
            else:  # u_i(c)^-1 = u_i(-c) and n_i(c)^-1 = n_i(-c)
                atoms.append((kind, a, F.neg(b)))
        return self.normal_form(atoms)

    def _check(self, g: GroupElem):
        if g.group.F != self.F or g.group.tag != self.tag:
            raise ValueError("element belongs to a different group")

    def unipotent(self, coords) -> GroupElem:
        coords = tuple(coords)
        if len(coords) != self.N:
            raise ValueError(f"need {self.N} coordinates")
        return GroupElem(self, coords, (1, 1), self.W.identity, (0,) * self.N)

    def torus(self, chi1: int, chi2: int) -> GroupElem:
        return GroupElem(self, (0,) * self.N, (chi1, chi2), self.W.identity, (0,) * self.N)

    def lift(self, w: WeylElem) -> GroupElem:
        return self._lifts[w]

    def delta_coords(self, u) -> tuple[int, int]:
        """Simple-root coordinates; a homomorphism U -> (F_q, +)^2."""
        coords = u.u if isinstance(u, GroupElem) else u
        return (coords[0], coords[1])

    def iter_elements(self):
        """Every normal form, exactly once."""
        F, n = self.F, self.N
        for w in self.W.elements:
            inv = sorted(self._inv_sets[w])
            for t in product(F.units(), repeat=2):
                for u in product(F.elements(), repeat=n):
                    for vals in product(F.elements(), repeat=len(inv)):
                        u2 = [0] * n
                        for idx, x in zip(inv, vals):
                            u2[idx - 1] = x
                        yield GroupElem(self, u, t, w, u2)

    def order(self) -> int:
        q = self.F.q
        return (
            q**self.N
            * (q - 1) ** 2
            * sum(q ** w.length() for w in self.W.elements)
        )


@lru_cache(maxsize=None)
def chevalley_group(tag: str, field: Field) -> Group:
    return Group(tag, field)
