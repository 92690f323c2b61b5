"""Hecke algebra of a Gelfand-Graev representation in rank 2.

The character psi of U factors through the two simple-root coordinates.
The algebra e*QG*e has a basis indexed by pairs (w, t) with w one of the
four basis Weyl elements and t restricted by a compatibility condition;
the basis is computed from that condition, never hard-coded.  Structure
constants are sums of psi-values over the coset representatives produced
by intersect; a product walks every ratio of its kind pair's sweep plan once.
generation_expand expands e_0(x, y) through e_1, e_2 products.
"""

import gc
from collections import defaultdict
from functools import lru_cache
from operator import itemgetter

from .chevalley import GroupElem, chevalley_group
from .cyclo import CycloNum, phi, root_sum  # root_sum: perfbench/tracer.py wraps it here
from .gf import Field
from .intersect import distinguished_subexprs, intersect, rep_entries
from .rootsys import WeylElem

__all__ = ["BasisElem", "HeckeVec", "HeckeAlgebra", "hecke_algebra"]

_ARITY = {0: 2, 1: 1, 2: 1, 3: 0}


class BasisElem(tuple):
    """Point e_kind(params): kind 0 <-> (a,b), 1 <-> c, 2 <-> d, 3 <-> unit.  It is
    the flat tuple (kind, *params), equal to and hashed as that tuple."""

    __slots__ = ()

    def __new__(cls, kind: int, params=()):
        if kind not in _ARITY:
            raise ValueError("kind must be 0..3")
        b = tuple.__new__(cls, (kind, *params))
        if len(b) != _ARITY[kind] + 1:
            raise ValueError("wrong parameter count for kind")
        return b

    kind = property(itemgetter(0))
    params = property(itemgetter(slice(1, None)))

    def __getnewargs__(self):
        return self.kind, self.params

    def __repr__(self) -> str:
        return f"e{self.kind}({','.join(str(p) for p in self.params)})"


class HeckeVec:
    """Finitely supported BasisElem -> CycloNum mapping."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in dict(coeffs or {}).items() if any(v)}

    def get(self, b: BasisElem, p: int) -> CycloNum:
        return self.coeffs.get(b) or CycloNum.zero(p)  # the zero only on a miss

    def items(self):
        return self.coeffs.items()

    def __add__(self, other: "HeckeVec") -> "HeckeVec":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return HeckeVec(out)

    def scale(self, c: CycloNum) -> "HeckeVec":
        return HeckeVec({k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeVec) and self.coeffs == other.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        inner = " + ".join(f"({v.render()})*{k!r}" for k, v in sorted(self.coeffs.items()))
        return inner or "0"


class _Points(dict):
    """Basis point (w, t) -> (its index in the basis, t, (chi_t(w^-1 alpha_1),
    chi_t(w^-1 alpha_2))); a point not in the basis has a non-unit parameter."""

    def __missing__(self, b):
        raise ValueError("basis parameters must be units")


class HeckeAlgebra:
    def __init__(self, tag: str, field: Field):
        self.tag, self.F, self.G = tag, field, chevalley_group(tag, field)
        self.W = self.G.W
        self._bw = self.W.basis_elements()
        self._lengths = tuple(w.length() for w in self._bw)
        chi, self._tor, self._reptables = self.G.chi_at, _Points(), {}
        # y^-1 alpha_s by kind (the group's conjugation table): a point's characters, a twist
        self._roots = roots = [self.G._conj[y][0] for y in self._bw]
        for n, (b, t) in enumerate(self._compute_basis()):
            r1, r2 = roots[b.kind]
            self._tor[b] = (n, t, (chi(t, r1), chi(t, r2)))
        self.basis = tuple(self._tor)
        # row c is x -> trace(c*x); the trace is F_p-linear, so the trace of
        # a psi-argument is the sum of these rows over its terms, mod p
        F = field
        self._tr = tr = [[F.trace(F.mul(c, x)) for x in F.elements()] for c in F.elements()]
        # the pair row of a unit pair c, made on first use: x1*q + x2 -> Tr(c1*x1) + Tr(c2*x2)
        self._pair_row = lru_cache(maxsize=None)(
            lambda c: tuple([a + b for a in tr[c[0]] for b in tr[c[1]]]))
        self._zero = CycloNum.zero(F.p)  # every fast-path zero, shared: a CycloNum is immutable
        self._folds = {}  # the fast path's constants by zeta-count vector: few are distinct
        # the closed forms load on the first table_formula; a plain attribute, as a
        # cached_property reads __dict__, which slows every later attribute read
        self._closed_form = self._first_closed_form
        # row c1 of the route keys (c1, c2), made on first use: one tuple per key, shared by routes
        self._keys = lru_cache(maxsize=None)(lambda c1: [(c1, c2) for c2 in range(F.q)])
        self._at = lru_cache(maxsize=None)(lambda x_kind: [None] * F.q**2)  # routes' at, by x kind
        self._route = lru_cache(maxsize=None)(self._build_route)  # by (x kind, z kind)
        self._plan = lru_cache(maxsize=None)(self._build_plan)  # by (i kind, j kind)

    # -- basis ---------------------------------------------------------------

    def _compatible_tori(self, w: WeylElem) -> list:
        """The torus pairs t, in field order, with ^n psi = psi on U meet nUn^{-1}
        for n = lift(w) t, tested on its root-group generators u = u_k(c).  Each
        u is conjugated once: n^{-1} u n = t^{-1} v t for v = lift(w)^{-1} u lift(w),
        a single root element u_{w^{-1} k}(+-c) in U, and t^{-1} u_k(x) t =
        u_k(x / chi_t(alpha_k)), so psi(n^{-1} u n) = psi(u) when Tr(v_1 / t_1 +
        v_2 / t_2) = Tr(u_1 + u_2), as phi = zeta^Tr.  Each check reads one of
        t_1, t_2 or neither, so each coordinate is scanned once on its own."""
        G, F, roots = self.G, self.F, range(1, self.G.N + 1)
        add, div, tr = F.add, F.div, F.trace
        lift = G.lift(w)
        linv, inverted = G.invert(lift), G.inv_set(self.W.inv(w))
        checks = ([], [], [])  # (v_s, Tr(u_1 + u_2)) of the checks reading t_1, t_2, neither
        for u in (G.unipotent([c if i == k else 0 for i in roots])
                  for k in roots if k not in inverted for c in F.units()):
            v = G.multiply(linv, u, lift)
            if v.w.length() or v.t != (1, 1) or any(v.u2):
                raise AssertionError("conjugate left U")
            support = [s for s, x in enumerate(v.u) if x]
            if len(support) != 1:
                raise AssertionError("conjugate is not a single root element")
            s = support[0]
            checks[min(s, 2)].append((v.u[s], tr(add(u.u[0], u.u[1]))))
        if any(want for _, want in checks[2]):
            return []  # psi(n^{-1} u n) = psi(1) != psi(u) whatever t is
        t1s, t2s = ([t for t in F.units() if all(tr(div(x, t)) == want for x, want in cs)]
                    for cs in checks[:2])
        return [(t1, t2) for t1 in t1s for t2 in t2s]

    def _compute_basis(self) -> list:
        """(basis point, its torus pair), in basis order."""
        found = {w: tori for w in self.W.elements if (tori := self._compatible_tori(w))}
        w0, w1, w2, w3 = self._bw
        if set(found) != {w0, w1, w2, w3}:
            raise AssertionError("basis supported on unexpected Weyl elements")
        out = [(BasisElem(0, t), t) for t in sorted(found[w0])]
        for t in sorted(found[w1]):
            if t[0] != 1:
                raise AssertionError("w1 candidate with nontrivial first torus")
            out.append((BasisElem(1, t[1:]), t))
        for t in sorted(found[w2]):
            if t[1] != 1:
                raise AssertionError("w2 candidate with nontrivial second torus")
            out.append((BasisElem(2, t[:1]), t))
        if found[w3] != [(1, 1)]:
            raise AssertionError("unit candidate with nontrivial torus")
        out.append((BasisElem(3), (1, 1)))
        if len(out) != self.F.q**2:
            raise AssertionError("basis size is not q^2")
        return out

    # -- basis points ----------------------------------------------------------

    def point(self, b: BasisElem) -> tuple:
        """(Weyl element, torus character pair) of the basis point."""
        return self._bw[b.kind], self._tor[b][1]

    def group_elem(self, b: BasisElem) -> GroupElem:
        w, t = self.point(b)
        return self.G.multiply(self.G.lift(w), self.G.torus(*t))

    def length(self, b: BasisElem) -> int:
        return self._lengths[b.kind]

    # -- structure constants -----------------------------------------------------

    def _reps(self, kinds: tuple) -> dict:
        if (tbl := self._reptables.get(kinds)) is None:
            # a build's objects all outlive it: the cyclic collector, paused, runs once after
            collect = gc.isenabled()
            gc.disable()
            try:
                tbl = self._reptables[kinds] = self._build_reps(kinds)
            finally:
                if collect:
                    gc.enable()
        return tbl

    def _twist(self, kind: int, t: tuple) -> tuple:
        """chi_t(x^-1 alpha_s), s = 1, 2, x of the kind: a homomorphism of the torus."""
        (r1, r2), (t1, t2), M, P = self._roots[kind], t, self.F._mul, self.G._pow
        (a1, a2), (b1, b2) = self.G._coef[r1], self.G._coef[r2]
        return M[P[a1][t1]][P[a2][t2]], M[P[b1][t1]][P[b2][t2]]

    def _build_route(self, x_kind: int, z_kind: int) -> tuple:
        """grid[c1][c2]: the k of the z kind with key cz = (c1, c2), or None; at[n]: the key of
        basis index n, if of the z kind, in the x kind's one list.  Shared by every y; t -> cz
        is injective, as z^-1 x takes the simple roots to a basis."""
        W, inv, chi, basis, q = self.W, self.F._inv, self.G.chi_at, self.basis, self.F.q
        zinv_x, at = W.mult(W.inv(self._bw[z_kind]), self._bw[x_kind]), self._at(x_kind)
        pz1, pz2, grid = W.act(zinv_x, 1), W.act(zinv_x, 2), [[None] * q for _ in range(q)]
        for k, (n, t, _) in self._tor.items():
            if k[0] == z_kind:
                c1, c2 = inv[chi(t, pz1)], inv[chi(t, pz2)]
                at[n] = self._keys(c1)[c2]
                if grid[c1][c2] is not None:
                    raise AssertionError("two route targets share a key")
                grid[c1][c2] = basis[n]
        return grid, at

    def _build_reps(self, kinds: tuple) -> dict:
        F, at = self.F, self._route(kinds[0], kinds[2])[1]
        x, y, z = (self._bw[k] for k in kinds)
        # ratio r = t_mu / t0 = t_mu*t0 (t0 is an involution) -> entries (dv, head, tail, m),
        # each pair packed as pk[x1][x2]: tail = t0*dw, as Tr((cy*t0)*dw) = Tr(cy*(t0*dw)), and
        # head = g_x(r)*du with g_x(c) = twist(1/c).  k's characters are g_x(cz) (the tests check
        # it) and cz = r / (tx*cy), so Tr(kz*du) = Tr(twist(tx*cy)*head) for every k of a product
        index, out, M, inv, q = defaultdict(dict), {}, F._mul, F._inv, F.q
        pk = [list(range(x1 * q, x1 * q + q)) for x1 in range(q)]  # each packed int made once
        for sub in distinguished_subexprs(x, y, z):
            for (s1, s2), (m1, m2), (dv, u1, u2, w1, w2) in rep_entries(sub, F):  # du, dw
                es, e = index[M[s1][m1], M[s2][m2]], (dv, u1, u2, pk[M[s1][w1]][M[s2][w2]])
                es[e] = es.get(e, 0) + 1
        # lists are made while every count lives: made as counts are freed, a list's tuples
        # would take the freed counts' scattered slots, and a large table walks a third slower
        for r, es in index.items():
            g1, g2 = (M[inv[c]] for c in self._twist(kinds[0], r))  # rows of g_x(r)
            out[r] = [(dv, pk[g1[u1]][g2[u2]], tail, m) for (dv, u1, u2, tail), m in es.items()]
        return {"index": out, "at": at}

    def _count(self, ra, rc, entries: list) -> CycloNum:
        """S_ij^k: each entry adds m at zeta count dv - Tr(a*head) - Tr(cy*tail), off ra, rc.  The
        count vector is folded once per algebra, on its first sight; a zero folds to _zero."""
        p = self.F.p
        counts = [0] * p
        for dv, head, tail, m in entries:
            counts[(dv - ra[head] - rc[tail]) % p] += m
        if (c := self._folds.get(key := tuple(counts))) is None:
            c = CycloNum.from_zeta_counts(p, counts)
            c = self._folds[key] = c if any(c) else self._zero
        return c

    def _build_plan(self, i_kind: int, j_kind: int) -> list:
        """The sweep plan of a kind pair, one flat list: every ratio (c1, c2, entries, grid) of its
        four tables, with grid the route of the table's z kind."""
        plan = []
        for z_kind in range(4):
            grid = self._route(i_kind, z_kind)[0]
            plan += [(c1, c2, es, grid)
                     for (c1, c2), es in self._reps((i_kind, j_kind, z_kind))["index"].items()]
        return plan

    def structure_constant(
        self, i: BasisElem, j: BasisElem, k: BasisElem, method: str = "fast"
    ) -> CycloNum:
        """Coefficient of e_k in e_i e_j: sum of phi(Dv - Du - Du').  The fast method returns
        the algebra's shared zero for a zero constant, and shares its folds with multiply."""
        F, G = self.F, self.G
        if method == "direct":
            (x, tx), (y, ty), (z, tz) = self.point(i), self.point(j), self.point(k)
            counts = [0] * F.p
            for r in intersect(x, tx, y, ty, z, tz, group=G):
                hz, hx, tl = (F.add(c[0], c[1]) for c in (r.head_z, r.head_x, r.tail_x))
                counts[F.trace(F.sub(hz, F.add(hx, tl)))] += 1
            return CycloNum.from_zeta_counts(F.p, counts)
        if method != "fast":
            raise ValueError("method must be 'fast' or 'direct'")
        # one ratio lookup, r = cz*tx*cy: no entries there is a zero constant
        (_, tx, _), (_, _, cy), (n, _, _) = self._tor[i], self._tor[j], self._tor[k]
        tbl, rows = self._reps((i[0], j[0], k[0])), F._mul
        c1, c2 = tbl["at"][n]
        entries = tbl["index"].get((rows[rows[c1][tx[0]]][cy[0]], rows[rows[c2][tx[1]]][cy[1]]))
        if entries is None:
            return self._zero
        row, a = self._pair_row, self._twist(i[0], (rows[tx[0]][cy[0]], rows[tx[1]][cy[1]]))
        return self._count(row(a), row(cy), entries)

    def multiply(self, i: BasisElem, j: BasisElem) -> HeckeVec:
        """e_i e_j: one pass over the sweep plan of its kind pair, each ratio r = cz*tx*cy read
        as the route key cz of its target k in the route grid, and counted if k is there; a
        constant that _count gives as the shared zero is left out."""
        (_, tx, _), (_, _, cy), rows, row = self._tor[i], self._tor[j], self.F._mul, self._pair_row
        x1, x2 = rows[tx[0]][cy[0]], rows[tx[1]][cy[1]]  # rows[c][x] = c*x
        ra, rc = row(self._twist(i[0], (x1, x2))), row(cy)  # shared by every k of the product
        vec, count, zero = HeckeVec(), self._count, self._zero
        out, r1, r2 = vec.coeffs, rows[self.F._inv[x1]], rows[self.F._inv[x2]]  # ratio -> key
        for c1, c2, es, grid in self._plan(i[0], j[0]):
            if (k := grid[r1[c1]][r2[c2]]) is not None and (c := count(ra, rc, es)) is not zero:
                out[k] = c  # a HeckeVec holds no zero value; filled in place, each k hashed once
        return vec

    # -- closed forms ------------------------------------------------------------

    def _first_closed_form(self, i: BasisElem, j: BasisElem, k: BasisElem) -> CycloNum:
        from .formulas import ClosedForms

        self._closed_form = ClosedForms(self.tag, self.F, self._tr).value
        return self._closed_form(i, j, k)

    def table_formula(self, i: BasisElem, j: BasisElem, k: BasisElem) -> CycloNum:
        """Exact value of the printed closed form for S_{ij}^k (gghecke.formulas)."""
        self._tor[i], self._tor[j], self._tor[k]  # ValueError for a point outside the basis
        return self._closed_form(i, j, k)

    # -- generation ----------------------------------------------------------------

    def generation_expand(self, x: int, y: int) -> HeckeVec:
        """q^{-1} sum_z (phi(z)-1) e_1(-y/z) e_2(-x/z) + q^2 [x=-y] e_3.

        The sum over z stays in Z[zeta_p]; each of its coefficients is then
        divided by q once, with exact_div checking that the division is exact.
        """
        if self.tag != "A2":
            raise ValueError("generation identity is encoded for A2 only")
        F, p, q = self.F, self.F.p, self.F.q
        if not (1 <= x < q and 1 <= y < q):
            raise ValueError("arguments must be units")
        acc, one = HeckeVec(), CycloNum.from_int(p, 1)
        for z in F.units():
            e1, e2 = BasisElem(1, (F.neg(F.div(y, z)),)), BasisElem(2, (F.neg(F.div(x, z)),))
            acc = acc + self.multiply(e1, e2).scale(phi(F, z) - one)
        acc = HeckeVec({b: c.exact_div(q) for b, c in acc.items()})
        if x == F.neg(y):
            acc = acc + HeckeVec({BasisElem(3): CycloNum.from_int(p, q * q)})
        return acc


@lru_cache(maxsize=None)
def hecke_algebra(tag: str, field: Field) -> HeckeAlgebra:
    return HeckeAlgebra(tag, field)

