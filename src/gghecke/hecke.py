"""Hecke algebra of a Gelfand-Graev representation in rank 2.

The character psi of U factors through the two simple-root coordinates.
The algebra e*QG*e has a basis indexed by pairs (w, t) with w one of the
four basis Weyl elements and t restricted by a compatibility condition;
the basis is computed from that condition, never hard-coded.  Structure
constants are sums of psi-values over the coset representatives produced
by intersect; generation_expand evaluates the expansion of e_0(x, y)
through e_1, e_2 products.
"""

from collections import Counter, defaultdict
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
        self.tag = tag
        self.F = field
        self.G = chevalley_group(tag, field)
        self.W = self.G.W
        self._bw = self.W.basis_elements()
        self._lengths = tuple(w.length() for w in self._bw)
        self._reptables = {}
        W, chi, self._tor = self.W, self.G.chi_at, _Points()
        roots = [(W.act(W.inv(y), 1), W.act(W.inv(y), 2)) for y in self._bw]  # y^-1 alpha_s
        for n, (b, t) in enumerate(self._compute_basis()):
            r1, r2 = roots[b.kind]
            self._tor[b] = (n, t, (chi(t, r1), chi(t, r2)))
        self.basis = tuple(self._tor)
        # row c is x -> trace(c*x); the trace is F_p-linear, so the trace of
        # a psi-argument is the sum of these rows over its terms, mod p
        F = field
        self._tr = [[F.trace(F.mul(c, x)) for x in F.elements()] for c in F.elements()]
        # the closed forms load on the first table_formula; a plain attribute, as a
        # cached_property reads __dict__, which slows every later attribute read
        self._closed_form = self._first_closed_form

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

    def unit(self) -> BasisElem:
        return BasisElem(3)

    # -- structure constants -----------------------------------------------------

    def _reps(self, kinds: tuple) -> dict:
        tbl = self._reptables.get(kinds)
        if tbl is not None:
            return tbl
        F, W = self.F, self.W
        x, y, z = (self._bw[k] for k in kinds)
        # route: character pair (cz1, cz2) of k -> (index of k, trace rows of wz1, wz2)
        zinv = W.inv(z)
        zinv_x = W.mult(zinv, x)
        pz1, pz2 = W.act(zinv_x, 1), W.act(zinv_x, 2)
        wz1, wz2 = W.act(zinv, 1), W.act(zinv, 2)
        route, one, chi = {}, {}, self.G.chi_at
        for k, (n, t, _) in self._tor.items():
            if k.kind == kinds[2]:
                cz = (F.inv(chi(t, pz1)), F.inv(chi(t, pz2)))
                hop = (n, self._tr[chi(t, wz1)], self._tr[chi(t, wz2)])
                route.setdefault(cz, []).append(hop)
                one[n] = {cz: [hop]}
        buckets = defaultdict(Counter)  # (t0, t_mu) -> counts of its representatives' entries
        for sub in distinguished_subexprs(x, y, z):
            for t0, tmu, entry in rep_entries(sub, F):
                buckets[t0, tmu][entry] += 1
        # ratio t_mu / t0 -> its buckets (t0, entries as (*entry, count))
        index = {}
        for (t0, tmu), counts in buckets.items():
            r = (F.div(tmu[0], t0[0]), F.div(tmu[1], t0[1]))
            index.setdefault(r, []).append((t0, [(*e, m) for e, m in counts.items()]))
            counts.clear()  # free each bucket's entries once the index holds them
        tbl = self._reptables[kinds] = {"index": index, "route": route, "one": one}
        return tbl

    def _sweep(self, tbl: dict, tx: tuple, cy: tuple, route: dict) -> dict:
        """Zeta counts of S_ij^k by basis index of k, for the k in route.  Bucket
        (t0, tmu) serves the k whose pair cz solves tmu/t0 = cz*tx*cy componentwise;
        each key of the smaller side, route or ratio index, is looked up in the other."""
        p, rows, inv, tr = self.F.p, self.F._mul, self.F.inv, self._tr  # rows[c][x] = c*x
        ry1, ry2 = rows[cy[0]], rows[cy[1]]
        xy1, xy2 = ry1[tx[0]], ry2[tx[1]]
        r1, r2 = rows[xy1], rows[xy2]  # x -> x*tx*cy componentwise
        index = tbl["index"]
        if len(route) <= len(index):
            hits = [(hops, bs) for (c1, c2), hops in route.items()
                    if (bs := index.get((r1[c1], r2[c2])))]
        else:
            r1, r2 = rows[inv(xy1)], rows[inv(xy2)]  # x -> x/(tx*cy)
            hits = [(hops, bs) for (c1, c2), bs in index.items()
                    if (hops := route.get((r1[c1], r2[c2])))]
        out = {}
        for hops, buckets in hits:
            for t0, entries in buckets:
                wy1, wy2 = tr[ry1[t0[0]]], tr[ry2[t0[1]]]
                for n, wz1, wz2 in hops:
                    counts = out.setdefault(n, [0] * p)
                    for dv, du1, du2, dw1, dw2, m in entries:
                        counts[(dv - wz1[du1] - wz2[du2] - wy1[dw1] - wy2[dw2]) % p] += m
        return out

    def structure_constant(
        self, i: BasisElem, j: BasisElem, k: BasisElem, method: str = "fast"
    ) -> CycloNum:
        """Coefficient of e_k in e_i e_j: sum of phi(Dv - Du - Du')."""
        F, G = self.F, self.G
        if method == "direct":
            x, tx = self.point(i)
            y, ty = self.point(j)
            z, tz = self.point(k)
            counts = [0] * F.p
            for r in intersect(x, tx, y, ty, z, tz, group=G):
                arg = F.sub(
                    F.add(r.head_z[0], r.head_z[1]),
                    F.add(
                        F.add(r.head_x[0], r.head_x[1]),
                        F.add(r.tail_x[0], r.tail_x[1]),
                    ),
                )
                counts[F.trace(arg)] += 1
            return CycloNum.from_zeta_counts(F.p, counts)
        if method != "fast":
            raise ValueError("method must be 'fast' or 'direct'")
        (_, tx, _), (_, _, cy), (n, _, _) = self._tor[i], self._tor[j], self._tor[k]
        tbl = self._reps((i.kind, j.kind, k.kind))
        counts = self._sweep(tbl, tx, cy, tbl["one"][n]).get(n, [0] * F.p)
        return CycloNum.from_zeta_counts(F.p, counts)

    def multiply(self, i: BasisElem, j: BasisElem) -> HeckeVec:
        """e_i e_j: one sweep of each of its four kind patterns."""
        (_, tx, _), (_, _, cy) = self._tor[i], self._tor[j]
        vec = HeckeVec()  # filled in place, so its keys are hashed once
        p, basis, fold, out = self.F.p, self.basis, CycloNum.from_zeta_counts, vec.coeffs
        for kind in range(4):
            tbl = self._reps((i.kind, j.kind, kind))
            for n, counts in self._sweep(tbl, tx, cy, tbl["route"]).items():
                if any(c := fold(p, counts)):  # a HeckeVec holds no zero value
                    out[basis[n]] = c
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
        F = self.F
        p, q = F.p, F.q
        if not (1 <= x < q and 1 <= y < q):
            raise ValueError("arguments must be units")
        acc = HeckeVec()
        one = CycloNum.from_int(p, 1)
        for z in F.units():
            prod = self.multiply(
                BasisElem(1, (F.neg(F.div(y, z)),)),
                BasisElem(2, (F.neg(F.div(x, z)),)),
            )
            acc = acc + prod.scale(phi(F, z) - one)
        acc = HeckeVec({b: c.exact_div(q) for b, c in acc.items()})
        if x == F.neg(y):
            acc = acc + HeckeVec({BasisElem(3): CycloNum.from_int(p, q * q)})
        return acc


@lru_cache(maxsize=None)
def hecke_algebra(tag: str, field: Field) -> HeckeAlgebra:
    return HeckeAlgebra(tag, field)

