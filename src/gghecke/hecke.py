"""Hecke algebra of a Gelfand-Graev representation in rank 2.

The character psi of U factors through the two simple-root coordinates.
The algebra e*QG*e has a basis indexed by pairs (w, t) with w one of the
four basis Weyl elements and t restricted by a compatibility condition;
the basis is computed from that condition, never hard-coded.  Structure
constants are sums of psi-values over the coset representatives produced
by intersect; the closed forms of the two constant tables are encoded in
table_formula for cross-verification, and generation_expand evaluates
the expansion of e_0(x, y) through e_1, e_2 products.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chevalley import Group, GroupElem, chevalley_group
from .cyclo import CycloNum, gauss_sum, phi
from .gf import Field
from .intersect import build_rep, distinguished_subexprs, intersect, mu_assignments

__all__ = [
    "BasisElem",
    "GGChar",
    "HeckeVec",
    "HeckeAlgebra",
    "hecke_algebra",
    "standard_basis",
    "root_sum",
    "root_sum_quartic",
]

_ARITY = {0: 2, 1: 1, 2: 1, 3: 0}


@dataclass(frozen=True)
class BasisElem:
    """Point (kind, params): kind 0 <-> (a,b), 1 <-> c, 2 <-> d, 3 <-> unit."""

    kind: int
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError("kind must be 0..3")
        object.__setattr__(self, "params", tuple(self.params))
        if len(self.params) != _ARITY[self.kind]:
            raise ValueError("wrong parameter count for kind")

    def __repr__(self) -> str:
        return f"e{self.kind}({','.join(str(p) for p in self.params)})"


class GGChar:
    """psi(u) = phi(sum of the two simple-root coordinates of u)."""

    def __init__(self, group: Group):
        self.group = group
        F = group.F
        self._phi = {x: phi(F, x) for x in F.elements()}

    def phi_of(self, code: int) -> CycloNum:
        return self._phi[code]

    def value(self, u) -> CycloNum:
        d1, d2 = self.group.delta_coords(u)
        return self._phi[self.group.F.add(d1, d2)]


class HeckeVec:
    """Finitely supported BasisElem -> CycloNum mapping."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {
            k: v for k, v in dict(coeffs or {}).items() if not v.is_zero()
        }

    def get(self, b: BasisElem, p: int) -> CycloNum:
        return self.coeffs.get(b, CycloNum.zero(p))

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
        inner = " + ".join(f"({v.render()})*{k!r}" for k, v in sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].kind, kv[0].params)))
        return inner or "0"


def root_sum(field: Field, ell: int, target: int, a: int, b: int) -> CycloNum:
    """Sum of phi(a*z + b/z) over z with z^ell = target."""
    F = field
    counts = [0] * F.p
    for z in F.rth_roots(target, ell):
        counts[F.trace(F.add(F.mul(a, z), F.div(b, z)))] += 1
    return CycloNum.from_zeta_counts(F.p, counts)


def root_sum_quartic(
    field: Field, ell: int, target: int, a: int, b: int, a2: int, b2: int
) -> CycloNum:
    """Sum of phi(a2*z^2 + a*z + b/z + b2/z^2) over z^ell = target."""
    F = field
    counts = [0] * F.p
    for z in F.rth_roots(target, ell):
        zz = F.mul(z, z)
        arg = F.add(
            F.add(F.mul(a2, zz), F.mul(a, z)),
            F.add(F.div(b, z), F.div(b2, zz)),
        )
        counts[F.trace(arg)] += 1
    return CycloNum.from_zeta_counts(F.p, counts)


class HeckeAlgebra:
    def __init__(self, tag: str, field: Field):
        self.tag = tag
        self.F = field
        self.G = chevalley_group(tag, field)
        self.W = self.G.W
        self._bw = self.W.basis_elements()
        self._lengths = tuple(w.length() for w in self._bw)
        self.char = GGChar(self.G)
        self.basis = self._compute_basis()
        self._reptables = {}
        self._chi = {}
        # row c is x -> trace(c*x); the trace is F_p-linear, so the trace of
        # a psi-argument is the sum of these rows over its terms, mod p
        F = field
        self._tr = [[F.trace(F.mul(c, x)) for x in F.elements()] for c in F.elements()]

    # -- basis ---------------------------------------------------------------

    def _psi_compatible(self, n: GroupElem) -> bool:
        """^n psi = psi on U meet nUn^{-1}, tested on root-group generators."""
        G, F = self.G, self.F
        ninv = G.invert(n)
        keep = [
            idx
            for idx in range(1, G.N + 1)
            if idx not in G.inv_set(self.W.inv(n.w))
        ]
        for idx in keep:
            for c in F.units():
                coords = [0] * G.N
                coords[idx - 1] = c
                u = G.unipotent(coords)
                conj = G.multiply(ninv, u, n)
                if conj.w.length() or any(conj.u2):
                    raise AssertionError("conjugate left U")
                if self.char.value(conj) != self.char.value(u):
                    return False
        return True

    def _compute_basis(self) -> tuple:
        G, F, W = self.G, self.F, self.W
        found = {}
        order = sorted(W.elements, key=lambda w: (w.length(), w.digits()))
        for w in order:
            lift = G.lift(w)
            for t1 in F.units():
                for t2 in F.units():
                    if self._psi_compatible(G.multiply(lift, G.torus(t1, t2))):
                        found.setdefault(w, []).append((t1, t2))
        w0, w1, w2, w3 = self._bw
        if set(found) != {w0, w1, w2, w3}:
            raise AssertionError("basis supported on unexpected Weyl elements")
        out = []
        for a, b in sorted(found[w0]):
            out.append(BasisElem(0, (a, b)))
        for a, c in sorted(found[w1]):
            if a != 1:
                raise AssertionError("w1 candidate with nontrivial first torus")
            out.append(BasisElem(1, (c,)))
        for d, b in sorted(found[w2]):
            if b != 1:
                raise AssertionError("w2 candidate with nontrivial second torus")
            out.append(BasisElem(2, (d,)))
        if found[w3] != [(1, 1)]:
            raise AssertionError("unit candidate with nontrivial torus")
        out.append(BasisElem(3))
        if len(out) != F.q * F.q:
            raise AssertionError("basis size is not q^2")
        return tuple(out)

    # -- basis points ----------------------------------------------------------

    def _check(self, b: BasisElem):
        for p in b.params:
            if not 1 <= p < self.F.q:
                raise ValueError("basis parameters must be units")

    def point(self, b: BasisElem) -> tuple:
        """(Weyl element, torus character pair) of the basis point."""
        self._check(b)
        if b.kind == 0:
            t = (b.params[0], b.params[1])
        elif b.kind == 1:
            t = (1, b.params[0])
        elif b.kind == 2:
            t = (b.params[0], 1)
        else:
            t = (1, 1)
        return self._bw[b.kind], t

    def group_elem(self, b: BasisElem) -> GroupElem:
        w, t = self.point(b)
        return self.G.multiply(self.G.lift(w), self.G.torus(*t))

    def length(self, b: BasisElem) -> int:
        return self._lengths[b.kind]

    def unit(self) -> BasisElem:
        return BasisElem(3)

    # -- structure constants -----------------------------------------------------

    def _chars(self, t: tuple) -> tuple:
        """chi_t at every root index (slot 0 unused), filled once per pair."""
        if t not in self._chi:
            G = self.G
            self._chi[t] = (0,) + tuple(G.chi_at(t, i) for i in range(1, 2 * G.N + 1))
        return self._chi[t]

    def _reps(self, kinds: tuple) -> dict:
        tbl = self._reptables.get(kinds)
        if tbl is not None:
            return tbl
        G, F, W = self.G, self.F, self.W
        x, y, z = (self._bw[k] for k in kinds)
        buckets = {}
        for sub in distinguished_subexprs(x, y, z):
            for mu in mu_assignments(sub, F):
                r = build_rep(sub, mu)
                wel = G.multiply(
                    G.unipotent(r.tail_x), G.invert(G.unipotent(r.tail_z))
                )
                entry = (
                    F.trace(F.add(r.head_z[0], r.head_z[1])),
                    r.head_x[0],
                    r.head_x[1],
                    wel.u[0],
                    wel.u[1],
                )
                buckets.setdefault((r.t_zero, r.t_mu), []).append(entry)
        # route: character pair (cz1, cz2) of k -> (k, trace rows of wz1, wz2)
        zinv = W.inv(z)
        zinv_x = W.mult(zinv, x)
        pz1, pz2 = W.act(zinv_x, 1), W.act(zinv_x, 2)
        wz1, wz2 = W.act(zinv, 1), W.act(zinv, 2)
        route, one = {}, {}
        for k in self.basis:
            if k.kind == kinds[2]:
                chi = self._chars(self.point(k)[1])
                cz = (F.inv(chi[pz1]), F.inv(chi[pz2]))
                hop = (k, self._tr[chi[wz1]], self._tr[chi[wz2]])
                route.setdefault(cz, []).append(hop)
                one[k] = {cz: [hop]}
        tbl = {
            "buckets": tuple(buckets.items()),
            "py": (W.act(W.inv(y), 1), W.act(W.inv(y), 2)),
            "route": route,
            "one": one,
        }
        self._reptables[kinds] = tbl
        return tbl

    def _sweep(self, i: BasisElem, j: BasisElem, kind: int, route: dict) -> dict:
        """Zeta counts of S_ij^k for the k in route, one walk over the buckets:
        bucket (t0, tmu) serves the k whose character pair cz solves the
        forced-torus equation tmu = tx * t0 * cz * cy, componentwise."""
        F = self.F
        p, mul, div = F.p, F.mul, F.div
        tbl = self._reps((i.kind, j.kind, kind))
        tx = self.point(i)[1]
        chi_y = self._chars(self.point(j)[1])
        cy1, cy2 = chi_y[tbl["py"][0]], chi_y[tbl["py"][1]]
        xy1, xy2 = mul(tx[0], cy1), mul(tx[1], cy2)
        out = {}
        for (t0, tmu), entries in tbl["buckets"]:
            need = (div(tmu[0], mul(xy1, t0[0])), div(tmu[1], mul(xy2, t0[1])))
            hops = route.get(need)
            if hops is None:
                continue
            wy1, wy2 = self._tr[mul(t0[0], cy1)], self._tr[mul(t0[1], cy2)]
            for k, wz1, wz2 in hops:
                counts = out.setdefault(k, [0] * p)
                for dv, du1, du2, dw1, dw2 in entries:
                    counts[(dv - wz1[du1] - wz2[du2] - wy1[dw1] - wy2[dw2]) % p] += 1
        return out

    def structure_constant(
        self, i: BasisElem, j: BasisElem, k: BasisElem, method: str = "fast"
    ) -> CycloNum:
        """Coefficient of e_k in e_i e_j: sum of phi(Dv - Du - Du')."""
        F, G = self.F, self.G
        x, tx = self.point(i)
        y, ty = self.point(j)
        z, tz = self.point(k)
        counts = [0] * F.p
        if method == "direct":
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
        route = self._reps((i.kind, j.kind, k.kind))["one"][k]
        counts = self._sweep(i, j, k.kind, route).get(k, counts)
        return CycloNum.from_zeta_counts(F.p, counts)

    def multiply(self, i: BasisElem, j: BasisElem) -> HeckeVec:
        """e_i e_j: one walk over the buckets of each kind pattern."""
        p = self.F.p
        out = {}
        for kind in range(4):
            route = self._reps((i.kind, j.kind, kind))["route"]
            for k, counts in self._sweep(i, j, kind, route).items():
                out[k] = CycloNum.from_zeta_counts(p, counts)
        return HeckeVec(out)

    # -- closed forms ------------------------------------------------------------

    def table_formula(
        self, i: BasisElem, j: BasisElem, k: BasisElem
    ) -> CycloNum:
        """Exact value of the printed closed form for S_{ij}^k."""
        for b in (i, j, k):
            self._check(b)
        F = self.F
        p = F.p
        zero = CycloNum.zero(p)
        kinds = (i.kind, j.kind, k.kind)
        if i.kind == 3:
            return CycloNum.from_int(p, 1) if (j.kind, j.params) == (k.kind, k.params) else zero
        if j.kind == 3:
            return CycloNum.from_int(p, 1) if (i.kind, i.params) == (k.kind, k.params) else zero
        if k.kind == 3:
            return self._unit_column(i, j)
        if i.kind > j.kind:
            return self.table_formula(j, i, k)
        fn = self._f_a2 if self.tag == "A2" else self._f_b2
        return fn(kinds, i.params, j.params, k.params)

    def _unit_column(self, i: BasisElem, j: BasisElem) -> CycloNum:
        """Coefficient of the unit: the q^l(w) delta entries."""
        F = self.F
        p, q = F.p, F.q
        zero = CycloNum.zero(p)
        kinds = (i.kind, j.kind)
        if self.tag == "A2":
            if kinds == (0, 0):
                a1, b1 = i.params
                a2, b2 = j.params
                ok = a1 == b2 and a2 == b1
                return CycloNum.from_int(p, q**3) if ok else zero
            if kinds == (1, 2):
                ok = i.params[0] == F.neg(j.params[0])
                return CycloNum.from_int(p, q**2) if ok else zero
            if kinds == (2, 1):
                ok = j.params[0] == F.neg(i.params[0])
                return CycloNum.from_int(p, q**2) if ok else zero
            return zero
        if kinds == (0, 0):
            a1, b1 = i.params
            a2, b2 = j.params
            ok = a1 == a2 and b1 == b2
            return CycloNum.from_int(p, q**4) if ok else zero
        if kinds == (1, 1):
            ok = i.params[0] == j.params[0]
            return CycloNum.from_int(p, q**3) if ok else zero
        if kinds == (2, 2):
            ok = i.params[0] == F.neg(j.params[0])
            return CycloNum.from_int(p, q**3) if ok else zero
        return zero

    def _f_a2(self, kinds, s1, s2, s3) -> CycloNum:
        F = self.F
        p, q = F.p, F.q
        zero = CycloNum.zero(p)
        qq = CycloNum.from_int(p, q)
        add, sub, mul, div, neg, inv = F.add, F.sub, F.mul, F.div, F.neg, F.inv
        ph = self.char.phi_of
        m1 = F.neg(1)

        def m3(a, b, c):
            return mul(mul(a, b), c)

        if kinds == (0, 0, 0):
            (a1, b1), (a2, b2), (a3, b3) = s1, s2, s3
            target = div(mul(a1, mul(b1, b1)), m3(mul(a2, a2), a3, mul(b2, mul(b3, b3))))
            acc = zero
            for z in sorted(F.rth_roots(target, 3)):
                sig1 = add(
                    add(m1, neg(div(b3, b1))),
                    add(
                        mul(z, neg(add(div(m3(a2, b2, b3), mul(a1, b1)), div(mul(a2, b3), b1)))),
                        div(neg(add(inv(a2), inv(a3))), z),
                    ),
                )
                sig2 = sub(sub(neg(inv(b3)), z), div(div(b1, m3(a2, b2, b3)), z))
                acc = acc + root_sum(F, q - 1, 1, sig1, sig2)
            if m3(a1, a2, b3) == neg(m3(a3, b1, b2)) and mul(a1, b3) == sub(
                mul(a1, b1), mul(b1, b2)
            ):
                acc = acc + qq
            return acc
        if kinds == (0, 0, 1):
            (a1, b1), (a2, b2), (c3,) = s1, s2, s3
            target = div(m3(a1, a1, b1), m3(a2, mul(b2, b2), c3))
            aa = sub(sub(m1, div(b2, a1)), div(mul(a2, b2), mul(a1, b1)))
            bb = sub(neg(inv(b2)), div(a1, mul(a2, b2)))
            return root_sum(F, 3, target, aa, bb).scale(q)
        if kinds == (0, 0, 2):
            (a1, b1), (a2, b2), (d3,) = s1, s2, s3
            target = div(mul(a1, mul(b1, b1)), m3(mul(a2, a2), b2, d3))
            aa = sub(sub(m1, div(a2, b1)), div(mul(a2, b2), mul(a1, b1)))
            bb = sub(neg(inv(a2)), div(b1, mul(a2, b2)))
            return root_sum(F, 3, target, aa, bb).scale(q)
        if kinds == (0, 1, 0):
            (a1, b1), (c2,), (a3, b3) = s1, s2, s3
            target = div(mul(b1, c2), m3(a1, mul(a3, a3), b3))
            aa = add(1, div(a3, b1))
            bb = add(add(inv(a1), inv(a3)), div(b1, mul(a3, b3)))
            return root_sum(F, 3, target, aa, bb)
        if kinds == (0, 1, 1):
            (a1, b1), (c2,), (c3,) = s1, s2, s3
            if mul(a1, c3) != neg(mul(c2, b1)):
                return zero
            return ph(div(a1, c2)).scale(q)
        if kinds == (0, 1, 2):
            (a1, b1), (c2,), (d3,) = s1, s2, s3
            if mul(c2, d3) != neg(mul(a1, mul(b1, b1))):
                return zero
            return ph(sub(div(b1, c2), div(b1, d3))).scale(q)
        if kinds == (0, 2, 0):
            (a1, b1), (d2,), (a3, b3) = s1, s2, s3
            target = div(mul(a1, d2), mul(mul(a3, b1), mul(b3, b3)))
            aa = add(1, div(b3, a1))
            bb = add(add(inv(b1), inv(b3)), div(a1, mul(a3, b3)))
            return root_sum(F, 3, target, aa, bb)
        if kinds == (0, 2, 1):
            (a1, b1), (d2,), (c3,) = s1, s2, s3
            if mul(c3, d2) != neg(mul(mul(a1, a1), b1)):
                return zero
            return ph(sub(div(a1, d2), div(a1, c3))).scale(q)
        if kinds == (0, 2, 2):
            (a1, b1), (d2,), (d3,) = s1, s2, s3
            if mul(b1, d3) != neg(mul(a1, d2)):
                return zero
            return ph(div(b1, d2)).scale(q)
        if kinds == (1, 1, 0):
            (c1,), (c2,), (a3, b3) = s1, s2, s3
            if mul(c1, c2) != mul(mul(a3, a3), b3):
                return zero
            return ph(add(div(a3, c1), div(a3, c2)))
        if kinds == (1, 1, 2):
            (c1,), (c2,), (d3,) = s1, s2, s3
            ok = c1 == neg(d3) and c1 == c2
            return qq if ok else zero
        if kinds == (1, 2, 0):
            (c1,), (d2,), (a3, b3) = s1, s2, s3
            if mul(a3, c1) != mul(b3, d2):
                return zero
            return ph(div(a3, d2))
        if kinds == (2, 2, 0):
            (d1,), (d2,), (a3, b3) = s1, s2, s3
            if mul(d1, d2) != mul(a3, mul(b3, b3)):
                return zero
            return ph(add(div(b3, d2), div(b3, d1)))
        if kinds == (2, 2, 1):
            (d1,), (d2,), (c3,) = s1, s2, s3
            ok = d1 == neg(c3) and d1 == d2
            return qq if ok else zero
        if kinds in ((1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 2)):
            return zero
        raise ValueError(f"no closed form for kinds {kinds}")

    def _f_b2(self, kinds, s1, s2, s3) -> CycloNum:
        F = self.F
        p, q = F.p, F.q
        zero = CycloNum.zero(p)
        qq = CycloNum.from_int(p, q)
        add, sub, mul, div, neg, inv = F.add, F.sub, F.mul, F.div, F.neg, F.inv
        ph = self.char.phi_of
        m1 = F.neg(1)

        def m3(a, b, c):
            return mul(mul(a, b), c)

        def legendre(x):
            return 1 if F.is_square(x) else -1

        if kinds == (0, 0, 0):
            (a1, b1), (a2, b2), (a3, b3) = s1, s2, s3
            acc = zero
            tb = div(b1, mul(b2, b3))
            # branch one: both square roots must exist
            ta = neg(div(a1, mul(a2, a3)))
            if F.is_square(ta) and F.is_square(tb):
                lhs = sub(div(b2, b1), 1)
                coef = div(m3(a3, b2, b3), mul(a1, b1))
                for z1 in sorted(F.rth_roots(ta, 2)):
                    for z2 in sorted(F.rth_roots(tb, 2)):
                        if lhs != mul(coef, mul(z1, z2)):
                            continue
                        arg = add(
                            add(neg(z1), mul(div(a2, a1), z1)),
                            add(
                                neg(mul(div(a3, a1), z1)),
                                mul(F.of(2), mul(div(b2, b1), z2)),
                            ),
                        )
                        acc = acc + ph(arg).scale(q)
            # branch two: Gauss-sum branch
            if F.is_square(tb):
                gs = gauss_sum(F)
                bb = sub(1, div(a3, a1))
                part = zero
                for z in sorted(F.rth_roots(tb, 2)):
                    aa = div(mul(a2, a3), m3(a1, b3, z))
                    cc = add(z, add(div(inv(b2), z), div(inv(b3), z)))
                    arg = sub(cc, div(mul(bb, bb), mul(F.of(4), aa)))
                    part = part + ph(arg).scale(legendre(aa))
                acc = acc + gs * part
            # branch three: Kloosterman-in-t sum, phi(outer) folded into the counts
            if F.is_square(tb):
                A = div(a1, mul(a2, a3))
                B = tb
                counts = [0] * p
                for z in F.rth_roots(B, 2):
                    for t in F.units():
                        t2 = mul(t, t)
                        t3 = mul(t2, t)
                        t4 = mul(t2, t2)
                        outer = add(
                            add(
                                neg(div(mul(F.of(2), t2), m3(b3, A, z))),
                                neg(div(mul(t, add(mul(a2, A), 1)), mul(a2, A))),
                            ),
                            neg(inv(mul(a3, t))),
                        )
                        ka = sub(
                            add(
                                add(
                                    neg(div(t4, m3(b3, mul(A, A), B))),
                                    neg(div(t3, m3(a2, mul(A, A), z))),
                                ),
                                add(
                                    neg(div(mul(t2, add(mul(b3, B), 1)), m3(b3, A, B))),
                                    neg(div(t, m3(a2, A, z))),
                                ),
                            ),
                            F.of(1),
                        )
                        kb = sub(
                            sub(neg(inv(b3)), div(mul(A, z), t)),
                            div(A, mul(b2, t2)),
                        )
                        for w in F.units():
                            counts[F.trace(add(outer, add(mul(ka, w), div(kb, w))))] += 1
                acc = acc + CycloNum.from_zeta_counts(p, counts)
            return acc
        if kinds == (0, 0, 1):
            (a1, b1), (a2, b2), (c3,) = s1, s2, s3
            target = div(b1, mul(b2, c3))
            acc = zero
            for z in sorted(F.rth_roots(target, 2)):
                aa = add(
                    sub(
                        sub(sub(m1, div(a1, a2)), div(b2, b1)),
                        div(mul(a2, b2), mul(a1, b1)),
                    ),
                    add(inv(mul(a2, z)), inv(mul(a1, z))),
                )
                bb = sub(z, inv(b2))
                acc = acc + root_sum(F, q - 1, 1, aa, bb).scale(q)
            if a1 == neg(a2):
                hits = 0
                for z in sorted(F.rth_roots(target, 2)):
                    if inv(mul(a1, z)) == sub(div(b2, b1), 1):
                        hits += 1
                if hits:
                    acc = acc + CycloNum.from_int(p, hits * q * q)
            return acc
        if kinds == (0, 0, 2):
            (a1, b1), (a2, b2), (d3,) = s1, s2, s3
            acc = zero
            for z in sorted(F.rth_roots(div(b1, b2), 2)):
                t1 = mul(
                    mul(a2, d3),
                    sub(
                        sub(div(F.of(2), mul(a1, z)), div(b2, mul(a1, b1))),
                        inv(a1),
                    ),
                )
                t2 = mul(d3, sub(inv(mul(a1, z)), inv(a1)))
                t3 = sub(div(mul(a1, z), mul(a2, d3)), inv(d3))
                t4 = neg(div(a1, m3(a2, b2, d3)))
                acc = acc + root_sum_quartic(F, q - 1, 1, t2, t3, t1, t4).scale(q)
            if b1 == b2:
                sgn = legendre(neg(div(mul(a2, d3), a1)))
                term = gauss_sum(F) * ph(div(d3, mul(F.of(4), mul(a1, a2))))
                acc = acc + term.scale(sgn * q)
            return acc
        if kinds == (0, 1, 0):
            (a1, b1), (c2,), (a3, b3) = s1, s2, s3
            acc = zero
            for z in sorted(F.rth_roots(div(c2, mul(b1, b3)), 2)):
                aa = sub(
                    sub(
                        sub(neg(mul(z, b3)), mul(div(mul(a3, b3), a1), z)),
                        div(c2, b1),
                    ),
                    div(mul(a3, c2), mul(a1, b1)),
                )
                bb = sub(
                    sub(neg(mul(div(b1, mul(a3, c2)), z)), div(mul(a1, b1), m3(a3, b3, c2))),
                    inv(c2),
                )
                acc = acc + root_sum(F, q - 1, 1, aa, bb)
            if a1 == neg(a3):
                hits = 0
                for z in sorted(F.rth_roots(div(b1, mul(b3, c2)), 2)):
                    if inv(z) == neg(div(c2, b1)):
                        hits += 1
                if hits:
                    acc = acc + CycloNum.from_int(p, hits * q)
            return acc
        if kinds == (0, 1, 1):
            (a1, b1), (c2,), (c3,) = s1, s2, s3
            target = m3(b1, c2, c3)
            bb = add(mul(a1, b1), add(c2, c3))
            return root_sum(F, 2, target, 0, bb).scale(q)
        if kinds == (0, 1, 2):
            (a1, b1), (c2,), (d3,) = s1, s2, s3
            pref = ph(sub(neg(div(a1, d3)), div(d3, mul(a1, b1))))
            return (pref * root_sum(F, 2, div(b1, c2), 1, inv(a1))).scale(q)
        if kinds == (0, 2, 0):
            (a1, b1), (d2,), (a3, b3) = s1, s2, s3
            acc = zero
            for z in sorted(F.rth_roots(div(b1, b3), 2)):
                t1 = mul(
                    mul(a3, d2),
                    add(
                        add(div(F.of(2), m3(a1, b3, z)), inv(mul(a1, b3))),
                        inv(mul(a1, b1)),
                    ),
                )
                t2 = sub(
                    sub(sub(m1, z), div(a3, mul(a1, z))),
                    div(a3, a1),
                )
                t3 = neg(inv(a3))
                t4 = div(a1, mul(a3, d2))
                acc = acc + root_sum_quartic(F, q - 1, 1, t2, t3, t1, t4)
            if b1 == b3:
                sgn = legendre(div(mul(a3, d2), mul(a1, b3)))
                dd = sub(1, div(a3, a1))
                arg = neg(
                    mul(
                        div(mul(a1, b3), mul(F.of(4), mul(a3, d2))),
                        mul(dd, dd),
                    )
                )
                acc = acc + (gauss_sum(F) * ph(arg)).scale(sgn)
            return acc
        if kinds == (0, 2, 1):
            (a1, b1), (d2,), (c3,) = s1, s2, s3
            pref = ph(add(div(a1, d2), div(d2, mul(a1, b1))))
            return (pref * root_sum(F, 2, div(b1, c3), 1, inv(a1))).scale(q)
        if kinds == (0, 2, 2):
            (a1, b1), (d2,), (d3,) = s1, s2, s3
            acc = zero
            for z1 in sorted(F.rth_roots(neg(div(a1, mul(d2, d3))), 2)):
                for z3 in sorted(F.rth_roots(neg(div(mul(a1, b1), mul(d2, d3))), 2)):
                    arg = add(
                        add(z3, neg(inv(mul(d3, z1)))),
                        add(inv(mul(d2, z1)), mul(F.of(2), div(z1, z3))),
                    )
                    acc = acc + ph(arg)
            return acc.scale(q)
        if kinds == (1, 1, 0):
            (c1,), (c2,), (a3, b3) = s1, s2, s3
            target = div(c1, mul(b3, c2))
            bb = add(div(a3, c2), inv(b3))
            return root_sum(F, 2, target, 1, bb)
        if kinds == (1, 1, 2):
            (c1,), (c2,), (d3,) = s1, s2, s3
            if c1 != c2:
                return zero
            return ph(neg(div(d3, c2))).scale(q)
        if kinds == (1, 2, 0):
            (c1,), (d2,), (a3, b3) = s1, s2, s3
            pref = ph(add(div(a3, d2), div(d2, mul(b3, a3))))
            return pref * root_sum(F, 2, div(b3, c1), 1, inv(a3))
        if kinds == (1, 2, 1):
            (c1,), (d2,), (c3,) = s1, s2, s3
            if c1 != c3:
                return zero
            return ph(div(d2, c3)).scale(q)
        if kinds == (1, 2, 2):
            (c1,), (d2,), (d3,) = s1, s2, s3
            if d2 != neg(d3):
                return zero
            acc = zero
            for z in sorted(F.rth_roots(c1, 2)):
                acc = acc + ph(div(z, d3))
            return acc.scale(q)
        if kinds == (2, 2, 0):
            (d1,), (d2,), (a3, b3) = s1, s2, s3
            acc = zero
            for z1 in sorted(F.rth_roots(div(d1, mul(a3, d2)), 2)):
                for z3 in sorted(F.rth_roots(div(d1, m3(a3, b3, d2)), 2)):
                    arg = add(
                        add(neg(z1), neg(inv(mul(d2, z3)))),
                        add(neg(inv(mul(a3, z1))), mul(F.of(2), div(z1, mul(b3, z3)))),
                    )
                    acc = acc + ph(arg)
            return acc
        if kinds == (2, 2, 1):
            (d1,), (d2,), (c3,) = s1, s2, s3
            if d1 != d2:
                return zero
            return root_sum(F, 2, inv(c3), 0, inv(d2)).scale(q)
        if kinds == (2, 2, 2):
            (d1,), (d2,), (d3,) = s1, s2, s3
            return gauss_sum(F).scale(legendre(m3(d1, d2, d3)))
        if kinds == (1, 1, 1):
            return zero
        raise ValueError(f"no closed form for kinds {kinds}")

    # -- generation ----------------------------------------------------------------

    def generation_expand(self, x: int, y: int) -> HeckeVec:
        """q^{-1} sum_z (phi(z)-1) e_1(-y/z) e_2(-x/z) + q^2 [x=-y] e_3."""
        if self.tag != "A2":
            raise ValueError("generation identity is encoded for A2 only")
        F = self.F
        p, q = F.p, F.q
        if not (1 <= x < q and 1 <= y < q):
            raise ValueError("arguments must be units")
        acc = HeckeVec()
        one = CycloNum.from_int(p, 1)
        qinv = Fraction(1, q)
        for z in F.units():
            coef = (self.char.phi_of(z) - one).scale(qinv)
            prod = self.multiply(
                BasisElem(1, (F.neg(F.div(y, z)),)),
                BasisElem(2, (F.neg(F.div(x, z)),)),
            )
            acc = acc + prod.scale(coef)
        if x == F.neg(y):
            acc = acc + HeckeVec({BasisElem(3): CycloNum.from_int(p, q * q)})
        return acc


@lru_cache(maxsize=None)
def hecke_algebra(tag: str, field: Field) -> HeckeAlgebra:
    return HeckeAlgebra(tag, field)


def standard_basis(tag: str, field: Field) -> tuple:
    return hecke_algebra(tag, field).basis
