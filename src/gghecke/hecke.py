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

from collections import Counter
from functools import lru_cache

from .chevalley import Group, GroupElem, chevalley_group
from .cyclo import CycloNum, kloosterman_counts, phi, root_sum, square_counts
from .gf import Field
from .intersect import distinguished_subexprs, intersect, rep_entries
from .rootsys import Record, WeylElem

__all__ = [
    "BasisElem",
    "GGChar",
    "HeckeVec",
    "HeckeAlgebra",
    "hecke_algebra",
    "standard_basis",
]

_ARITY = {0: 2, 1: 1, 2: 1, 3: 0}


class BasisElem(Record):
    """Point (kind, params): kind 0 <-> (a,b), 1 <-> c, 2 <-> d, 3 <-> unit."""

    _fields = ("kind", "params")
    __slots__ = _fields + ("_hash",)

    def __init__(self, kind: int, params=()):
        if kind not in _ARITY:
            raise ValueError("kind must be 0..3")
        params = tuple(params)
        if len(params) != _ARITY[kind]:
            raise ValueError("wrong parameter count for kind")
        super().__init__(kind, params)
        # every dict keyed by basis points hashes its keys: hash once
        object.__setattr__(self, "_hash", hash((kind, params)))

    def __hash__(self) -> int:
        return self._hash

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
        inner = " + ".join(f"({v.render()})*{k!r}" for k, v in sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].kind, kv[0].params)))
        return inner or "0"


class _Points(dict):
    """Basis point -> (its index in the basis, torus pair t, chi_t at every root
    index with slot 0 unused); a point not in the basis has a non-unit parameter."""

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
        self.char = GGChar(self.G)
        self._reptables = {}
        G, rows, self._tor = self.G, {}, _Points()
        for n, (b, t) in enumerate(self._compute_basis()):
            if t not in rows:
                rows[t] = (0,) + tuple(G.chi_at(t, r) for r in range(1, 2 * G.N + 1))
            self._tor[b] = (n, t, rows[t])
        self.basis = tuple(self._tor)
        # row c is x -> trace(c*x); the trace is F_p-linear, so the trace of
        # a psi-argument is the sum of these rows over its terms, mod p
        F = field
        self._tr = [[F.trace(F.mul(c, x)) for x in F.elements()] for c in F.elements()]
        # for the closed forms: t^n (n = 1, 2, 3, 4, -1, -2) per unit t, and
        # the Kloosterman and square count tables of the field
        self._tpow = [tuple(F.pow(t, n) for n in (1, 2, 3, 4, -1, -2)) for t in F.units()]
        self._kl, self._sq = kloosterman_counts(F), square_counts(F)

    # -- basis ---------------------------------------------------------------

    def _compatible_tori(self, w: WeylElem) -> list:
        """The torus pairs t, in field order, with ^n psi = psi on U meet nUn^{-1}
        for n = lift(w) t, tested on its root-group generators u = u_k(c).  Each
        u is conjugated once: n^{-1} u n = t^{-1} v t for v = lift(w)^{-1} u lift(w)
        in U, and t^{-1} u_k(x) t = u_k(x / chi_t(alpha_k)), so psi(n^{-1} u n) =
        psi(u) when Tr(v_1 / t_1 + v_2 / t_2) = Tr(u_1 + u_2), as phi = zeta^Tr."""
        G, F, roots = self.G, self.F, range(1, self.G.N + 1)
        add, div, tr = F.add, F.div, F.trace
        lift = G.lift(w)
        linv, inverted = G.invert(lift), G.inv_set(self.W.inv(w))
        checks = []
        for u in (G.unipotent([c if i == k else 0 for i in roots])
                  for k in roots if k not in inverted for c in F.units()):
            v = G.multiply(linv, u, lift)
            if v.w.length() or v.t != (1, 1) or any(v.u2):
                raise AssertionError("conjugate left U")
            checks.append((v.u[0], v.u[1], tr(add(u.u[0], u.u[1]))))
        return [
            (t1, t2) for t1 in F.units() for t2 in F.units()
            if all(tr(add(div(x1, t1), div(x2, t2))) == want for x1, x2, want in checks)
        ]

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
        route, one = {}, {}
        for k, (n, _, chi) in self._tor.items():
            if k.kind == kinds[2]:
                cz = (F.inv(chi[pz1]), F.inv(chi[pz2]))
                hop = (n, self._tr[chi[wz1]], self._tr[chi[wz2]])
                route.setdefault(cz, []).append(hop)
                one[n] = {cz: [hop]}
        buckets = {}  # (t0, t_mu) -> the entries of its representatives
        for sub in distinguished_subexprs(x, y, z):
            for t0, tmu, entry in rep_entries(sub, F):
                buckets.setdefault((t0, tmu), []).append(entry)
        # ratio t_mu / t0 -> its buckets (t0, entries collapsed to (*entry, count))
        index = {}
        for (t0, tmu), entries in buckets.items():
            r = (F.div(tmu[0], t0[0]), F.div(tmu[1], t0[1]))
            index.setdefault(r, []).append((t0, [(*e, m) for e, m in Counter(entries).items()]))
        py = (W.act(W.inv(y), 1), W.act(W.inv(y), 2))
        tbl = self._reptables[kinds] = {"index": index, "py": py, "route": route, "one": one}
        return tbl

    def _sweep(self, tbl: dict, tx: tuple, chi_y: tuple, route: dict) -> dict:
        """Zeta counts of S_ij^k by basis index of k, for the k in route.  Bucket
        (t0, tmu) serves the k whose pair cz solves tmu/t0 = cz*tx*cy componentwise;
        each key of the smaller side, route or ratio index, is looked up in the other."""
        F = self.F
        p, mul, tr = F.p, F.mul, self._tr
        cy1, cy2 = chi_y[tbl["py"][0]], chi_y[tbl["py"][1]]
        xy1, xy2 = mul(tx[0], cy1), mul(tx[1], cy2)
        index = tbl["index"]
        if len(route) <= len(index):
            hits = [(hops, bs) for (c1, c2), hops in route.items()
                    if (bs := index.get((mul(c1, xy1), mul(c2, xy2))))]
        else:
            ixy1, ixy2 = F.inv(xy1), F.inv(xy2)
            hits = [(hops, bs) for (r1, r2), bs in index.items()
                    if (hops := route.get((mul(r1, ixy1), mul(r2, ixy2))))]
        out = {}
        for hops, buckets in hits:
            for t0, entries in buckets:
                wy1, wy2 = tr[mul(t0[0], cy1)], tr[mul(t0[1], cy2)]
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
        (_, tx, _), (_, _, chi_y), (n, _, _) = self._tor[i], self._tor[j], self._tor[k]
        tbl = self._reps((i.kind, j.kind, k.kind))
        counts = self._sweep(tbl, tx, chi_y, tbl["one"][n]).get(n, [0] * F.p)
        return CycloNum.from_zeta_counts(F.p, counts)

    def multiply(self, i: BasisElem, j: BasisElem) -> HeckeVec:
        """e_i e_j: one sweep of each of its four kind patterns."""
        (_, tx, _), (_, _, chi_y) = self._tor[i], self._tor[j]
        p, basis, out = self.F.p, self.basis, {}
        for kind in range(4):
            tbl = self._reps((i.kind, j.kind, kind))
            for n, counts in self._sweep(tbl, tx, chi_y, tbl["route"]).items():
                out[basis[n]] = CycloNum.from_zeta_counts(p, counts)
        return HeckeVec(out)

    # -- closed forms ------------------------------------------------------------

    def table_formula(
        self, i: BasisElem, j: BasisElem, k: BasisElem
    ) -> CycloNum:
        """Exact value of the printed closed form for S_{ij}^k.

        Every case adds into one list of counts over zeta exponents 0..2p-2
        (a trace, or a count vector rotated by a trace), read as one CycloNum.
        """
        for b in (i, j, k):
            self._tor[b]  # ValueError for a point outside the basis
        p = self.F.p
        counts = [0] * (2 * p - 1)
        if 3 in (i.kind, j.kind):
            counts[0] = int((j if i.kind == 3 else i) == k)
        elif k.kind == 3:
            self._unit_column(i, j, counts)
        else:
            if i.kind > j.kind:
                i, j = j, i
            fn = self._f_a2 if self.tag == "A2" else self._f_b2
            fn((i.kind, j.kind, k.kind), i.params, j.params, k.params, counts)
        return CycloNum.from_zeta_counts(p, counts)

    def _unit_sum(self, a: int, b: int) -> tuple:
        """Count vector of the sum over units w of phi(a w + b/w).  For units a, b,
        w -> w/a makes it row ab of the Kloosterman counts; it is row 0 when just
        one of a, b is 0, and q - 1 at residue 0 when both are."""
        return self._kl[self.F.mul(a, b)] if a or b else (self.F.q - 1,)

    def _unit_column(self, i: BasisElem, j: BasisElem, counts: list) -> None:
        """Coefficient of the unit: q^l(w) where e_j is the inverse of e_i."""
        F, s, t = self.F, i.params, j.params
        opp = s[0] == F.neg(t[0])
        # kinds of i and j -> (whether e_j inverts e_i, l(w))
        if self.tag == "A2":
            cases = {(0, 0): (s == t[::-1], 3), (1, 2): (opp, 2), (2, 1): (opp, 2)}
        else:
            cases = {(0, 0): (s == t, 4), (1, 1): (s == t, 3), (2, 2): (opp, 3)}
        ok, length = cases.get((i.kind, j.kind), (False, 0))
        if ok:
            counts[0] += F.q**length

    def _f_a2(self, kinds, s1, s2, s3, counts: list) -> None:
        F = self.F
        q = F.q
        add, sub, mul, div, neg, inv, trace = F.add, F.sub, F.mul, F.div, F.neg, F.inv, F.trace
        m1 = F.neg(1)

        def m3(a, b, c):
            return mul(mul(a, b), c)

        if kinds == (0, 0, 0):
            (a1, b1), (a2, b2), (a3, b3) = s1, s2, s3
            target = div(mul(a1, mul(b1, b1)), m3(mul(a2, a2), a3, mul(b2, mul(b3, b3))))
            for z in F.rth_roots(target, 3):
                sig1 = add(
                    add(m1, neg(div(b3, b1))),
                    add(
                        mul(z, neg(add(div(m3(a2, b2, b3), mul(a1, b1)), div(mul(a2, b3), b1)))),
                        div(neg(add(inv(a2), inv(a3))), z),
                    ),
                )
                sig2 = sub(sub(neg(inv(b3)), z), div(div(b1, m3(a2, b2, b3)), z))
                _add(counts, self._unit_sum(sig1, sig2))
            if m3(a1, a2, b3) == neg(m3(a3, b1, b2)) and mul(a1, b3) == sub(
                mul(a1, b1), mul(b1, b2)
            ):
                counts[0] += q
        elif kinds == (0, 0, 1):
            (a1, b1), (a2, b2), (c3,) = s1, s2, s3
            target = div(m3(a1, a1, b1), m3(a2, mul(b2, b2), c3))
            aa = sub(sub(m1, div(b2, a1)), div(mul(a2, b2), mul(a1, b1)))
            bb = sub(neg(inv(b2)), div(a1, mul(a2, b2)))
            _add(counts, root_sum(F, 3, target, aa, bb), 0, q)
        elif kinds == (0, 0, 2):
            (a1, b1), (a2, b2), (d3,) = s1, s2, s3
            target = div(mul(a1, mul(b1, b1)), m3(mul(a2, a2), b2, d3))
            aa = sub(sub(m1, div(a2, b1)), div(mul(a2, b2), mul(a1, b1)))
            bb = sub(neg(inv(a2)), div(b1, mul(a2, b2)))
            _add(counts, root_sum(F, 3, target, aa, bb), 0, q)
        elif kinds == (0, 1, 0):
            (a1, b1), (c2,), (a3, b3) = s1, s2, s3
            target = div(mul(b1, c2), m3(a1, mul(a3, a3), b3))
            aa = add(1, div(a3, b1))
            bb = add(add(inv(a1), inv(a3)), div(b1, mul(a3, b3)))
            _add(counts, root_sum(F, 3, target, aa, bb))
        elif kinds == (0, 1, 1):
            (a1, b1), (c2,), (c3,) = s1, s2, s3
            if mul(a1, c3) == neg(mul(c2, b1)):
                counts[trace(div(a1, c2))] += q
        elif kinds == (0, 1, 2):
            (a1, b1), (c2,), (d3,) = s1, s2, s3
            if mul(c2, d3) == neg(mul(a1, mul(b1, b1))):
                counts[trace(sub(div(b1, c2), div(b1, d3)))] += q
        elif kinds == (0, 2, 0):
            (a1, b1), (d2,), (a3, b3) = s1, s2, s3
            target = div(mul(a1, d2), mul(mul(a3, b1), mul(b3, b3)))
            aa = add(1, div(b3, a1))
            bb = add(add(inv(b1), inv(b3)), div(a1, mul(a3, b3)))
            _add(counts, root_sum(F, 3, target, aa, bb))
        elif kinds == (0, 2, 1):
            (a1, b1), (d2,), (c3,) = s1, s2, s3
            if mul(c3, d2) == neg(mul(mul(a1, a1), b1)):
                counts[trace(sub(div(a1, d2), div(a1, c3)))] += q
        elif kinds == (0, 2, 2):
            (a1, b1), (d2,), (d3,) = s1, s2, s3
            if mul(b1, d3) == neg(mul(a1, d2)):
                counts[trace(div(b1, d2))] += q
        elif kinds == (1, 1, 0):
            (c1,), (c2,), (a3, b3) = s1, s2, s3
            if mul(c1, c2) == mul(mul(a3, a3), b3):
                counts[trace(add(div(a3, c1), div(a3, c2)))] += 1
        elif kinds == (1, 1, 2):
            (c1,), (c2,), (d3,) = s1, s2, s3
            if c1 == neg(d3) and c1 == c2:
                counts[0] += q
        elif kinds == (1, 2, 0):
            (c1,), (d2,), (a3, b3) = s1, s2, s3
            if mul(a3, c1) == mul(b3, d2):
                counts[trace(div(a3, d2))] += 1
        elif kinds == (2, 2, 0):
            (d1,), (d2,), (a3, b3) = s1, s2, s3
            if mul(d1, d2) == mul(a3, mul(b3, b3)):
                counts[trace(add(div(b3, d2), div(b3, d1)))] += 1
        elif kinds == (2, 2, 1):
            (d1,), (d2,), (c3,) = s1, s2, s3
            if d1 == neg(c3) and d1 == d2:
                counts[0] += q
        elif kinds not in ((1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 2)):
            raise ValueError(f"no closed form for kinds {kinds}")

    def _f_b2(self, kinds, s1, s2, s3, counts: list) -> None:
        F = self.F
        p, q = F.p, F.q
        add, sub, mul, div, neg, inv, trace = F.add, F.sub, F.mul, F.div, F.neg, F.inv, F.trace
        unit, squares = self._unit_sum, self._sq
        m1 = F.neg(1)

        def m3(a, b, c):
            return mul(mul(a, b), c)

        def legendre(x):
            return 1 if F.is_square(x) else -1

        if kinds == (0, 0, 0):
            (a1, b1), (a2, b2), (a3, b3) = s1, s2, s3
            A, B = div(a1, mul(a2, a3)), div(b1, mul(b2, b3))
            zs = F.rth_roots(B, 2)
            if not zs:
                return
            # branch one: q at Tr(arg) per root pair z1^2 = -A, z2^2 = B on a line
            lhs = sub(div(b2, b1), 1)
            coef = div(m3(a3, b2, b3), mul(a1, b1))
            c1 = sub(add(m1, div(a2, a1)), div(a3, a1))
            c2 = mul(F.of(2), div(b2, b1))
            for z1 in F.rth_roots(neg(A), 2):
                for z2 in zs:
                    if lhs == mul(coef, mul(z1, z2)):
                        counts[trace(add(mul(c1, z1), mul(c2, z2)))] += q
            # branch two: chi(aa) G phi(arg) per root z; G phi(arg) is the sum over
            # x of zeta^(Tr(x^2) + Tr(arg)): the square counts rotated by Tr(arg)
            bb = sub(1, div(a3, a1))
            for z in zs:
                aa = div(mul(a2, a3), m3(a1, b3, z))
                cc = add(z, add(div(inv(b2), z), div(inv(b3), z)))
                s = trace(sub(cc, div(mul(bb, bb), mul(F.of(4), aa))))
                _add(counts, squares, s, legendre(aa))
            # branch three: sum over roots z and units t of phi(outer) times
            # sum_w phi(ka w + kb/w), where outer = o2 t^2 + o1 t + om/t,
            # ka = k4 t^4 + k3 t^3 + k2 t^2 + k1 t - 1, kb = l0 + l1/t + l2/t^2:
            # the unit sum of ka, kb rotated by Tr(outer), read from the trace
            # rows of o2, o1, om.
            tr = self._tr
            tr1 = tr[neg(div(add(mul(a2, A), 1), mul(a2, A)))]
            trm = tr[neg(inv(a3))]
            k4 = neg(inv(m3(b3, mul(A, A), B)))
            k2 = neg(div(add(mul(b3, B), 1), m3(b3, A, B)))
            l0, l2 = neg(inv(b3)), neg(div(A, b2))
            for z in zs:
                tr2 = tr[neg(div(F.of(2), m3(b3, A, z)))]
                k3 = neg(inv(m3(a2, mul(A, A), z)))
                k1 = neg(inv(m3(a2, A, z)))
                l1 = neg(mul(A, z))
                for t, t2, t3, t4, ti, ti2 in self._tpow:
                    s = (tr2[t2] + tr1[t] + trm[ti]) % p
                    ka = add(add(add(mul(k4, t4), mul(k3, t3)), add(mul(k2, t2), mul(k1, t))), m1)
                    kb = add(add(l0, mul(l1, ti)), mul(l2, ti2))
                    _add(counts, unit(ka, kb), s)
        elif kinds == (0, 0, 1):
            (a1, b1), (a2, b2), (c3,) = s1, s2, s3
            for z in F.rth_roots(div(b1, mul(b2, c3)), 2):
                aa = add(
                    sub(
                        sub(sub(m1, div(a1, a2)), div(b2, b1)),
                        div(mul(a2, b2), mul(a1, b1)),
                    ),
                    add(inv(mul(a2, z)), inv(mul(a1, z))),
                )
                bb = sub(z, inv(b2))
                _add(counts, unit(aa, bb), 0, q)
                if a1 == neg(a2) and inv(mul(a1, z)) == sub(div(b2, b1), 1):
                    counts[0] += q * q
        elif kinds == (0, 0, 2):
            (a1, b1), (a2, b2), (d3,) = s1, s2, s3
            for z in F.rth_roots(div(b1, b2), 2):
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
                _add(counts, root_sum(F, q - 1, 1, t2, t3, t1, t4), 0, q)
            if b1 == b2:
                sgn = legendre(neg(div(mul(a2, d3), a1)))
                _add(counts, squares, trace(div(d3, mul(F.of(4), mul(a1, a2)))), sgn * q)
        elif kinds == (0, 1, 0):
            (a1, b1), (c2,), (a3, b3) = s1, s2, s3
            for z in F.rth_roots(div(c2, mul(b1, b3)), 2):
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
                _add(counts, unit(aa, bb))
            if a1 == neg(a3):
                for z in F.rth_roots(div(b1, mul(b3, c2)), 2):
                    if inv(z) == neg(div(c2, b1)):
                        counts[0] += q
        elif kinds == (0, 1, 1):
            (a1, b1), (c2,), (c3,) = s1, s2, s3
            target = m3(b1, c2, c3)
            bb = add(mul(a1, b1), add(c2, c3))
            _add(counts, root_sum(F, 2, target, 0, bb), 0, q)
        elif kinds == (0, 1, 2):
            (a1, b1), (c2,), (d3,) = s1, s2, s3
            pref = trace(sub(neg(div(a1, d3)), div(d3, mul(a1, b1))))
            _add(counts, root_sum(F, 2, div(b1, c2), 1, inv(a1)), pref, q)
        elif kinds == (0, 2, 0):
            (a1, b1), (d2,), (a3, b3) = s1, s2, s3
            for z in F.rth_roots(div(b1, b3), 2):
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
                _add(counts, root_sum(F, q - 1, 1, t2, t3, t1, t4))
            if b1 == b3:
                sgn = legendre(div(mul(a3, d2), mul(a1, b3)))
                dd = sub(1, div(a3, a1))
                arg = neg(
                    mul(
                        div(mul(a1, b3), mul(F.of(4), mul(a3, d2))),
                        mul(dd, dd),
                    )
                )
                _add(counts, squares, trace(arg), sgn)
        elif kinds == (0, 2, 1):
            (a1, b1), (d2,), (c3,) = s1, s2, s3
            pref = trace(add(div(a1, d2), div(d2, mul(a1, b1))))
            _add(counts, root_sum(F, 2, div(b1, c3), 1, inv(a1)), pref, q)
        elif kinds == (0, 2, 2):
            (a1, b1), (d2,), (d3,) = s1, s2, s3
            for z1 in F.rth_roots(neg(div(a1, mul(d2, d3))), 2):
                for z3 in F.rth_roots(neg(div(mul(a1, b1), mul(d2, d3))), 2):
                    arg = add(
                        add(z3, neg(inv(mul(d3, z1)))),
                        add(inv(mul(d2, z1)), mul(F.of(2), div(z1, z3))),
                    )
                    counts[trace(arg)] += q
        elif kinds == (1, 1, 0):
            (c1,), (c2,), (a3, b3) = s1, s2, s3
            target = div(c1, mul(b3, c2))
            bb = add(div(a3, c2), inv(b3))
            _add(counts, root_sum(F, 2, target, 1, bb))
        elif kinds == (1, 1, 2):
            (c1,), (c2,), (d3,) = s1, s2, s3
            if c1 == c2:
                counts[trace(neg(div(d3, c2)))] += q
        elif kinds == (1, 2, 0):
            (c1,), (d2,), (a3, b3) = s1, s2, s3
            pref = trace(add(div(a3, d2), div(d2, mul(b3, a3))))
            _add(counts, root_sum(F, 2, div(b3, c1), 1, inv(a3)), pref)
        elif kinds == (1, 2, 1):
            (c1,), (d2,), (c3,) = s1, s2, s3
            if c1 == c3:
                counts[trace(div(d2, c3))] += q
        elif kinds == (1, 2, 2):
            (c1,), (d2,), (d3,) = s1, s2, s3
            if d2 == neg(d3):
                for z in F.rth_roots(c1, 2):
                    counts[trace(div(z, d3))] += q
        elif kinds == (2, 2, 0):
            (d1,), (d2,), (a3, b3) = s1, s2, s3
            for z1 in F.rth_roots(div(d1, mul(a3, d2)), 2):
                for z3 in F.rth_roots(div(d1, m3(a3, b3, d2)), 2):
                    arg = add(
                        add(neg(z1), neg(inv(mul(d2, z3)))),
                        add(neg(inv(mul(a3, z1))), mul(F.of(2), div(z1, mul(b3, z3)))),
                    )
                    counts[trace(arg)] += 1
        elif kinds == (2, 2, 1):
            (d1,), (d2,), (c3,) = s1, s2, s3
            if d1 == d2:
                _add(counts, root_sum(F, 2, inv(c3), 0, inv(d2)), 0, q)
        elif kinds == (2, 2, 2):
            (d1,), (d2,), (d3,) = s1, s2, s3
            _add(counts, squares, 0, legendre(m3(d1, d2, d3)))
        elif kinds != (1, 1, 1):
            raise ValueError(f"no closed form for kinds {kinds}")

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
            acc = acc + prod.scale(self.char.phi_of(z) - one)
        acc = HeckeVec({b: c.exact_div(q) for b, c in acc.items()})
        if x == F.neg(y):
            acc = acc + HeckeVec({BasisElem(3): CycloNum.from_int(p, q * q)})
        return acc


def _add(counts: list, vec, s: int = 0, m: int = 1) -> None:
    """counts += m * zeta^s * vec, for vec a count vector over exponents 0..p-1."""
    for r, n in enumerate(vec, s):
        counts[r] += m * n


@lru_cache(maxsize=None)
def hecke_algebra(tag: str, field: Field) -> HeckeAlgebra:
    return HeckeAlgebra(tag, field)


def standard_basis(tag: str, field: Field) -> tuple:
    return hecke_algebra(tag, field).basis
