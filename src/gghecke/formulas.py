"""Printed closed forms for PGL3(q) (A2) and SO5(q) (B2), an independent route:
it imports only cyclo and gf.  cyclo.root_sum is looked up per call, so the
perfbench tracer's wrapper of that name counts only while it is installed."""

from . import cyclo, gf
from .cyclo import CycloNum, kloosterman_counts, square_counts

__all__ = ["ClosedForms"]


class ClosedForms:
    """The closed forms of one algebra, given its trace rows (c -> x -> Tr(cx))."""

    def __init__(self, tag: str, F: gf.Field, tr: list):
        self.tag, self.F, self._tr = tag, F, tr
        # t^n (n = 1, 2, 3, 4, -1, -2) per unit t; Kloosterman and square counts
        self._tpow = [tuple(F.pow(t, n) for n in (1, 2, 3, 4, -1, -2)) for t in F.units()]
        self._kl, self._sq = kloosterman_counts(F), square_counts(F)

    def value(self, i, j, k) -> CycloNum:
        """Exact value of the printed closed form for S_{ij}^k.

        Every case adds into one list of counts over zeta exponents 0..2p-2
        (a trace, or a count vector rotated by a trace); exponent k + p is zeta^k,
        so the list is folded to p counts and read as one CycloNum.
        """
        p = self.F.p
        counts = [0] * (2 * p - 1)
        ki, kj, kk, s1, s2, s3 = i.kind, j.kind, k.kind, i.params, j.params, k.params
        if 3 in (ki, kj):
            counts[0] = int((j if ki == 3 else i) == k)
        elif kk == 3:
            self._unit_column((ki, kj), s1, s2, counts)
        else:
            if ki > kj:
                ki, kj, s1, s2 = kj, ki, s2, s1
            fn = self._f_a2 if self.tag == "A2" else self._f_b2
            fn((ki, kj, kk), s1, s2, s3, counts)
        counts = [a + b for a, b in zip(counts, counts[p:])] + [counts[p - 1]]
        return CycloNum.from_zeta_counts(p, counts)

    def _unit_sum(self, a: int, b: int) -> tuple:
        """Count vector of the sum over units w of phi(a w + b/w).  For units a, b,
        w -> w/a makes it row ab of the Kloosterman counts; it is row 0 when just
        one of a, b is 0, and q - 1 at residue 0 when both are."""
        return self._kl[self.F.mul(a, b)] if a or b else (self.F.q - 1,)

    def _unit_column(self, kinds: tuple, s: tuple, t: tuple, counts: list) -> None:
        """Coefficient of the unit: q^l(w) where e_j (params t) inverts e_i (params s)."""
        F = self.F
        opp = s[0] == F.neg(t[0])
        # kinds of i and j -> (whether e_j inverts e_i, l(w))
        if self.tag == "A2":
            cases = {(0, 0): (s == t[::-1], 3), (1, 2): (opp, 2), (2, 1): (opp, 2)}
        else:
            cases = {(0, 0): (s == t, 4), (1, 1): (s == t, 3), (2, 2): (opp, 3)}
        ok, length = cases.get(kinds, (False, 0))
        if ok:
            counts[0] += F.q**length

    def _f_a2(self, kinds, s1, s2, s3, counts: list) -> None:
        F = self.F
        q = F.q
        add, sub, mul, div, neg, inv, trace = F.add, F.sub, F.mul, F.div, F.neg, F.inv, F.trace
        root_sum = cyclo.root_sum
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
        root_sum = cyclo.root_sum
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


def _add(counts: list, vec, s: int = 0, m: int = 1) -> None:
    """counts += m * zeta^s * vec, for vec a count vector over exponents 0..p-1."""
    for r, n in enumerate(vec, s):
        counts[r] += m * n
