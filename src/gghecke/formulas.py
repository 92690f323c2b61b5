"""Printed closed forms for PGL3(q) (A2) and SO5(q) (B2), an independent route:
it imports only cyclo and gf.

Each kind pattern's form is its own function, built once per field by its
type's factory: it indexes the field's rows F._add, F._mul, F._neg, F._inv and
the trace rows, and returns the p counts of its value over zeta exponents
0..p-1.  A multiple of phi(x) adds at Tr(x), a Gauss-sum term the square counts,
a root sum the counts of cyclo.root_sum over a row of the square- or cube-root
table that Field.rth_roots caches (or over every unit), a sum of phi(a w + b/w)
over units w one Kloosterman row, each rotated by the trace of any phi factor,
mod p; rows summed many times are read pre-rotated from per-field tables.
cyclo.root_sum is looked up per call, so the perfbench tracer's wrapper counts
only while installed."""

from . import cyclo, gf
from .cyclo import CycloNum, kloosterman_counts, square_counts

__all__ = ["ClosedForms"]


class ClosedForms:
    """The closed forms of one algebra, given its trace rows (c -> x -> Tr(cx))."""

    def __init__(self, tag: str, F: gf.Field, tr: list):
        self._p = F.p
        zero, one = (0,) * F.p, (1,) + (0,) * (F.p - 1)
        # (kind of i, kind of j, kind of k), i of the smaller kind -> its form: [i = k]
        # for j = e3, and fXYZ of the type's factory for the kinds (X, Y, Z)
        self._forms = dict.fromkeys([(ki, kj, kk) for ki in range(4) for kj in range(ki, 4)
                                     for kk in range(4)], lambda i, j, k: zero)
        self._forms.update({(kind, 3, kind): lambda i, j, k: one if i == k else zero
                            for kind in range(4)})
        scope = (_a2_forms if tag == "A2" else _b2_forms)(F, tr)
        self._forms.update((tuple(map(int, name[1:])), form) for name, form in scope.items()
                           if name[0] == "f" and name[1:].isdigit())

    def value(self, i, j, k) -> CycloNum:
        """Exact value of the printed closed form for S_{ij}^k: with i the one of smaller
        kind (S_ij^k = S_ji^k), the form of the kinds (i, j, k) is one dict lookup, and
        its p counts are read as one CycloNum.  ValueError for other kinds."""
        if i[0] > j[0]:
            i, j = j, i
        try:
            form = self._forms[i[0], j[0], k[0]]
        except KeyError:
            raise ValueError(f"no closed form for kinds {(i[0], j[0], k[0])}") from None
        return CycloNum.from_zeta_counts(self._p, form(i, j, k))


def _rot(counts, s: int):
    """counts times zeta^s: entry r moves to r + s mod p."""
    return counts[-s:] + counts[:-s]


def _unit_sums(F: gf.Field) -> tuple:
    """(um, rows): the sum over units w of phi(a w + b/w) has the counts
    rows[um[a][b]].  For units a, b, w -> w/a makes it the Kloosterman row ab;
    it is row 0 when just one of a, b is 0, and row q (q - 1 at exponent 0)
    when both are, so um is the multiplication table with um[0][0] = q."""
    q = F.q
    um = [[q] + [0] * (q - 1)] + F._mul[1:]
    return um, kloosterman_counts(F) + ((q - 1,) + (0,) * (F.p - 1),)


def _a2_forms(F: gf.Field, tr: list) -> dict:
    """The scope of A2's forms, fXYZ for the kinds (X, Y, Z); the rest are 0."""
    p, q = F.p, F.q
    A, M, N, I, T = F._add, F._mul, F._neg, F._inv, F._trace
    m1, zero, (um, kl) = N[1], (0,) * p, _unit_sums(F)
    F.rth_roots(1, 3)  # fills the field's table: row a holds the cube roots of a
    cbrt = F._roots_cache[3]
    q2, q3 = (q**2,) + zero[1:], (q**3,) + zero[1:]
    q_at, one_at = ([_rot((n,) + zero[1:], s) for s in range(p)] for n in (q, 1))

    def f000(i, j, k):
        (_, a1, b1), (_, a2, b2), (_, a3, b3) = i, j, k
        ib1, a2b3 = I[b1], M[a2][b3]
        a2b2b3 = M[a2b3][b2]
        # per cube root z of a1 b1^2 / (a2^2 a3 b2 b3^2), the unit sum of
        # sig1 = c0 + c1 z + c2/z and sig2 = d0 - z - d1/z
        c0, c1 = A[m1][N[M[b3][ib1]]], N[A[M[a2b2b3][I[M[a1][b1]]]][M[a2b3][ib1]]]
        c2, d0, d1 = N[A[I[a2]][I[a3]]], N[I[b3]], M[b1][I[a2b2b3]]
        counts = zero
        for z in cbrt[M[M[a1][M[b1][b1]]][I[M[M[M[a2][a2]][a3]][M[b2][M[b3][b3]]]]]]:
            iz = I[z]
            sig1, sig2 = A[c0][A[M[c1][z]][M[c2][iz]]], A[d0][N[A[z][M[d1][iz]]]]
            counts = [a + b for a, b in zip(counts, kl[um[sig1][sig2]])]
        if M[M[a1][a2]][b3] == N[M[M[a3][b1]][b2]] and M[a1][b3] == M[b1][A[a1][N[b2]]]:
            counts = [counts[0] + q, *counts[1:]]
        return counts

    # a root sum over cube roots, with q for a kind-1 or kind-2 k
    def f001(i, j, k):
        (_, a1, b1), (_, a2, b2), (_, c3) = i, j, k
        a2b2 = M[a2][b2]
        target = M[M[M[a1][a1]][b1]][I[M[M[a2b2][b2]][c3]]]
        aa, bb = A[m1][N[A[M[b2][I[a1]]][M[a2b2][I[M[a1][b1]]]]]], N[A[I[b2]][M[a1][I[a2b2]]]]
        return [q * n for n in cyclo.root_sum(F, cbrt[target], aa, bb)]
    def f002(i, j, k):
        (_, a1, b1), (_, a2, b2), (_, d3) = i, j, k
        a2b2 = M[a2][b2]
        target = M[M[a1][M[b1][b1]]][I[M[M[a2b2][a2]][d3]]]
        aa, bb = A[m1][N[A[M[a2][I[b1]]][M[a2b2][I[M[a1][b1]]]]]], N[A[I[a2]][M[b1][I[a2b2]]]]
        return [q * n for n in cyclo.root_sum(F, cbrt[target], aa, bb)]
    def f010(i, j, k):
        (_, a1, b1), (_, c2), (_, a3, b3) = i, j, k
        a3b3 = M[a3][b3]
        target, bb = M[M[b1][c2]][I[M[M[a1][a3]][a3b3]]], A[A[I[a1]][I[a3]]][M[b1][I[a3b3]]]
        return cyclo.root_sum(F, cbrt[target], A[1][M[a3][I[b1]]], bb)
    def f020(i, j, k):
        (_, a1, b1), (_, d2), (_, a3, b3) = i, j, k
        a3b3 = M[a3][b3]
        target, bb = M[M[a1][d2]][I[M[M[b1][b3]][a3b3]]], A[A[I[b1]][I[b3]]][M[a1][I[a3b3]]]
        return cyclo.root_sum(F, cbrt[target], A[1][M[b3][I[a1]]], bb)

    # one multiple of phi(x) on a condition
    def f011(i, j, k):
        (_, a1, b1), (_, c2), (_, c3) = i, j, k
        return q_at[tr[a1][I[c2]]] if M[a1][c3] == N[M[c2][b1]] else zero
    def f012(i, j, k):
        (_, a1, b1), (_, c2), (_, d3) = i, j, k
        return q_at[tr[b1][A[I[c2]][N[I[d3]]]]] if M[c2][d3] == N[M[a1][M[b1][b1]]] else zero
    def f021(i, j, k):
        (_, a1, b1), (_, d2), (_, c3) = i, j, k
        return q_at[tr[a1][A[I[d2]][N[I[c3]]]]] if M[c3][d2] == N[M[M[a1][a1]][b1]] else zero
    def f022(i, j, k):
        (_, a1, b1), (_, d2), (_, d3) = i, j, k
        return q_at[tr[b1][I[d2]]] if M[b1][d3] == N[M[a1][d2]] else zero
    def f110(i, j, k):
        (_, c1), (_, c2), (_, a3, b3) = i, j, k
        return one_at[tr[a3][A[I[c1]][I[c2]]]] if M[c1][c2] == M[M[a3][a3]][b3] else zero
    def f112(i, j, k):
        (_, c1), (_, c2), (_, d3) = i, j, k
        return q_at[0] if c1 == N[d3] and c1 == c2 else zero
    def f120(i, j, k):
        (_, c1), (_, d2), (_, a3, b3) = i, j, k
        return one_at[tr[a3][I[d2]]] if M[a3][c1] == M[b3][d2] else zero
    def f220(i, j, k):
        (_, d1), (_, d2), (_, a3, b3) = i, j, k
        return one_at[tr[b3][A[I[d2]][I[d1]]]] if M[d1][d2] == M[a3][M[b3][b3]] else zero
    def f221(i, j, k):
        (_, d1), (_, d2), (_, c3) = i, j, k
        return q_at[0] if d1 == N[c3] and d1 == d2 else zero

    # k = e3: q^l(w) where e_j inverts e_i
    def f003(i, j, k):
        return q3 if i[1:] == j[:0:-1] else zero
    def f123(i, j, k):
        return q2 if i[1] == N[j[1]] else zero

    return locals()


def _b2_forms(F: gf.Field, tr: list) -> dict:
    """The scope of B2's forms, fXYZ for the kinds (X, Y, Z); the rest are 0."""
    p, q = F.p, F.q
    A, M, N, I, T = F._add, F._mul, F._neg, F._inv, F._trace
    m1, two, four, zero = N[1], F.of(2), F.of(4), (0,) * p
    units, (um, kl), sq = F.units(), _unit_sums(F), square_counts(F)
    F.rth_roots(1, 2)  # fills the field's table: row a holds the square roots of a
    sqrt = F._roots_cache[2]
    q3, q4 = (q**3,) + zero[1:], (q**4,) + zero[1:]
    q_at = [_rot((q,) + zero[1:], s) for s in range(p)]
    chi = [1 if F.is_square(x) else -1 for x in F.elements()]  # 1 at 0, as printed
    tpow = [(t, *(F.pow(t, n) for n in (2, 3, 4, -1, -2))) for t in F.units()]
    # a form of many terms sums rows packed into one int, p fields of w bits,
    # so that adding a rotated row is one int addition.  The sum starts at
    # bias, half of each field's range, so that counts of either sign unpack
    # exactly; no count of one form reaches 4 q^2 in size.
    w = (16 * q * q).bit_length()
    sh = range(0, w * p, w)
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = sum(half << s for s in sh)

    def pack(counts) -> int:
        return sum(n << s for n, s in zip(counts, sh))
    def unpack(acc: int) -> list:
        return [((acc >> s) & mask) - half for s in sh]

    klp = [[pack(_rot(row, s)) for s in range(p)] for row in kl]
    sqp, qp = [pack(_rot(sq, s)) for s in range(p)], [q << s for s in sh]

    def f000(i, j, k):
        (_, a1, b1), (_, a2, b2), (_, a3, b3) = i, j, k
        ia1 = I[a1]
        Aq, Bq = M[a1][I[M[a2][a3]]], M[b1][I[M[b2][b3]]]  # A = a1/(a2 a3), B = b1/(b2 b3)
        if not (zs := sqrt[Bq]):
            return zero
        acc = bias
        # branch one: q at Tr(c1 z1 + c2 z2) per root pair z1^2 = -A, z2^2 = B
        # on the line b2/b1 - 1 = a3 b2 b3/(a1 b1) z1 z2
        b2b1 = M[b2][I[b1]]
        lhs, coef = A[b2b1][m1], M[M[a3][b3]][M[b2b1][ia1]]
        c1, c2 = A[m1][M[A[a2][N[a3]]][ia1]], M[two][b2b1]
        for z1 in sqrt[N[Aq]]:
            cz1 = M[coef][z1]
            for z2 in zs:
                if lhs == M[cz1][z2]:
                    acc += qp[T[A[M[c1][z1]][M[c2][z2]]]]
        # branch two: chi(aa) G phi(arg) per root z, aa = e/z, arg = z + f/z -
        # bb^2/(4 aa); G phi(arg) is the sum over x of zeta^(Tr(x^2) + Tr(arg)):
        # the square counts rotated by Tr(arg)
        bb = A[1][N[M[a3][ia1]]]
        bb2, e, f = M[bb][bb], M[M[a2][a3]][I[M[a1][b3]]], A[I[b2]][I[b3]]
        for z in zs:
            iz = I[z]
            aa = M[e][iz]
            acc += chi[aa] * sqp[T[A[A[z][M[f][iz]]][N[M[bb2][I[M[four][aa]]]]]]]
        # branch three: sum over roots z and units t of phi(outer) times the unit
        # sum of ka, kb, where outer = o2 t^2 + o1 t + om/t, ka = k4 t^4 + k3 t^3 +
        # k2 t^2 + k1 t - 1, kb = l0 + l1/t + l2/t^2: the unit-sum row rotated by
        # Tr(outer), from the trace rows of o2, o1, om and the rows of the k, l
        a2A, b3B = M[a2][Aq], M[b3][Bq]
        tr1, trm = tr[N[M[A[a2A][1]][I[a2A]]]], tr[N[I[a3]]]
        M4, M2 = M[N[I[M[M[b3][M[Aq][Aq]]][Bq]]]], M[N[M[A[b3B][1]][I[M[b3B][Aq]]]]]
        L0, L2 = A[N[I[b3]]], M[N[M[Aq][I[b2]]]]
        for z in zs:
            tr2, L1 = tr[N[M[two][I[M[M[b3][Aq]][z]]]]], M[N[M[Aq][z]]]
            M3, M1 = M[N[I[M[M[a2A][Aq]][z]]]], M[N[I[M[a2A][z]]]]
            for t, t2, t3, t4, ti, ti2 in tpow:
                ka = A[A[M4[t4]][M3[t3]]][A[A[M2[t2]][M1[t]]][m1]]
                kb = L0[A[L1[ti]][L2[ti2]]]
                acc += klp[um[ka][kb]][(tr2[t2] + tr1[t] + trm[ti]) % p]
        return unpack(acc)

    # unit sums or root sums over the units, per root z
    def f001(i, j, k):
        (_, a1, b1), (_, a2, b2), (_, c3) = i, j, k
        ia1, ia2, b2b1 = I[a1], I[a2], M[b2][I[b1]]
        # q times the unit sum of aa = base + e/z and bb = z - 1/b2
        base = A[m1][N[A[A[M[a1][ia2]][b2b1]][M[M[a2][b2b1]][ia1]]]]
        e, nib2, hit = A[ia2][ia1], N[I[b2]], A[b2b1][m1]
        acc = bias
        for z in sqrt[M[b1][I[M[b2][c3]]]]:
            iz = I[z]
            acc += q * klp[um[A[base][M[e][iz]]][A[z][nib2]]][0]
            if a1 == N[a2] and M[ia1][iz] == hit:
                acc += q * q
        return unpack(acc)
    def f002(i, j, k):
        (_, a1, b1), (_, a2, b2), (_, d3) = i, j, k
        ia1, a2d3 = I[a1], M[a2][d3]
        # q times the sum over units of phi(t1 t^2 + t2 t + t3/t + t4/t^2)
        g, t3z, t3c = N[A[M[b2][I[M[a1][b1]]]][ia1]], M[a1][I[a2d3]], N[I[d3]]
        t4 = N[M[a1][I[M[a2d3][b2]]]]
        acc = bias
        for z in sqrt[M[b1][I[b2]]]:
            az = M[ia1][I[z]]
            t1, t2 = M[a2d3][A[M[two][az]][g]], M[d3][A[az][N[ia1]]]
            acc += q * pack(cyclo.root_sum(F, units, t2, A[M[t3z][z]][t3c], t1, t4))
        if b1 == b2:
            acc += chi[N[M[a2d3][ia1]]] * q * sqp[tr[d3][I[M[four][M[a1][a2]]]]]
        return unpack(acc)
    def f010(i, j, k):
        (_, a1, b1), (_, c2), (_, a3, b3) = i, j, k
        ia1, c2b1, a3c2 = I[a1], M[c2][I[b1]], M[a3][c2]
        # the unit sum of aa = ea z + fa and bb = eb z + fb
        ea, fa = N[A[b3][M[M[a3][b3]][ia1]]], N[A[c2b1][M[M[a3][c2b1]][ia1]]]
        eb, fb = N[M[b1][I[a3c2]]], N[A[M[M[a1][b1]][I[M[a3c2][b3]]]][I[c2]]]
        acc = bias
        for z in sqrt[M[c2b1][I[b3]]]:
            acc += klp[um[A[M[ea][z]][fa]][A[M[eb][z]][fb]]][0]
        if a1 == N[a3] and M[b1][b3] == c2:  # -b1/c2 is a square root of b1/(b3 c2)
            acc += q
        return unpack(acc)
    def f020(i, j, k):
        (_, a1, b1), (_, d2), (_, a3, b3) = i, j, k
        ia1, a3d2, ia1b3 = I[a1], M[a3][d2], I[M[a1][b3]]
        # the sum over units of phi(t1 t^2 + t2 t + t3/t + t4/t^2)
        g, a3a1, t3, t4 = A[ia1b3][I[M[a1][b1]]], M[a3][ia1], N[I[a3]], M[a1][I[a3d2]]
        acc = bias
        for z in sqrt[M[b1][I[b3]]]:
            iz = I[z]
            t1, t2 = M[a3d2][A[M[M[two][ia1b3]][iz]][g]], A[m1][N[A[A[z][M[a3a1][iz]]][a3a1]]]
            acc += pack(cyclo.root_sum(F, units, t2, t3, t1, t4))
        if b1 == b3:
            dd = A[1][N[a3a1]]
            arg = N[M[M[M[a1][b3]][I[M[four][a3d2]]]][M[dd][dd]]]
            acc += chi[M[a3d2][ia1b3]] * sqp[T[arg]]
        return unpack(acc)

    # root sums over square roots, rotated by the trace of a phi factor
    def f011(i, j, k):
        (_, a1, b1), (_, c2), (_, c3) = i, j, k
        rs = cyclo.root_sum(F, sqrt[M[M[b1][c2]][c3]], 0, A[M[a1][b1]][A[c2][c3]])
        return [q * n for n in rs]
    def f012(i, j, k):
        (_, a1, b1), (_, c2), (_, d3) = i, j, k
        s = T[N[A[M[a1][I[d3]]][M[d3][I[M[a1][b1]]]]]]
        return [q * n for n in _rot(cyclo.root_sum(F, sqrt[M[b1][I[c2]]], 1, I[a1]), s)]
    def f021(i, j, k):
        (_, a1, b1), (_, d2), (_, c3) = i, j, k
        s = T[A[M[a1][I[d2]]][M[d2][I[M[a1][b1]]]]]
        return [q * n for n in _rot(cyclo.root_sum(F, sqrt[M[b1][I[c3]]], 1, I[a1]), s)]
    def f110(i, j, k):
        (_, c1), (_, c2), (_, a3, b3) = i, j, k
        return cyclo.root_sum(F, sqrt[M[c1][I[M[b3][c2]]]], 1, A[M[a3][I[c2]]][I[b3]])
    def f120(i, j, k):
        (_, c1), (_, d2), (_, a3, b3) = i, j, k
        s = T[A[M[a3][I[d2]]][M[d2][I[M[b3][a3]]]]]
        return _rot(cyclo.root_sum(F, sqrt[M[b3][I[c1]]], 1, I[a3]), s)
    def f221(i, j, k):
        (_, d1), (_, d2), (_, c3) = i, j, k
        return [q * n for n in cyclo.root_sum(F, sqrt[I[c3]], 0, I[d2])] if d1 == d2 else zero
    def f122(i, j, k):
        (_, c1), (_, d2), (_, d3) = i, j, k
        return [q * n for n in cyclo.root_sum(F, sqrt[c1], I[d3], 0)] if d2 == N[d3] else zero

    # multiples of phi(x), one per root pair
    def f022(i, j, k):
        (_, a1, b1), (_, d2), (_, d3) = i, j, k
        x, counts = N[M[a1][I[M[d2][d3]]]], [0] * p  # x = -a1/(d2 d3)
        for z1 in sqrt[x]:
            iz1 = I[z1]
            u = A[N[M[I[d3]][iz1]]][M[I[d2]][iz1]]
            for z3 in sqrt[M[x][b1]]:
                counts[T[A[A[z3][u]][M[two][M[z1][I[z3]]]]]] += q
        return counts
    def f220(i, j, k):
        (_, d1), (_, d2), (_, a3, b3) = i, j, k
        x, counts = M[d1][I[M[a3][d2]]], [0] * p  # x = d1/(a3 d2)
        for z1 in sqrt[x]:
            u = N[A[z1][I[M[a3][z1]]]]
            for z3 in sqrt[M[x][I[b3]]]:
                iz3 = I[z3]
                counts[T[A[A[u][N[M[I[d2]][iz3]]]][M[two][M[z1][M[I[b3]][iz3]]]]]] += 1
        return counts
    def f112(i, j, k):
        (_, c1), (_, c2), (_, d3) = i, j, k
        return q_at[T[N[M[d3][I[c2]]]]] if c1 == c2 else zero
    def f121(i, j, k):
        (_, c1), (_, d2), (_, c3) = i, j, k
        return q_at[tr[d2][I[c3]]] if c1 == c3 else zero

    # the square counts times chi(d1 d2 d3)
    squares = (sq, tuple(-n for n in sq))
    def f222(i, j, k):
        (_, d1), (_, d2), (_, d3) = i, j, k
        return squares[chi[M[M[d1][d2]][d3]] < 0]

    # k = e3: q^l(w) where e_j inverts e_i
    def f003(i, j, k):
        return q4 if i == j else zero
    def f113(i, j, k):
        return q3 if i == j else zero
    def f223(i, j, k):
        return q3 if i[1] == N[j[1]] else zero

    return locals()
