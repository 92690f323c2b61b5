"""End-to-end acceptance checks, one per shipped guarantee.

Each test sweeps its full advertised scope, records a single PASS/FAIL
line for the run summary, and fails loudly with the first few offending
cases.  Everything here is exact equality; no tolerances anywhere.
"""
import itertools
import random
import time

import pytest
from conftest import record
from test_intersect import JSETS_A2, JSETS_B2, jset

from gghecke.chevalley import chevalley_group
from gghecke.cyclo import CycloNum, gauss_sum, kloosterman, phi
from gghecke.gf import make_field
from gghecke.hecke import BasisElem, HeckeVec, hecke_algebra
from gghecke.intersect import (
    MuAssignment,
    build_rep,
    distinguished_subexprs,
    intersect,
    left_coset_key,
)
from gghecke.oracle import brute_constant, brute_intersect
from gghecke.rootsys import weyl_group


def _report(num, name, ok, extra=""):
    tail = f" [{extra}]" if extra else ""
    record(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


def _table_sweep(tag, fq):
    H = hecke_algebra(tag, make_field(*fq))
    bad = []
    for i, j, k in itertools.product(H.basis, repeat=3):
        if H.structure_constant(i, j, k) != H.table_formula(i, j, k):
            bad.append((i, j, k))
    return len(H.basis) ** 3, bad


def test_criterion_1_a2_closed_forms():
    t0 = time.time()
    checked, bad = 0, []
    for fq in ((2,), (3,), (2, 2), (5,), (7,)):
        n, b = _table_sweep("A2", fq)
        checked += n
        bad += b
    elapsed = time.time() - t0
    ok = not bad and elapsed < 600
    _report(1, "A2 closed forms, q in {2,3,4,5,7}", ok, f"{checked} checks, {elapsed:.1f}s")
    assert ok, bad[:5] or f"over budget: {elapsed:.1f}s"


def test_criterion_2_b2_closed_forms():
    t0 = time.time()
    checked, bad = 0, []
    for fq in ((3,), (5,)):
        n, b = _table_sweep("B2", fq)
        checked += n
        bad += b
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1800
    _report(2, "B2 closed forms, q in {3,5}", ok, f"{checked} checks, {elapsed:.1f}s")
    assert ok, bad[:5] or f"over budget: {elapsed:.1f}s"


def test_criterion_3_oracle_equivalence():
    checked, bad = 0, []
    for tag, q in (("A2", 2), ("A2", 3), ("B2", 3)):
        H = hecke_algebra(tag, make_field(q))
        G = H.G
        for i, j, k in itertools.product(H.basis, repeat=3):
            checked += 1
            if brute_constant(H, i, j, k, mode=1) != H.structure_constant(i, j, k):
                bad.append(("constant", tag, q, i, j, k))
                continue
            x, tx = H.point(i)
            y, ty = H.point(j)
            z, tz = H.point(k)
            px = (G.lift(x), G.torus(*tx))
            py = (G.lift(y), G.torus(*ty))
            pz = (G.lift(z), G.torus(*tz))
            brute = set(brute_intersect(px, py, pz, G))
            fast = {left_coset_key(r.g) for r in intersect(x, tx, y, ty, z, tz, group=G)}
            if brute != fast:
                bad.append(("cosets", tag, q, i, j, k))
    ok = not bad
    _report(3, "brute-force oracle, A2 q in {2,3} and B2 q=3", ok, f"{checked} triples")
    assert ok, bad[:5]


def test_criterion_4_enumeration_fixtures():
    bad = []
    if jset("B2", 0, 0, 0) != [([0, 0, 0, 0], "BBBB"), ([0, 2, 0, 2], "BCBA"), ([1, 0, 1, 0], "CBAB")]:
        bad.append("B2 (0,0,0) walk set")
    if jset("A2", 2, 1, 3) != [([2, 1], "AA")]:
        bad.append("A2 (2,1,3) walk set")
    for tag, table in (("A2", JSETS_A2), ("B2", JSETS_B2)):
        for (x, y, z), want in table.items():
            if jset(tag, x, y, z) != want:
                bad.append((tag, x, y, z))
    for q in (3, 5, 7):
        F = make_field(q)
        w0 = weyl_group("B2").basis_elements()[0]
        subs = {s.types: s for s in distinguished_subexprs(w0, w0, w0)}
        for x1, x3, x4 in itertools.product(F.units(), F.units(), F.elements()):
            r = build_rep(subs["BCBA"], MuAssignment(F, (x1, 1, x3, x4)))
            x1sq = F.mul(x1, x1)
            if r.t_zero != (F.neg(1), 1) or r.t_mu != (x1sq, F.div(F.mul(x3, x3), x1sq)):
                bad.append(("BCBA", q, (x1, x3, x4)))
        for x2, x3, x4 in itertools.product(F.units(), F.elements(), F.units()):
            r = build_rep(subs["CBAB"], MuAssignment(F, (1, x2, x3, x4)))
            if r.t_zero != (1, 1) or r.t_mu != (F.div(x2, x4), F.mul(x4, x4)):
                bad.append(("CBAB", q, (x2, x3, x4)))
        for xs in itertools.product(F.units(), repeat=4):
            r = build_rep(subs["BBBB"], MuAssignment(F, xs))
            x1, x2, x3, x4 = xs
            x1sq = F.mul(x1, x1)
            want = (
                F.div(F.mul(x1sq, x2), x4),
                F.div(F.mul(F.mul(x3, x3), F.mul(x4, x4)), x1sq),
            )
            if r.t_zero != (1, 1) or r.t_mu != want:
                bad.append(("BBBB", q, xs))
    ok = not bad
    _report(4, "walk sets and torus extraction fixtures", ok)
    assert ok, bad[:5]


def test_criterion_5_character_sums():
    bad = []
    fields = [make_field(*fq) for fq in ((2,), (3,), (2, 2), (5,), (7,), (2, 3), (3, 2))]
    for F in fields:
        q, p = F.q, F.p
        for a in F.elements():
            full = CycloNum.zero(p)
            for x in F.elements():
                full = full + phi(F, F.mul(a, x))
            if full != CycloNum.from_int(p, q if a == 0 else 0):
                bad.append(("linear", q, a))
            for b in F.elements():
                lhs = CycloNum.zero(p)
                rhs = CycloNum.zero(p)
                for x in F.units():
                    lhs = lhs + phi(F, F.add(F.mul(a, x), F.div(b, x)))
                    rhs = rhs + phi(F, F.add(x, F.div(F.mul(a, b), x)))
                if a == 0 and b == 0:
                    rhs = rhs + CycloNum.from_int(p, q)
                if lhs != rhs:
                    bad.append(("unit-sum", q, a, b))
        for r in (2, 3):
            for d, a, c in itertools.product(F.units(), repeat=3):
                acc = CycloNum.zero(p)
                for z in F.rth_roots(d, r):
                    for x in F.elements():
                        acc = acc + phi(F, F.mul(x, F.sub(a, F.mul(c, z))))
                hit = F.pow(F.div(a, c), r) == d
                if acc != CycloNum.from_int(p, q if hit else 0):
                    bad.append(("root-restricted", q, r, d, a, c))
        for ell in (1, 2, 3):
            for a in F.elements():
                for b in F.elements():
                    if kloosterman(F, ell, 1, a, b) != kloosterman(F, ell, 1, b, a):
                        bad.append(("symmetry", q, ell, a, b))
    for q, f in ((2, 1), (4, 2), (8, 3)):
        if gauss_sum(make_field(2, f)) != CycloNum.zero(2):
            bad.append(("gauss", q))
    for q in (5, 13):
        G = gauss_sum(make_field(q))
        if G * G != CycloNum.from_int(q, q):
            bad.append(("gauss", q))
    for q in (3, 7, 11):
        G = gauss_sum(make_field(q))
        if G * G != CycloNum.from_int(q, -q):
            bad.append(("gauss", q))
    ok = not bad
    _report(5, "character sum identities, q <= 9 plus Gauss values", ok)
    assert ok, bad[:5]


def test_criterion_6_generation_identity():
    # the identity pins psi and the basis labels, which a Galois twist of every
    # constant keeps duality and associativity blind to; F_8, F_9 and F_16 run the
    # product sweep in extension fields
    bad = []
    for pf in ((2,), (3,), (5,), (7,), (2, 3), (3, 2), (11,), (2, 4)):
        H = hecke_algebra("A2", make_field(*pf))
        q, one = H.F.q, CycloNum.from_int(H.F.p, 1)
        for x in H.F.units():
            for y in H.F.units():
                want = HeckeVec({BasisElem(0, (x, y)): one})
                if H.generation_expand(x, y) != want:
                    bad.append((q, x, y))
    ok = not bad
    _report(6, "kind-1 by kind-2 products generate the kind-0 line, "
            "A2 q in {2,3,5,7,8,9,11,16}", ok)
    assert ok, bad[:5]


def test_criterion_7_group_census():
    bad = []
    for tag, q, want in (("A2", 2, 168), ("A2", 3, 5616), ("B2", 3, 51840)):
        G = chevalley_group(tag, make_field(q))
        if G.order() != want:
            bad.append((tag, q, "order", G.order()))
        keys = set(G.iter_elements())  # equal and hashed by (u, t, w, u2)
        if len(keys) != want:
            bad.append((tag, q, "distinct normal forms", len(keys)))
    ok = not bad
    _report(7, "census 168 / 5616 / 51840 with unique normal forms", ok)
    assert ok, bad


def test_criterion_8_commutativity_associativity():
    bad = []
    sampled = 0
    for tag in ("A2", "B2"):
        H = hecke_algebra(tag, make_field(3))
        rng = random.Random(2026)
        prods = {}

        def mult(a, b):
            if (a, b) not in prods:
                prods[(a, b)] = H.multiply(a, b)
            return prods[(a, b)]

        for _ in range(100):
            i, j, k = (rng.choice(H.basis) for _ in range(3))
            sampled += 1
            if mult(i, j) != mult(j, i):
                bad.append(("commutativity", tag, i, j))
            left = HeckeVec()
            for m, c in mult(i, j).items():
                left = left + mult(m, k).scale(c)
            right = HeckeVec()
            for m, c in mult(j, k).items():
                right = right + mult(i, m).scale(c)
            if left != right:
                bad.append(("associativity", tag, i, j, k))
    ok = not bad
    _report(8, "commutative and associative on sampled triples, q=3", ok, f"{sampled} triples")
    assert ok, bad[:5]
