"""Coset enumeration: subexpression walks, parameter extraction, fixtures.

The extraction fixtures pin the exact coordinates of every factor of the
representatives for the three length-4 walks, over several fields, against
hand-worked values.
"""
import functools
import itertools
import random

import pytest

from gghecke import intersect as intersect_mod
from gghecke.chevalley import chevalley_group
from gghecke.gf import make_field
from gghecke.intersect import (
    MuAssignment,
    build_rep,
    distinguished_subexprs,
    intersect,
    left_coset_key,
    mu_assignments,
    rep_entries,
    rep_to_dict,
)
from gghecke.rootsys import weyl_group


def jset(tag, xi, yi, zi):
    b = weyl_group(tag).basis_elements()
    return [(list(s.jvec), s.types) for s in distinguished_subexprs(b[xi], b[yi], b[zi])]


# (x, y, z) -> walk labels, indexed into basis_elements()
JSETS_A2 = {
    (0, 0, 0): [([0, 0, 0], "BBB"), ([1, 0, 1], "CBA")],
    (0, 0, 1): [([0, 2, 0], "BAB")],
    (0, 0, 2): [([1, 0, 0], "ABB")],
    (0, 1, 0): [([0, 2, 0], "BCB")],
    (0, 1, 1): [([1, 0, 1], "CBA")],
    (0, 1, 2): [([1, 2, 0], "ACB")],
    (0, 2, 0): [([0, 0, 1], "BBC")],
    (0, 2, 1): [([0, 2, 1], "BAC")],
    (0, 2, 2): [([1, 0, 1], "ABC")],
    (1, 1, 0): [([0, 2], "BC")],
    (1, 1, 2): [([1, 2], "AC")],
    (1, 2, 0): [([1, 0], "CB")],
    (2, 1, 3): [([2, 1], "AA")],
    (2, 2, 0): [([0, 1], "BC")],
    (2, 2, 1): [([2, 1], "AC")],
}
JSETS_B2 = {
    (0, 0, 0): [([0, 0, 0, 0], "BBBB"), ([0, 2, 0, 2], "BCBA"), ([1, 0, 1, 0], "CBAB")],
    (0, 0, 1): [([1, 0, 0, 0], "ABBB"), ([1, 2, 0, 2], "ACBA")],
    (0, 0, 2): [([0, 2, 0, 0], "BABB"), ([1, 0, 1, 2], "CBAA")],
    (0, 1, 0): [([0, 0, 1, 0], "BBCB"), ([1, 2, 0, 2], "CCBA")],
    (0, 1, 1): [([1, 0, 1, 0], "ABCB")],
    (0, 1, 2): [([0, 2, 1, 0], "BACB")],
    (0, 2, 0): [([0, 0, 0, 2], "BBBC"), ([1, 0, 1, 2], "CBAC")],
    (0, 2, 1): [([1, 0, 0, 2], "ABBC")],
    (0, 2, 2): [([0, 2, 0, 2], "BABC")],
    (1, 1, 0): [([0, 1, 0], "BCB")],
    (1, 1, 2): [([2, 1, 0], "ACB")],
    (1, 2, 0): [([0, 0, 2], "BBC")],
    (1, 2, 1): [([0, 1, 2], "BAC")],
    (1, 2, 2): [([2, 0, 2], "ABC")],
    (2, 2, 0): [([0, 2, 0], "BCB")],
    (2, 2, 1): [([1, 2, 0], "ACB")],
}


def test_jset_fixtures():
    assert jset("B2", 0, 0, 0) == [([0, 0, 0, 0], "BBBB"), ([0, 2, 0, 2], "BCBA"), ([1, 0, 1, 0], "CBAB")]
    assert jset("A2", 2, 1, 3) == [([2, 1], "AA")]
    assert jset("A2", 0, 1, 2) == [([1, 2, 0], "ACB")]


@pytest.mark.parametrize("tag,table", [("A2", JSETS_A2), ("B2", JSETS_B2)])
def test_jset_columns(tag, table):
    for (x, y, z), want in table.items():
        assert jset(tag, x, y, z) == want, (x, y, z)


def test_mu_assignment_counts():
    # free parameters: one per walk letter, all of F for A, units for B,
    # a forced value for C
    for tag, q in (("A2", 3), ("B2", 3), ("A2", 4)):
        F = make_field(*((2, 2) if q == 4 else (q,)))
        b = weyl_group(tag).basis_elements()
        for xi, yi, zi in itertools.product(range(4), repeat=3):
            for s in distinguished_subexprs(b[xi], b[yi], b[zi]):
                na = s.types.count("A")
                nb = s.types.count("B")
                got = sum(1 for _ in mu_assignments(s, F))
                assert got == q**na * (q - 1) ** nb


@pytest.mark.parametrize("q", [3, 5, 7])
def test_b2_bcba_extraction(q):
    F = make_field(q)
    w0 = weyl_group("B2").basis_elements()[0]
    s = {t.types: t for t in distinguished_subexprs(w0, w0, w0)}["BCBA"]
    for x1 in F.units():
        for x3 in F.units():
            for x4 in F.elements():
                r = build_rep(s, MuAssignment(F, (x1, 1, x3, x4)))
                assert r.head_z == (F.neg(x1), x4, x3, 0)
                assert r.tail_z == (0, 0, 0, 0)
                assert r.t_zero == (F.neg(1), 1)
                x1sq = F.mul(x1, x1)
                assert r.t_mu == (x1sq, F.div(F.mul(x3, x3), x1sq))
                c2 = F.div(
                    F.mul(x1, F.sub(F.mul(x1, x4), F.mul(F.of(2), x3))),
                    F.mul(x3, x3),
                )
                assert r.head_x == (F.inv(x1), c2, F.inv(x3), 0)
                assert r.tail_x == (
                    F.div(F.sub(x3, F.mul(x1, x4)), F.mul(x1, x3)),
                    0,
                    F.inv(x3),
                    F.div(x4, F.mul(x3, x3)),
                )


@pytest.mark.parametrize("q", [3, 5, 7])
def test_b2_cbab_extraction(q):
    F = make_field(q)
    w0 = weyl_group("B2").basis_elements()[0]
    s = {t.types: t for t in distinguished_subexprs(w0, w0, w0)}["CBAB"]
    for x2 in F.units():
        for x3 in F.elements():
            for x4 in F.units():
                r = build_rep(s, MuAssignment(F, (1, x2, x3, x4)))
                assert r.head_z == (x3, F.neg(x4), 0, F.neg(x2))
                assert r.tail_z == (0, 0, 0, 0)
                assert r.t_zero == (1, 1)
                assert r.t_mu == (F.div(x2, x4), F.mul(x4, x4))
                assert r.head_x == (
                    0,
                    F.add(F.inv(x4), F.div(F.mul(x3, x3), x2)),
                    F.neg(F.div(x3, x2)),
                    F.inv(x2),
                )
                assert r.tail_x == (F.div(F.mul(x3, x4), x2), F.inv(x4), 0, F.inv(x2))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_b2_bbbb_extraction(q):
    F = make_field(q)
    w0 = weyl_group("B2").basis_elements()[0]
    s = {t.types: t for t in distinguished_subexprs(w0, w0, w0)}["BBBB"]
    for x1, x2, x3, x4 in itertools.product(F.units(), repeat=4):
        r = build_rep(s, MuAssignment(F, (x1, x2, x3, x4)))
        assert r.head_z == (
            F.neg(F.add(x1, x3)),
            F.neg(F.add(x2, x4)),
            F.neg(F.mul(x2, x3)),
            F.neg(F.mul(x2, F.mul(x3, x3))),
        )
        assert r.tail_z == (0, 0, 0, 0)
        assert r.t_zero == (1, 1)
        x1sq = F.mul(x1, x1)
        assert r.t_mu == (
            F.div(F.mul(x1sq, x2), x4),
            F.div(F.mul(F.mul(x3, x3), F.mul(x4, x4)), x1sq),
        )


def test_a2_w2_w1_coset_counts():
    # (w2 t, w1 t', e) is nonempty exactly when the two torus characters
    # cancel, and then contributes q^2 distinct cosets
    b = weyl_group("A2").basis_elements()
    F2 = make_field(2)
    G2 = chevalley_group("A2", F2)
    reps = intersect(b[2], (1, 1), b[1], (1, 1), b[3], (1, 1), group=G2)
    assert len(reps) == 4
    assert len({left_coset_key(r.g) for r in reps}) == 4
    F3 = make_field(3)
    G3 = chevalley_group("A2", F3)
    for d in F3.units():
        for c in F3.units():
            reps = intersect(b[2], (d, 1), b[1], (1, c), b[3], (1, 1), group=G3)
            want = 9 if c == F3.neg(d) else 0
            assert len(reps) == want, (d, c)
            assert len({left_coset_key(r.g) for r in reps}) == len(reps)


def test_b2_cbab_toral_condition():
    # full sweep at q = 3: the CBAB walk survives exactly on the locus
    # a1 = a2 a3 x2/x4, b1 = b2 b3 x4^2
    F = make_field(3)
    G = chevalley_group("B2", F)
    w0 = weyl_group("B2").basis_elements()[0]
    for a1, b1, a2, b2, a3, b3 in itertools.product(F.units(), repeat=6):
        reps = intersect(w0, (a1, b1), w0, (a2, b2), w0, (a3, b3), group=G)
        got = {r.mu.values for r in reps if r.j.types == "CBAB"}
        want = set()
        for x2 in F.units():
            for x3 in F.elements():
                for x4 in F.units():
                    if a1 == F.mul(F.mul(a2, a3), F.div(x2, x4)) and b1 == F.mul(
                        F.mul(b2, b3), F.mul(x4, x4)
                    ):
                        want.add((1, x2, x3, x4))
        assert got == want, (a1, b1, a2, b2, a3, b3)


def test_both_factorizations_multiply_back():
    for tag, q in (("A2", 3), ("B2", 3)):
        F = make_field(q)
        G = chevalley_group(tag, F)
        b = weyl_group(tag).basis_elements()
        for xi, yi, zi in [(0, 0, 0), (0, 1, 2), (1, 1, 0), (2, 2, 1)]:
            reps = intersect(b[xi], (1, 1), b[yi], (1, 1), b[zi], (1, 1), group=G)
            for r in reps:
                assert G.multiply(*r.uxu) == r.g
                assert G.multiply(*r.zuy) == r.g


def test_rep_to_dict_shape():
    F = make_field(3)
    G = chevalley_group("A2", F)
    b = weyl_group("A2").basis_elements()
    reps = intersect(b[0], (1, 1), b[0], (1, 1), b[0], (1, 1), group=G)
    assert reps
    for r in reps:
        d = rep_to_dict(r)
        assert sorted(d) == ["j", "mu", "rep", "t_0", "t_mu", "type", "uxu", "zuy"]
        assert len(d["uxu"]) == 3 and len(d["zuy"]) == 3


@pytest.mark.parametrize("tag,q,reps", [("A2", (2, 2), 366), ("B2", (5,), 3338)])
def test_build_rep_matches_uncached_derivations(tag, q, reps):
    # build_rep derives n_x t_mu, n_z^{-1} and the toral product once per
    # input and reads the z-side tail off h = n_z^{-1} g; recompute each
    # without those shortcuts for every representative of every kind pattern
    F = make_field(*q)
    G = chevalley_group(tag, F)
    W = G.W
    b = W.basis_elements()
    count = 0
    for x, y, z in itertools.product(b, repeat=3):
        zinv = G.invert(G.lift(z))
        for sub in distinguished_subexprs(x, y, z):
            for mu in mu_assignments(sub, F):
                r = build_rep(sub, mu)
                assert r.uxu[1] == G.multiply(G.lift(x), G.torus(*r.t_mu))
                h = G.multiply(zinv, r.g)
                assert (h.u, h.u2) == (r.head_z, r.tail_z)
                t0e = G.multiply(G.lift(y), G.torus(*h.t), G.lift(W.inv(y)))
                assert t0e == G.torus(*r.t_zero)
                v = r.zuy[1]
                assert v == G.unipotent(h.u)
                assert r.zuy[2] == G.multiply(G.invert(v), h)
                count += 1
    assert count == reps, count


@pytest.mark.parametrize(
    "tag,pf,reps",
    [("A2", (2, 2), 366), ("A2", (7,), 1728), ("A2", (2, 3), 2518), ("A2", (3, 2), 3516),
     ("B2", (3,), 482), ("B2", (5,), 3338),
     pytest.param("B2", (3, 2), 31562, marks=pytest.mark.slow)],
    ids=["A2-4", "A2-7", "A2-8", "A2-9", "B2-3", "B2-5", "B2-9"],
)
def test_rep_entries_match_build_rep(tag, pf, reps):
    # rep_entries walks one tuple per torus orbit, extending the prefixes of
    # D_j(mu) one letter at a time, and scales its coordinates for the rest
    # of the orbit; build_rep rewrites the whole word, twice, and multiplies
    # both shapes back.  Every representative of every kind pattern goes
    # through both, in order, so the cell checks that derived entries skip
    # are made here for each of them.
    F = make_field(*pf)
    b = weyl_group(tag).basis_elements()
    count = 0
    for x, y, z in itertools.product(b, repeat=3):
        for sub in distinguished_subexprs(x, y, z):
            want = []
            for mu in mu_assignments(sub, F):
                r = build_rep(sub, mu)
                dv = F.trace(F.add(r.head_z[0], r.head_z[1]))
                dw = (F.sub(r.tail_x[0], r.tail_z[0]), F.sub(r.tail_x[1], r.tail_z[1]))
                want.append((r.t_zero, r.t_mu, (dv, r.head_x[0], r.head_x[1]) + dw))
            assert list(rep_entries(sub, F)) == want, sub
            count += len(want)
    assert count == reps, count


def _atoms(N, i, c, m):
    """Letter i of type B or A with parameter m, as engine atoms."""
    return [("u", i + N, m)] if c == "B" else [("u", i, m), ("n", i, 1)]


@functools.lru_cache(maxsize=None)
def _engine_push(G, x, types, a):
    """A torus a pushed left to right through the word of x by the rewriting
    engine alone: at each letter L, a' = n_i^-1 a n_i (a at B), and
    a L(1) a'^-1 is looked up among the normal forms of L(s).  Returns the
    scales s of the A and B positions, and the end torus e with
    a D_j(mu) e^-1 = D_j(scaled mu)."""
    scales = []
    for i, c in zip(x.word, types):
        n = G.lift(G.W.simple(i))
        after = G.multiply(G.invert(n), G.torus(*a), n) if c != "B" else G.torus(*a)
        assert after == G.torus(*after.t)
        if c != "C":
            lhs = G.multiply(G.torus(*a), G.normal_form(_atoms(G.N, i, c, 1)), G.invert(after))
            (s,) = [s for s in G.F.units() if G.normal_form(_atoms(G.N, i, c, s)) == lhs]
            scales.append(s)
        a = after.t
    return scales, a


def _scaled(F, sub, scales, values):
    it = iter(scales)
    return tuple(v if c == "C" else F.mul(next(it), v) for c, v in zip(sub.types, values))


@pytest.mark.parametrize(
    "tag,pf,sample", [("A2", (3,), None), ("A2", (2, 2), None), ("B2", (5,), 600)],
    ids=["A2-3", "A2-4", "B2-5"],
)
def test_sandwich_matches_multiply(tag, pf, sample):
    # D_j(a.mu) = a D_j(mu) e^-1, read off the rewriting engine, against the
    # scales and per-torus factors that derive every rep-table entry off an
    # orbit representative: at every (subexpression, mu) of A2/F_3 and A2/F_4
    # and at a seeded sample of B2/F_5, each with the identity and three tori
    F = make_field(*pf)
    G = chevalley_group(tag, F)
    rng = random.Random(15)
    units = list(F.units())
    b = G.W.basis_elements()
    leaves = [(sub, mu) for x, y, z in itertools.product(b, repeat=3)
              for sub in distinguished_subexprs(x, y, z) for mu in mu_assignments(sub, F)]
    if sample is not None:
        leaves = rng.sample(leaves, sample)
    mul = F.mul
    for sub, mu in leaves:
        betas, roots = intersect_mod._orbit_roots(G, sub)
        r = build_rep(sub, mu)
        for a in [(1, 1)] + [(rng.choice(units), rng.choice(units)) for _ in range(3)]:
            scales, e = _engine_push(G, sub.x, sub.types, a)
            assert [G.chi_at(a, k) for k in betas if k] == scales, (sub, a)
            s = build_rep(sub, MuAssignment(F, _scaled(F, sub, scales, mu.values)))
            assert G.multiply(G.torus(*a), r.g, G.invert(G.torus(*e))) == s.g
            a1, a2, z1, z2, e1, e2, m1, m2, o1, o2 = intersect_mod._torus_factors(G, roots, a)
            assert (a1, a2, e1, e2) == (*a, *e), (sub, a)
            assert (mul(a1, r.head_x[0]), mul(a2, r.head_x[1])) == s.head_x[:2]
            assert (mul(z1, r.head_z[0]), mul(z2, r.head_z[1])) == s.head_z[:2]
            for j, ej in enumerate((e1, e2)):
                assert mul(ej, F.sub(r.tail_x[j], r.tail_z[j])) == F.sub(s.tail_x[j], s.tail_z[j])
            assert (mul(r.t_mu[0], m1), mul(r.t_mu[1], m2)) == s.t_mu
            assert (mul(r.t_zero[0], o1), mul(r.t_zero[1], o2)) == s.t_zero


@pytest.mark.parametrize("tag,pf,orbits", [("A2", (2, 2), 66), ("B2", (5,), 244)],
                         ids=["A2-4", "B2-5"])
def test_rep_entries_walk_one_leaf_per_orbit(monkeypatch, tag, pf, orbits):
    # rep_entries walks, and checks through _checked, exactly the first tuple
    # of each T-orbit in mu_assignments order; the orbits are counted here by
    # brute force from the scales that _engine_push reads off the rewriting
    # engine.  Every t_zero it yields is an involution.
    F = make_field(*pf)
    G = chevalley_group(tag, F)
    calls = []
    checked = intersect_mod._checked
    monkeypatch.setattr(intersect_mod, "_checked", lambda *args: calls.append(1) or checked(*args))
    tori = list(itertools.product(F.units(), repeat=2))
    b = G.W.basis_elements()
    total = 0
    for x, y, z in itertools.product(b, repeat=3):
        for sub in distinguished_subexprs(x, y, z):
            pushes = [_engine_push(G, sub.x, sub.types, a)[0] for a in tori]
            want = sum(1 for mu in mu_assignments(sub, F) if mu.values == min(
                _scaled(F, sub, scales, mu.values) for scales in pushes))
            before = len(calls)
            for t0, _, _ in rep_entries(sub, F):
                assert F.mul(t0[0], t0[0]) == 1 and F.mul(t0[1], t0[1]) == 1
            assert len(calls) - before == want, sub
            total += want
    assert total == len(calls) == orbits


def test_derived_t_zero_is_checked(monkeypatch):
    # the involution check on every yielded t_zero is live: a factor that
    # moves t_zero off the involutions (2^2 = 4 in F_5) must raise
    F = make_field(5)
    factors = intersect_mod._torus_factors
    monkeypatch.setattr(intersect_mod, "_torus_factors",
                        lambda *args: factors(*args)[:8] + (F.of(2), 1))
    w0 = weyl_group("B2").basis_elements()[0]
    for sub in distinguished_subexprs(w0, w0, w0):
        with pytest.raises(AssertionError, match="not an involution"):
            list(rep_entries(sub, F))
