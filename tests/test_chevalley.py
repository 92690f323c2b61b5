"""Group engine: relations, normal forms, and the adjoint representation.

The adjoint check rebuilds the Lie algebra over Q from the seeded structure
constants (`_N_SEEDS`), verifies the Jacobi identity symbolically, reduces
mod p, and compares matrix products against the engine's normal forms on
random words.  The same matrices pin the engine's sign table
`chevalley._ETA`: each of its 28 entries is read off Ad(n_i(1)), since the
rewriting tests alone never read some of them.
"""
import itertools
import random
from fractions import Fraction
from functools import lru_cache, reduce

import pytest

from gghecke.chevalley import _ETA, chevalley_group
from gghecke.gf import make_field
from gghecke.rootsys import root_system

# Chevalley structure constants N(alpha, beta) fixed by the commutator
# relations in the chevalley module docstring; build_ad closes them under
# antisymmetry, negation and the zero-sum-triple proportionality
_N_SEEDS = {
    "A2": {((1, 0), (0, 1)): 1},
    "B2": {((1, 0), (0, 1)): 1, ((1, 0), (1, 1)): 2},
}


def test_eta_tables_are_stable():
    # every sign of the engine's table, read off Ad(n_i(1)) over F_5 (where
    # +1 and -1 differ): column b has one nonzero entry, eta(i, b) at s_i b
    F = make_field(5)
    for tag in ("A2", "B2"):
        rs = root_system(tag)
        eta = _ETA[tag]
        word_mat = _adjoint_word_mat(tag, F)
        idxs = range(1, 2 * rs.n_pos + 1)
        assert set(eta) == {(i, b) for i in (1, 2) for b in idxs}
        for i in (1, 2):
            m = word_mat([("n", i, 1)])
            for b in idxs:
                col = {r + 1: m[r][b - 1] for r in range(len(m)) if m[r][b - 1]}
                assert col == {rs.reflect(i, b): F.of(eta[(i, b)])}, (tag, i, b)
        # n_i^2 = h_i(-1): eta(i, b) eta(i, s_i b) = (-1)^<b, alpha_i^vee>
        for (i, b), e in eta.items():
            assert e * eta[(i, rs.reflect(i, b))] == (-1) ** rs.pairing(rs.root(b), i)


def test_one_parameter_subgroups():
    for tag, q in (("A2", 5), ("B2", 3)):
        G = chevalley_group(tag, make_field(q))
        F = G.F
        for idx in range(1, G.N + 1):
            for a in F.elements():
                for b in F.elements():
                    got = G.normal_form([("u", idx, a), ("u", idx, b)])
                    coords = [0] * G.N
                    coords[idx - 1] = F.add(a, b)
                    assert got == G.unipotent(coords)


def test_weyl_lift_relations():
    for tag, q in (("A2", 4), ("B2", 3)):
        G = chevalley_group(tag, make_field(*((2, 2) if q == 4 else (q,))))
        F = G.F
        for i in (1, 2):
            for t in F.units():
                assert G.normal_form([("n", i, t), ("n", i, F.neg(t))]) == G.identity()
            # n_i(t) = u_i(t) u_{-i}(-1/t) u_i(t)
            n = G.normal_form([("n", i, 1)])
            built = G.normal_form(
                [("u", i, 1), ("u", i + G.N, F.neg(1)), ("u", i, 1)]
            )
            assert n == built
    # the lift table built with the group is the product of n_i(1) over the word
    for tag, F in (("A2", make_field(2, 2)), ("B2", make_field(5))):
        G = chevalley_group(tag, F)
        for w in G.W.elements:
            assert G.lift(w) == G.normal_form([("n", i, 1) for i in w.word])


def test_torus_conjugation():
    for tag, q in (("A2", 3), ("B2", 5)):
        G = chevalley_group(tag, make_field(q))
        F = G.F
        rs = G.rs
        for t1 in F.units():
            for t2 in F.units():
                T = G.torus(t1, t2)
                Tinv = G.invert(T)
                for idx in range(1, G.N + 1):
                    for c in F.units():
                        coords = [0] * G.N
                        coords[idx - 1] = c
                        u = G.unipotent(coords)
                        conj = G.multiply(T, u, Tinv)
                        p1, p2 = rs.root(idx)
                        scale = F.mul(F.pow(t1, p1), F.pow(t2, p2))
                        want = [0] * G.N
                        want[idx - 1] = F.mul(scale, c)
                        assert conj == G.unipotent(want)
                        # t u t^{-1} scales each coordinate by chi_t at its root
                        assert conj.u == tuple(
                            F.mul(G.chi_at(T.t, i + 1), c) if c else 0
                            for i, c in enumerate(coords)
                        )


def test_delta_coords_homomorphism():
    G = chevalley_group("B2", make_field(3))
    F = G.F
    random.seed(5)
    for _ in range(200):
        a = G.unipotent([random.randrange(F.q) for _ in range(G.N)])
        b = G.unipotent([random.randrange(F.q) for _ in range(G.N)])
        da, db = G.delta_coords(a), G.delta_coords(b)
        dab = G.delta_coords(G.multiply(a, b))
        assert dab == (F.add(da[0], db[0]), F.add(da[1], db[1]))


def _random_words(G, count, seed):
    random.seed(seed)
    q = G.F.q
    out = []
    for _ in range(count):
        word = []
        for _ in range(random.randrange(1, 8)):
            r = random.random()
            if r < 0.55:
                word.append(("u", random.randrange(1, 2 * G.N + 1), random.randrange(q)))
            elif r < 0.8:
                word.append(("n", random.randrange(1, 3), random.randrange(1, q)))
            else:
                word.append(("T", random.randrange(1, q), random.randrange(1, q)))
        out.append(word)
    return out


def test_group_axioms_on_random_words():
    for tag, fq in (("A2", (3,)), ("B2", (3,)), ("A2", (2, 2))):
        G = chevalley_group(tag, make_field(*fq))
        words = _random_words(G, 60, seed=11)
        elems = [G.normal_form(w) for w in words]
        for g in elems:
            assert G.multiply(g, G.invert(g)) == G.identity()
            assert G.invert(G.invert(g)) == g
        for g, h, k in zip(elems, elems[1:], elems[2:]):
            assert G.multiply(G.multiply(g, h), k) == G.multiply(g, h, k)
        # expansion round-trips through normal_form
        for g in elems:
            assert G.normal_form(G.expansion(g)) == g


def test_census_a2_q2():
    G = chevalley_group("A2", make_field(2))
    assert G.order() == 168
    seen = {g.key() for g in G.iter_elements()}
    assert len(seen) == 168


def test_foreign_element_rejected():
    G2 = chevalley_group("A2", make_field(2))
    G3 = chevalley_group("A2", make_field(3))
    with pytest.raises(ValueError):
        G2.multiply(G2.identity(), G3.identity())
    with pytest.raises(ValueError):
        G2.normal_form([], start=G3.identity())
    with pytest.raises(ValueError):
        G2.unipotent((0, 0))


# -- adjoint representation cross-check ------------------------------------------


@lru_cache(maxsize=None)
def build_ad(tag):
    """ad matrices over Q for the 2N + 2 basis vectors, Jacobi-verified."""
    rs = root_system(tag)
    n = rs.n_pos

    def radd(a, b):
        ra, rb = rs.root(a), rs.root(b)
        return (ra[0] + rb[0], ra[1] + rb[1])

    N = {}

    def put(k, v):
        if k in N:
            assert N[k] == v, (k, N[k], v)
            return False
        N[k] = v
        return True

    for (ra, rb), v in _N_SEEDS[tag].items():
        put((rs.index(ra), rs.index(rb)), Fraction(v))

    def neg(a):
        return a + n if a <= n else a - n

    ch = True
    while ch:
        ch = False
        for (a, b), v in list(N.items()):
            ch |= put((b, a), -v)
            ch |= put((neg(a), neg(b)), -v)
            c = neg(rs.index(radd(a, b)))
            ch |= put((b, c), v * rs.norm(a) / rs.norm(c))
            ch |= put((c, a), v * rs.norm(b) / rs.norm(c))

    dim = 2 * n + 2
    mats = {}
    for a in range(1, 2 * n + 1):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for b in range(1, 2 * n + 1):
            s = radd(a, b)
            if s == (0, 0):
                # [e_a, e_{-a}] is the coroot of root(a) in the alpha_i^vee basis
                c1, c2 = rs.root(a)
                for i, ci in ((1, c1), (2, c2)):
                    m[2 * n + i - 1][b - 1] = Fraction(ci * rs.norm(i), rs.norm(a))
            elif rs.is_root(s):
                m[rs.index(s) - 1][b - 1] = N[(a, b)]
        for i in (1, 2):
            m[a - 1][2 * n + i - 1] = -Fraction(rs.pairing(rs.root(a), i))
        mats[a] = m

    for i in (1, 2):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for b in range(1, 2 * n + 1):
            m[b - 1][b - 1] = Fraction(rs.pairing(rs.root(b), i))
        mats[2 * n + i] = m

    def bracket(x, y):
        return [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(dim))
                 for j in range(dim)] for i in range(dim)]

    # basis vectors ARE their ad matrices, so ad being a Lie homomorphism
    # reduces to [ad e_a, ad e_b] = ad([e_a, e_b]) with the bracket read off
    # column b of ad(e_a)
    basis = [mats[k] for k in range(1, dim + 1)]
    for a in range(dim):
        for b in range(dim):
            lhs = bracket(basis[a], basis[b])
            col = [basis[a][r][b] for r in range(dim)]
            exp = [[sum(col[k] * basis[k][i][j] for k in range(dim))
                    for j in range(dim)] for i in range(dim)]
            assert lhs == exp, (a + 1, b + 1)
    return rs, n, dim, mats


def _adjoint_word_mat(tag, F):
    rs, n, dim, mats = build_ad(tag)

    def red(fr):
        return F.mul(F.of(fr.numerator % F.p), F.inv(F.of(fr.denominator % F.p)))

    U = {}
    for a in range(1, 2 * n + 1):
        m = mats[a]
        m2 = [[sum(m[i][k] * m[k][j] for k in range(dim)) for j in range(dim)]
              for i in range(dim)]
        m3 = [[sum(m2[i][k] * m[k][j] for k in range(dim)) for j in range(dim)]
              for i in range(dim)]
        assert all(all(c == 0 for c in r) for r in m3), "nilpotency degree > 3"
        U[a] = (tuple(tuple(red(c) for c in r) for r in m),
                tuple(tuple(red(c / 2) for c in r) for r in m2))

    I = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))

    def matmul(A, B):
        return tuple(tuple(
            reduce(lambda s, k: F.add(s, F.mul(A[i][k], B[k][j])), range(dim), 0)
            for j in range(dim)) for i in range(dim))

    def u_mat(idx, c):
        A1, A2h = U[idx]
        c2 = F.mul(c, c)
        return tuple(tuple(
            F.add(F.add(I[i][j], F.mul(c, A1[i][j])), F.mul(c2, A2h[i][j]))
            for j in range(dim)) for i in range(dim))

    def atom_mat(atom):
        k = atom[0]
        if k == "u":
            return u_mat(atom[1], atom[2])
        if k == "n":
            i, t = atom[1], atom[2]
            m = u_mat(i, t)
            m = matmul(m, u_mat(i + n, F.neg(F.inv(t))))
            return matmul(m, u_mat(i, t))
        _, c1, c2 = atom
        d = [[0] * dim for _ in range(dim)]
        for b in range(1, 2 * n + 1):
            p = rs.root(b)
            d[b - 1][b - 1] = F.mul(F.pow(c1, p[0]), F.pow(c2, p[1]))
        d[2 * n][2 * n] = d[2 * n + 1][2 * n + 1] = 1
        return tuple(tuple(r) for r in d)

    def word_mat(word):
        m = I
        for a in word:
            m = matmul(m, atom_mat(a))
        return m

    return word_mat


@pytest.mark.parametrize(
    "tag,fq,count",
    [("A2", (3,), 150), ("A2", (2, 2), 80), ("B2", (3,), 150), ("B2", (5,), 60),
     # extension fields, where the 2 a3 c and sign terms of the law collapse
     ("A2", (2, 3), 80), ("B2", (3, 2), 60)],
)
def test_normal_form_matches_adjoint(tag, fq, count):
    F = make_field(*fq)
    G = chevalley_group(tag, F)
    word_mat = _adjoint_word_mat(tag, F)
    for word in _random_words(G, count, seed=13):
        g = G.normal_form(word)
        assert word_mat(word) == word_mat(G.expansion(g))


@pytest.mark.parametrize("tag,fq", [("A2", (2, 2)), ("B2", (5,))], ids=["A2-4", "B2-5"])
def test_normal_form_from_start(tag, fq):
    # normal_form(word, start=g) is g * word: against multiply, against the
    # word expansion(g) + word from the identity, and in the adjoint
    # representation; g itself is left unchanged
    F = make_field(*fq)
    G = chevalley_group(tag, F)
    word_mat = _adjoint_word_mat(tag, F)
    words = _random_words(G, 40, seed=17)
    for s, word in zip(words, words[7:] + words[:7]):
        g = G.normal_form(s)
        key = g.key()
        got = G.normal_form(word, start=g)
        assert got == G.multiply(g, G.normal_form(word))
        assert got == G.normal_form(G.expansion(g) + word)
        assert word_mat(G.expansion(got)) == word_mat(s + word)
        assert g.key() == key
    assert G.normal_form(words[0], start=G.identity()) == G.normal_form(words[0])


def test_adjoint_is_faithful_a2_q2():
    F = make_field(2)
    G = chevalley_group("A2", F)
    word_mat = _adjoint_word_mat("A2", F)
    images = {word_mat(G.expansion(g)) for g in G.iter_elements()}
    assert len(images) == G.order()


# -- the coordinate law on U, against the adjoint matrices ------------------------


def _u_atoms(coords):
    return [("u", k + 1, c) for k, c in enumerate(coords) if c]


@pytest.mark.parametrize(
    "tag,fq",
    [("A2", (2, 2)), ("A2", (2, 3)), ("A2", (3, 2)),
     ("B2", (3,)), ("B2", (5,)), ("B2", (7,)), ("B2", (3, 2))],
)
def test_coordinate_law_matches_adjoint(tag, fq):
    # a random word of positive root elements, multiplied out one factor at a
    # time by the closed-form law, is the same matrix as the word itself
    F = make_field(*fq)
    G = chevalley_group(tag, F)
    word_mat = _adjoint_word_mat(tag, F)
    rng = random.Random(17)
    for _ in range(40):
        word = [("u", rng.randrange(1, G.N + 1), rng.randrange(F.q))
                for _ in range(rng.randrange(1, 9))]
        coords = [0] * G.N
        for _, k, c in word:
            G._times(coords, k, c)
        assert word_mat(_u_atoms(coords)) == word_mat(word)


@pytest.mark.parametrize("tag,fq", [("A2", (2, 2)), ("B2", (3,))])
def test_splits_match_adjoint(tag, fq):
    # every u of U, split for every w: u = u_out * u_in with u_in on the
    # inversion set of w and u_out off it; and u = v * u_i(a_i) for the
    # v = u * u_i(-a_i) that n_i absorption uses
    F = make_field(*fq)
    G = chevalley_group(tag, F)
    word_mat = _adjoint_word_mat(tag, F)
    for u in itertools.product(F.elements(), repeat=G.N):
        m = word_mat(_u_atoms(u))
        for w in G.W.elements:
            inv = G.inv_set(w)
            out, inn = G._split(w, u)
            assert all(not c or k + 1 in inv for k, c in enumerate(inn))
            assert all(not c or k + 1 not in inv for k, c in enumerate(out))
            assert word_mat(_u_atoms(out) + _u_atoms(inn)) == m
        for i in (1, 2):
            v = list(u)
            G._times(v, i, F.neg(u[i - 1]))
            assert v[i - 1] == 0
            assert word_mat(_u_atoms(v) + [("u", i, u[i - 1])]) == m
