"""Hecke algebra basis, structure constants, closed forms."""
import gc
import itertools
import random

import pytest

from gghecke.chevalley import Group, chevalley_group
from gghecke.cyclo import CycloNum, phi
from gghecke.gf import make_field
from gghecke.hecke import BasisElem, HeckeAlgebra, HeckeVec, hecke_algebra


def test_basis_elem_validation():
    with pytest.raises(ValueError, match="^kind must be 0..3$"):
        BasisElem(5)
    for kind, params in ((0, (1,)), (1, ()), (2, (1, 2)), (3, (1,))):
        with pytest.raises(ValueError, match="^wrong parameter count for kind$"):
            BasisElem(kind, params)
    assert repr(BasisElem(0, (1, 2))) == "e0(1,2)"
    b = BasisElem(1, params=[2])
    assert b.params == (2,) and type(b.params) is tuple


def test_basis_elem_hash_and_equality():
    a, b = BasisElem(0, (1, 2)), BasisElem(0, [1, 2])
    assert a is not b and a == b and hash(a) == hash(b)
    # a point is the flat tuple (kind, *params), never (kind, params)
    assert a == (0, 1, 2) and hash(a) == hash((0, 1, 2))
    assert a != (0, (1, 2)) and a != BasisElem(0, (2, 1))
    assert len({a, b, BasisElem(3)}) == 2
    with pytest.raises(AttributeError):
        a.kind = 1
    # lookups with fresh, equal keys
    H = hecke_algebra("A2", make_field(3))
    for i, e in enumerate(H.basis):
        assert H._tor[BasisElem(e.kind, e.params)][0] == i
    p = 3
    v = HeckeVec({e: CycloNum.from_int(p, 1) for e in H.basis[:2]})
    fresh = [BasisElem(e.kind, e.params) for e in H.basis[:3]]
    assert [v.get(e, p) for e in fresh] == [CycloNum.from_int(p, k) for k in (1, 1, 0)]


@pytest.mark.parametrize("tag,q", [("A2", 2), ("A2", 3), ("A2", 5), ("B2", 3), ("B2", 5)])
def test_basis_shape(tag, q):
    H = hecke_algebra(tag, make_field(q))
    assert len(H.basis) == q * q
    by_kind = {k: [b for b in H.basis if b.kind == k] for k in range(4)}
    assert len(by_kind[0]) == (q - 1) ** 2
    assert len(by_kind[1]) == q - 1
    assert len(by_kind[2]) == q - 1
    assert len(by_kind[3]) == 1
    assert len(set(H.basis)) == q * q


def _whole_element_basis(H):
    """The basis by the reference check: for every Weyl element w and torus
    pair t, n = lift(w) torus(t) is kept when psi(n^{-1} u n) = psi(u),
    through G.multiply, for every root-group generator u = u_k(c) of
    U meet nUn^{-1}.  Returns the torus pairs per w and the (point, torus
    pair) list in basis order."""
    G, F, W = H.G, H.F, H.W

    def psi(u):  # phi of the sum of the two simple-root coordinates
        d1, d2 = G.delta_coords(u)
        return phi(F, F.add(d1, d2))

    def conj(ninv, u, n):
        g = G.multiply(ninv, u, n)
        assert not g.w.length() and g.t == (1, 1) and not any(g.u2), "conjugate left U"
        return g

    found = {}
    for w in W.elements:
        gens = [G.unipotent([c if i == k else 0 for i in range(1, G.N + 1)])
                for k in range(1, G.N + 1) if k not in G.inv_set(W.inv(w))
                for c in F.units()]
        found[w] = []
        for t in itertools.product(F.units(), repeat=2):
            n = G.multiply(G.lift(w), G.torus(*t))
            ninv = G.invert(n)
            if all(psi(conj(ninv, u, n)) == psi(u) for u in gens):
                found[w].append(t)
    w0, w1, w2, w3 = H._bw
    basis = ([(BasisElem(0, t), t) for t in sorted(found[w0])]
             + [(BasisElem(1, t[1:]), t) for t in sorted(found[w1])]
             + [(BasisElem(2, t[:1]), t) for t in sorted(found[w2])]
             + [(BasisElem(3), t) for t in found[w3]])
    return found, basis


@pytest.mark.parametrize(
    "tag,pf",
    [("A2", pf) for pf in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]]
    + [("B2", pf) for pf in [(3, 1), (5, 1), (7, 1), (3, 2)]]
    + [pytest.param("A2", (5, 2), marks=pytest.mark.slow),
       pytest.param("B2", (3, 3), marks=pytest.mark.slow)],
)
def test_basis_matches_whole_element_check(tag, pf):
    # one conjugation per generator and a torus scaling find the same
    # torus pairs, in the same order, as conjugating by each n = lift(w) t
    H = hecke_algebra(tag, make_field(*pf))
    found, basis = _whole_element_basis(H)
    assert {w: H._compatible_tori(w) for w in H.W.elements} == found
    assert H._compute_basis() == basis
    assert [(b, H.point(b)[1]) for b in H.basis] == basis


def test_algebra_is_cached():
    F = make_field(3)
    assert hecke_algebra("A2", F) is hecke_algebra("A2", F)


def test_points_and_lengths():
    H = hecke_algebra("B2", make_field(3))
    bw = H.W.basis_elements()
    assert H.point(BasisElem(0, (2, 1))) == (bw[0], (2, 1))
    assert H.point(BasisElem(1, (2,))) == (bw[1], (1, 2))
    assert H.point(BasisElem(2, (2,))) == (bw[2], (2, 1))
    assert H.point(BasisElem(3)) == (bw[3], (1, 1))
    reps = (BasisElem(0, (1, 1)), BasisElem(1, (1,)), BasisElem(2, (1,)), BasisElem(3))
    assert [H.length(b) for b in reps] == [4, 3, 3, 0]
    with pytest.raises(ValueError):
        H.point(BasisElem(1, (0,)))
    with pytest.raises(ValueError):
        H.point(BasisElem(0, (1, 3)))


def test_group_elem_of_point():
    for tag in ("A2", "B2"):
        H = hecke_algebra(tag, make_field(3))
        G = H.G
        for b in H.basis:
            g = H.group_elem(b)
            w, t = H.point(b)
            assert g == G.multiply(G.lift(w), G.torus(*t))
            assert g.w == w


def test_unit_is_an_identity():
    H = hecke_algebra("A2", make_field(3))
    one = CycloNum.from_int(3, 1)
    e3 = BasisElem(3)
    for b in H.basis:
        assert H.multiply(e3, b) == HeckeVec({b: one})
        assert H.multiply(b, e3) == HeckeVec({b: one})
        assert H.table_formula(e3, b, b) == one
        assert H.table_formula(b, e3, b) == one


def test_structure_constant_rejects_bad_method():
    H = hecke_algebra("A2", make_field(2))
    b = BasisElem(3)
    with pytest.raises(ValueError):
        H.structure_constant(b, b, b, method="bogus")


@pytest.mark.parametrize("bad", [BasisElem(1, (0,)), BasisElem(2, (5,)), BasisElem(0, (1, 7))])
def test_bad_parameters_raise_value_error(bad):
    # a parameter outside F_5^x, in any position, is a ValueError on every path
    H = hecke_algebra("B2", make_field(5))
    b = BasisElem(1, (2,))
    for method in ("fast", "direct", "bogus"):
        for args in ((bad, b, b), (b, bad, b), (b, b, bad)):
            with pytest.raises(ValueError):
                H.structure_constant(*args, method=method)
    for args in ((bad, b), (b, bad)):
        with pytest.raises(ValueError):
            H.multiply(*args)


def test_known_value_at_q3():
    # e_1(1) e_1(1) has coefficient 3 on e_2(2), and that is the only
    # (c1, c2, d) giving 3 together with its inverse pair
    H = hecke_algebra("A2", make_field(3))
    three = CycloNum.from_int(3, 3)
    got = H.structure_constant(BasisElem(1, (1,)), BasisElem(1, (1,)), BasisElem(2, (2,)))
    assert got == three
    assert got.to_dict() == {"p": 3, "coeffs": ["3", "0"]}
    hits = {
        (c1, c2, d)
        for c1 in (1, 2)
        for c2 in (1, 2)
        for d in (1, 2)
        if H.structure_constant(BasisElem(1, (c1,)), BasisElem(1, (c2,)), BasisElem(2, (d,))) == three
    }
    assert hits == {(1, 1, 2), (2, 2, 1)}


@pytest.mark.parametrize("tag,q", [("A2", 2), ("A2", 3), ("B2", 3)])
def test_fast_agrees_with_direct(tag, q):
    H = hecke_algebra(tag, make_field(q))
    for i, j, k in itertools.product(H.basis, repeat=3):
        a = H.structure_constant(i, j, k, method="fast")
        b = H.structure_constant(i, j, k, method="direct")
        assert a == b, (i, j, k)


@pytest.mark.parametrize("tag,q", [("A2", (3,)), ("A2", (2, 2)), ("B2", (3,))])
def test_multiply_agrees_with_direct(tag, q):
    # one bucket walk per kind pattern against coset enumeration per k
    H = hecke_algebra(tag, make_field(*q))
    for i, j in itertools.product(H.basis, repeat=2):
        want = HeckeVec(
            {k: H.structure_constant(i, j, k, method="direct") for k in H.basis}
        )
        assert H.multiply(i, j) == want, (i, j)


class _Logged:
    """A copy of a table side that logs the side's name whenever it is read."""

    def __init__(self, items, side, log):
        super().__init__(items)
        self.side, self.log = side, log


class _Lookups(_Logged, dict):
    def get(self, key, default=None):
        self.log.append(self.side)
        return super().get(key, default)


class _Rows(_Logged, list):
    def __getitem__(self, c):
        self.log.append(self.side)
        return super().__getitem__(c)


def test_single_constant_agrees_with_multiply():
    # a product's plan walks every ratio of its tables, each looked up in the route
    # grid that the plan takes from _route, and never looks a ratio up in an index;
    # a single constant is one ratio lookup.  Each algebra is fresh, so no plan was
    # made before its grids and tables log their reads
    walks, log = set(), []
    for tag, pf in [("A2", (5,)), ("B2", (5,)), ("A2", (2, 2))]:
        H = HeckeAlgebra(tag, make_field(*pf))
        for kinds in itertools.product(range(4), repeat=3):
            tbl = H._reps(kinds)
            tbl["index"] = _Lookups(tbl["index"], "ratio index", log)
        routes = {xz: (_Rows(H._route(*xz)[0], "route grid", log), H._route(*xz)[1])
                  for xz in itertools.product(range(4), repeat=2)}
        H._route = lambda x, z: routes[x, z]
        p = H.F.p
        for i, j in itertools.product(H.basis, repeat=2):
            log.clear()
            prod = H.multiply(i, j)
            walks.update(log)
            for k in H.basis:
                log.clear()
                assert H.structure_constant(i, j, k) == prod.get(k, p), (tag, pf, i, j, k)
                assert log == ["ratio index"], (tag, pf, i, j, k)
    assert walks == {"route grid"}


def test_route_key_with_two_targets_fails_the_build(monkeypatch):
    # t -> c_z(t) is injective on the torus, so each route key has one target;
    # characters that send every target to one key must stop the build
    H = HeckeAlgebra("B2", make_field(5))
    monkeypatch.setattr(Group, "chi_at", lambda self, t, idx: 1)
    with pytest.raises(AssertionError, match="^two route targets share a key$"):
        H._reps((0, 0, 0))
    assert (0, 0, 0) not in H._reptables


@pytest.mark.parametrize(
    "tag,pf",
    [("A2", pf) for pf in [(2,), (3,), (2, 2), (5,), (7,), (2, 3), (3, 2)]]
    + [("B2", pf) for pf in [(3,), (5,), (7,), (3, 2)]],
    ids=[f"A2-{q}" for q in (2, 3, 4, 5, 7, 8, 9)] + [f"B2-{q}" for q in (3, 5, 7, 9)],
)
def test_route_characters_are_the_twist_of_their_key(tag, pf):
    # a k at (z, t) holds kz = chi_t(z^-1 alpha_s); in a pattern with x on the left
    # its route key is cz = 1 / chi_t(z^-1 x alpha_s).  The fast path reads kz off
    # the key as g_x(cz) = chi_{1/cz}(x^-1 alpha_s), folded into the heads at build,
    # and the build does not check it: it is checked here, from the group's characters
    # and the Weyl action, for every x, z and t, so for every k of every pattern
    F = make_field(*pf)
    G = chevalley_group(tag, F)
    W, chi = G.W, G.chi_at
    for x, z in itertools.product(W.basis_elements(), repeat=2):
        zinv, xinv, zinv_x = W.inv(z), W.inv(x), W.mult(W.inv(z), x)
        for t in itertools.product(F.units(), repeat=2):
            kz = tuple(chi(t, W.act(zinv, s)) for s in (1, 2))
            cz = tuple(F.inv(chi(t, W.act(zinv_x, s))) for s in (1, 2))
            g = tuple(chi(tuple(map(F.inv, cz)), W.act(xinv, s)) for s in (1, 2))
            assert g == kz, (x, z, t)


def test_single_constant_miss_is_zero():
    # a triple whose ratio has no entries is zero without a count, and its
    # product holds no such key
    H = hecke_algebra("B2", make_field(5))
    F, zero, misses = H.F, CycloNum.zero(5), 0
    for i, j, k in itertools.product(H.basis, repeat=3):
        (_, tx, _), (_, _, cy), (n, _, _) = H._tor[i], H._tor[j], H._tor[k]
        tbl = H._reps((i.kind, j.kind, k.kind))
        cz = tbl["at"][n]
        r = tuple(F.mul(F.mul(c, a), b) for c, a, b in zip(cz, tx, cy))
        if r not in tbl["index"]:
            misses += 1
            assert H.structure_constant(i, j, k) == zero, (i, j, k)
            assert k not in H.multiply(i, j).coeffs, (i, j, k)
    assert misses == 8952


def test_rep_table_build_pauses_the_collector(monkeypatch):
    # a build runs with the cyclic collector off and leaves it as it found it,
    # also when the build fails
    H, seen = HeckeAlgebra("A2", make_field(3)), []
    build = H._build_reps

    def spy(kinds):
        seen.append(gc.isenabled())
        return build(kinds)

    monkeypatch.setattr(H, "_build_reps", spy)
    assert gc.isenabled()
    tbl = H._reps((0, 0, 0))
    assert gc.isenabled() and seen == [False]
    assert H._reps((0, 0, 0)) is tbl and seen == [False]  # a built table is read back
    gc.disable()
    try:
        H._reps((1, 2, 3))
        assert not gc.isenabled() and seen == [False, False]
    finally:
        gc.enable()

    def broken(kinds):
        raise AssertionError("build failed")

    monkeypatch.setattr(H, "_build_reps", broken)
    with pytest.raises(AssertionError, match="^build failed$"):
        H._reps((3, 3, 3))
    assert gc.isenabled() and (3, 3, 3) not in H._reptables


@pytest.mark.parametrize("tag,q", [("A2", (2, 2)), ("B2", (5,))])
def test_character_table_matches_group(tag, q):
    F = make_field(*q)
    H = hecke_algebra(tag, F)
    G, W = H.G, H.W
    pairs = set()
    # each point (y, t) keeps chi_t(y^-1 alpha_1), chi_t(y^-1 alpha_2), the two
    # characters a sweep reads of it
    for b, (n, t, cy) in H._tor.items():
        y = W.basis_elements()[b.kind]
        assert H.basis[n] == b and H.point(b) == (y, t)
        assert cy == tuple(G.chi_at(t, W.act(W.inv(y), s)) for s in (1, 2)), (b, t)
        pairs.add(t)
    assert pairs == set(itertools.product(F.units(), repeat=2))


@pytest.mark.parametrize("tag,pf", [("A2", (2, 6)), ("B2", (3, 3))], ids=["A2-64", "B2-27"])
def test_setup_reads_two_characters_per_point(monkeypatch, tag, pf):
    # set-up is linear in the basis: past the basis search, each point costs
    # its two sweep characters, whatever the number of roots
    F, calls = make_field(*pf), [0]
    chi_at, compute_basis = Group.chi_at, HeckeAlgebra._compute_basis

    def counted(self, t, idx):
        calls[0] += 1
        return chi_at(self, t, idx)

    def uncounted_search(self):
        before = calls[0]
        out = compute_basis(self)
        calls[0] = before
        return out

    monkeypatch.setattr(Group, "chi_at", counted)
    monkeypatch.setattr(HeckeAlgebra, "_compute_basis", uncounted_search)
    H = HeckeAlgebra(tag, F)
    assert calls[0] == 2 * len(H.basis) == 2 * F.q**2


@pytest.mark.parametrize("tag", ["A2", "B2"])
def test_coefficients_are_ints(tag):
    # every structure constant is an integer combination of powers of zeta
    H = hecke_algebra(tag, make_field(3))
    for i, j, k in itertools.product(H.basis, repeat=3):
        for value in (
            H.structure_constant(i, j, k),
            H.structure_constant(i, j, k, method="direct"),
            H.table_formula(i, j, k),
        ):
            assert all(type(c) is int for c in value), (i, j, k, value)


def test_closed_forms_over_extension_field():
    H = hecke_algebra("A2", make_field(2, 2))
    for i, j, k in itertools.product(H.basis, repeat=3):
        assert H.structure_constant(i, j, k) == H.table_formula(i, j, k), (i, j, k)


def test_b2_longest_word_closed_form_over_f9():
    # kinds (0,0,0) is zero unless b1/(b2 b3) is a square; sample the rest,
    # where all three branches of the closed form run over a non-prime field
    F = make_field(3, 2)
    H = hecke_algebra("B2", F)
    k0 = [b for b in H.basis if b.kind == 0]
    live = [
        (i, j, k)
        for i, j, k in itertools.product(k0, repeat=3)
        if F.is_square(F.div(i.params[1], F.mul(j.params[1], k.params[1])))
    ]
    for i, j, k in random.Random(7).sample(live, 400):
        assert H.table_formula(i, j, k) == H.structure_constant(i, j, k), (i, j, k)


def test_table_formula_validates_params():
    # a parameter outside F_3^x (0, or the out-of-range code 3) in i, j or k,
    # at any kind, is a ValueError
    H = hecke_algebra("A2", make_field(3))
    e, u = BasisElem(1, (1,)), BasisElem(3)
    for bad in (BasisElem(1, (0,)), BasisElem(2, (0,)), BasisElem(0, (1, 0)), BasisElem(2, (3,))):
        for args in ((bad, u, u), (e, bad, e), (e, e, bad)):
            with pytest.raises(ValueError):
                H.table_formula(*args)
    # so is a kind with no closed form, handed to the forms directly
    from gghecke.formulas import ClosedForms

    value = ClosedForms("A2", H.F, H._tr).value
    for args in (((4, 1), e, e), (e, (4, 1), e), (e, e, (4, 1))):
        with pytest.raises(ValueError, match="no closed form"):
            value(*args)


@pytest.mark.parametrize("tag,pf", [("A2", (2, 2)), ("B2", (5,))], ids=["A2-4", "B2-5"])
def test_table_formula_is_one_count_vector(monkeypatch, tag, pf):
    # every closed form adds into one list of zeta counts: no CycloNum
    # arithmetic, and exactly one from_zeta_counts per triple, of p counts
    H = hecke_algebra(tag, make_field(*pf))
    made, from_counts = [], CycloNum.from_zeta_counts

    def counted(p, counts):
        assert len(counts) == p
        made.append(p)
        return from_counts(p, counts)

    def refuse(*args):
        raise AssertionError("CycloNum arithmetic in a closed form")

    for name in ("__add__", "__mul__", "__rmul__", "scale"):
        monkeypatch.setattr(CycloNum, name, refuse)
    monkeypatch.setattr(CycloNum, "from_zeta_counts", staticmethod(counted))
    for n, (i, j, k) in enumerate(itertools.product(H.basis, repeat=3), 1):
        H.table_formula(i, j, k)
        assert len(made) == n, (i, j, k)


def test_hecke_vec_basics():
    p = 3
    one = CycloNum.from_int(p, 1)
    two = CycloNum.from_int(p, 2)
    a, b = BasisElem(1, (1,)), BasisElem(2, (2,))
    v = HeckeVec({a: one}) + HeckeVec({a: one, b: two})
    assert v == HeckeVec({a: two, b: two})
    assert len(v) == 2
    assert v.get(a, p) == two
    assert v.get(BasisElem(3), p) == CycloNum.zero(p)
    assert v.scale(CycloNum.zero(p)) == HeckeVec()
    assert repr(HeckeVec()) == "0"
    # cancellation drops entries
    assert len(HeckeVec({a: one}) + HeckeVec({a: -one})) == 0


@pytest.mark.parametrize("tag,pf", [("A2", (2, 2)), ("A2", (5,)), ("B2", (5,))],
                         ids=["A2-4", "A2-5", "B2-5"])
def test_multiply_builds_a_clean_vec(tag, pf):
    # multiply fills its HeckeVec in place, past the zero filter of
    # HeckeVec.__init__: each product must still be what that filter would give
    H = hecke_algebra(tag, make_field(*pf))
    basis = set(H.basis)
    for i, j in itertools.product(H.basis, repeat=2):
        vec = H.multiply(i, j)
        assert all(any(c) for _, c in vec.items()), (i, j)
        assert all(k in basis for k, _ in vec.items()), (i, j)
        assert HeckeVec(dict(vec.items())) == vec, (i, j)


def test_multiply_drops_zero_constants(monkeypatch):
    # no sweep at the fields above sums to zero, so make some: on a fresh algebra, a
    # fold that zeroes every other distinct count vector must leave exactly the
    # constants of those vectors out of the product, and every other one as it was.
    # A single constant reads the same folds, so it names the zeroed k, folding nothing
    H, fold, seen = HeckeAlgebra("A2", make_field(5)), CycloNum.from_zeta_counts, []
    i, j = H.basis[0], H.basis[1]
    full = hecke_algebra("A2", make_field(5)).multiply(i, j)

    def zeroing(p, counts):
        seen.append(tuple(counts))
        return CycloNum.zero(p) if len(seen) % 2 else fold(p, counts)

    monkeypatch.setattr(CycloNum, "from_zeta_counts", staticmethod(zeroing))
    vec, folded = H.multiply(i, j), len(seen)
    zeroed = {k for k in full.coeffs if H.structure_constant(i, j, k) is H._zero}
    assert len(seen) == folded == len(set(seen)) > 1
    assert zeroed and vec == HeckeVec({k: c for k, c in full.items() if k not in zeroed})


@pytest.mark.parametrize("tag", ["A2", "B2"])
def test_fast_path_folds_each_count_vector_once(monkeypatch, tag):
    # the fast path folds each distinct count vector once per algebra, in whatever
    # order the products come; a single constant reads the same folds, and a zero
    # constant is the algebra's one shared zero
    fold, products, walks = CycloNum.from_zeta_counts, [], []

    def counted(p, counts):
        walks[-1].append(tuple(counts))
        return fold(p, counts)

    monkeypatch.setattr(CycloNum, "from_zeta_counts", staticmethod(counted))
    for order in (1, -1):
        H, folded = HeckeAlgebra(tag, make_field(5)), []
        walks.append(folded)
        pairs = list(itertools.product(H.basis, repeat=2))[::order]
        products.append({(i, j): H.multiply(i, j) for i, j in pairs})
        assert len(folded) == len(set(folded)) == len(H._folds), order
        for i, j in random.Random(f"{tag}-memo").sample(sorted(pairs), 4):
            prod = products[-1][i, j].coeffs
            for k in H.basis:
                c = H.structure_constant(i, j, k)
                assert c == prod[k] if k in prod else c is H._zero, (order, i, j, k)
        assert len(folded) == len(H._folds), order
    assert products[0] == products[1]
    assert set(walks[0]) == set(walks[1])


def test_generation_expand_guards():
    with pytest.raises(ValueError):
        hecke_algebra("B2", make_field(3)).generation_expand(1, 1)
    with pytest.raises(ValueError):
        hecke_algebra("A2", make_field(3)).generation_expand(0, 1)


def test_generation_expand_q2():
    H = hecke_algebra("A2", make_field(2))
    want = HeckeVec({BasisElem(0, (1, 1)): CycloNum.from_int(2, 1)})
    assert H.generation_expand(1, 1) == want
