"""Rank-2 root systems and their Weyl groups."""
import pytest

from gghecke.rootsys import WeylElem, root_system, weyl_group


def root_norms(rs) -> dict:
    """(beta, beta) by root index, short roots of norm 2, from the Cartan matrix:
    cartan[i-1][j-1] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i), so the simple norms
    n_1 : n_2 = -cartan[1][0] : -cartan[0][1] and (alpha_1, alpha_2) = cartan[0][1] n_1 / 2."""
    (_, c12), (c21, _) = rs.cartan
    n1, n2 = -c21, -c12
    assert c12 * n1 == c21 * n2  # the form is symmetric
    norm = {idx: c1 * c1 * n1 + c1 * c2 * c12 * n1 + c2 * c2 * n2
            for idx in range(1, 2 * rs.n_pos + 1) for c1, c2 in [rs.root(idx)]}
    short = min(norm.values())
    return {idx: 2 * v // short for idx, v in norm.items()}


def test_root_data():
    a2, b2 = root_system("A2"), root_system("B2")
    assert a2.n_pos == 3 and b2.n_pos == 4
    assert a2.pos == ((1, 0), (0, 1), (1, 1))
    assert b2.pos == ((1, 0), (0, 1), (1, 1), (2, 1))
    for rs in (a2, b2):
        for idx in range(1, 2 * rs.n_pos + 1):
            assert rs.index(rs.root(idx)) == idx
    # long roots of B2 have norm 4
    assert [root_norms(b2)[i] for i in range(1, 9)] == [2, 4, 2, 4] * 2
    assert set(root_norms(a2).values()) == {2}


def test_root_index_out_of_range():
    rs = root_system("A2")
    with pytest.raises(ValueError):
        rs.root(7)
    with pytest.raises(ValueError):
        rs.index((2, 1))


def test_reflect_is_an_involution():
    for tag in ("A2", "B2"):
        rs = root_system(tag)
        for i in (1, 2):
            for idx in range(1, 2 * rs.n_pos + 1):
                assert rs.reflect(i, rs.reflect(i, idx)) == idx
        # s_i permutes the positive roots other than alpha_i
        for i in (1, 2):
            others = [idx for idx in range(1, rs.n_pos + 1) if idx != i]
            assert sorted(rs.reflect(i, idx) for idx in others) == others


def test_group_orders_and_longest():
    WA, WB = weyl_group("A2"), weyl_group("B2")
    assert len(WA.elements) == 6
    assert len(WB.elements) == 8
    # basis_elements()[0] is the longest element w_0
    for W, word in ((WA, (1, 2, 1)), (WB, (1, 2, 1, 2))):
        assert max(W.elements, key=WeylElem.length) == W.basis_elements()[0]
        assert W.basis_elements()[0].word == word


def test_basis_elements():
    WA, WB = weyl_group("A2"), weyl_group("B2")
    assert [w.word for w in WA.basis_elements()] == [(1, 2, 1), (1, 2), (2, 1), ()]
    assert [w.word for w in WB.basis_elements()] == [(1, 2, 1, 2), (2, 1, 2), (1, 2, 1), ()]
    assert [w.length() for w in WA.basis_elements()] == [3, 2, 2, 0]
    assert [w.length() for w in WB.basis_elements()] == [4, 3, 3, 0]


def test_group_axioms():
    for tag in ("A2", "B2"):
        W = weyl_group(tag)
        for a in W.elements:
            assert W.mult(a, W.inv(a)) == W.identity
            assert W.inv(a).length() == a.length()
            for b in W.elements:
                ab = W.mult(a, b)
                assert ab in W.elements
                assert W.inv(ab) == W.mult(W.inv(b), W.inv(a))
                # (ab)(beta) = a(b(beta)); a transposed table passes the rest
                assert ab.perm == tuple(a.perm[k - 1] for k in b.perm)


def test_word_round_trips():
    for tag in ("A2", "B2"):
        W = weyl_group(tag)
        for w in W.elements:
            assert W.from_word(w.word) == w
            assert W.from_word(int(ch) for ch in w.digits()) == w
        s1, s2 = W.simple(1), W.simple(2)
        assert W.from_word((1, 1)) == W.identity
        assert W.from_word((1, 2)) == W.mult(s1, s2)


def test_inversion_sets():
    for tag in ("A2", "B2"):
        W = weyl_group(tag)
        n = W.rs.n_pos
        for w in W.elements:
            inv = W.inversions(w)
            assert len(inv) == w.length()
            for idx in range(1, n + 1):
                assert (W.act(w, idx) > n) == (idx in inv)
        assert W.inversions(W.basis_elements()[0]) == tuple(range(1, n + 1))


def test_action_is_a_homomorphism():
    for tag in ("A2", "B2"):
        W = weyl_group(tag)
        n2 = 2 * W.rs.n_pos
        for a in W.elements:
            for b in W.elements:
                ab = W.mult(a, b)
                for idx in range(1, n2 + 1):
                    assert W.act(ab, idx) == W.act(a, W.act(b, idx))


def test_descent_tracks_length():
    for tag in ("A2", "B2"):
        W = weyl_group(tag)
        for w in W.elements:
            for y in W.elements:
                wy = W.mult(w, y)
                for s in (1, 2):
                    swy = W.mult(W.simple(s), wy)
                    assert W.descent(w, s, y) is (swy.length() < wy.length())


def test_weyl_elem_hash_and_equality():
    # the hash is computed once per element; equal but distinct elements
    # must still compare and hash equal, and look up the same dict entry
    W = weyl_group("B2")
    for w in W.elements:
        twin = WeylElem(w.perm, w.word)
        assert twin is not w and twin == w and hash(twin) == hash(w)
        # equality reads perm only, as before
        assert WeylElem(w.perm, ()) == w
        assert repr(twin) == repr(w)
        with pytest.raises(AttributeError):
            twin.perm = ()
    assert {w: i for i, w in enumerate(W.elements)}[WeylElem(W.basis_elements()[0].perm, ())] == 7
    assert len(set(W.elements)) == 8
