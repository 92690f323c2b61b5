"""Rank-2 root systems and their Weyl groups."""
import pytest

from gghecke.rootsys import EQUAL, GREATER, LESS, WeylElem, root_system, weyl_group


def test_root_data():
    a2, b2 = root_system("A2"), root_system("B2")
    assert a2.n_pos == 3 and b2.n_pos == 4
    assert a2.pos == ((1, 0), (0, 1), (1, 1))
    assert b2.pos == ((1, 0), (0, 1), (1, 1), (2, 1))
    for rs in (a2, b2):
        for idx in range(1, 2 * rs.n_pos + 1):
            assert rs.index(rs.root(idx)) == idx
            assert rs.is_root(rs.root(idx))
        assert not rs.is_root((5, 5))
    # long roots of B2 have norm 4
    assert [b2.norm(i) for i in range(1, 5)] == [2, 4, 2, 4]
    assert all(a2.norm(i) == 2 for i in range(1, 7))


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
    assert WA.longest().word == (1, 2, 1)
    assert WB.longest().word == (1, 2, 1, 2)


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
        assert W.inversions(W.longest()) == tuple(range(1, n + 1))


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
                assert W.descent(w, 0, y) == EQUAL
                wy = W.mult(w, y)
                for s in (1, 2):
                    d = W.descent(w, s, y)
                    swy = W.mult(W.simple(s), wy)
                    assert d == (LESS if swy.length() < wy.length() else GREATER)


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
    assert {w: i for i, w in enumerate(W.elements)}[WeylElem(W.longest().perm, ())] == 7
    assert len(set(W.elements)) == 8
