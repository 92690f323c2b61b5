"""Brute-force cross-checks, independent of the intersect/hecke code paths.

Everything here works from first principles in the finite group: |U| e,
for the idempotent e, is expanded as an explicit group-algebra vector over
Z[zeta_p], double-coset intersections are found by scanning U-translates,
and structure constants come out either by summing psi-values over the
scanned cosets (mode 1) or by convolving |U|^2 e*n_i*e with |U|^2 e*n_j*e,
extracting one coefficient and dividing it by |U|^3 exactly (mode 2).  Slow
on purpose; budgets are explicit and exceeding one is an error, never
silent truncation.
"""

import itertools

from .chevalley import Group, GroupElem, chevalley_group
from .cyclo import CycloNum, phi
from .gf import Field
from .hecke import BasisElem, HeckeAlgebra, hecke_algebra
from .intersect import left_coset_key

__all__ = [
    "BudgetExceeded",
    "enumerate_group",
    "brute_intersect",
    "brute_constant",
    "idempotent",
    "ene",
]

DEFAULT_BUDGET = 200_000


class BudgetExceeded(ValueError):
    """The requested enumeration is larger than the configured budget: a bad
    argument, which the CLI reports with exit status 2."""


def _guard(size: int, budget: int, what: str):
    if size > budget:
        raise BudgetExceeded(f"{what} needs {size} elements, budget {budget}")


def enumerate_group(tag: str, field: Field, budget: int = DEFAULT_BUDGET):
    """(order, iterator over every normal form exactly once)."""
    G = chevalley_group(tag, field)
    n = G.order()
    _guard(n, budget, f"{tag} over F_{field.q}")
    return n, G.iter_elements()


def _all_unipotents(G: Group) -> list:
    space = list(G.F.elements())
    return [G.unipotent(c) for c in itertools.product(space, repeat=G.N)]


def _psi_inv_table(G: Group, units) -> dict:
    F = G.F
    out = {}
    for u in units:
        d1, d2 = G.delta_coords(u.u)
        out[u] = phi(F, F.neg(F.add(d1, d2)))
    return out


def brute_intersect(
    point_x: tuple,
    point_y: tuple,
    point_z: tuple,
    group: Group,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Left U-cosets of U(xt_x)U meet (zt_z)U(yt_y)^{-1}U, by scanning.

    Each point is (GroupElem of the lifted Weyl part, toral GroupElem).
    Membership of g in (zt_z)U(yt_y)^{-1}U is read off the Bruhat normal
    form of (zt_z)^{-1} g: its Weyl part must be y^{-1} and its torus the
    one of (yt_y)^{-1}.  Returns {coset key: representative}.
    """
    G = group
    F = G.F
    _guard(F.q**G.N, budget, "U-scan")
    xt = G.multiply(*point_x)
    yt = G.multiply(*point_y)
    zt = G.multiply(*point_z)
    want_w = G.W.inv(point_y[0].w)
    want_t = G.invert(yt).t
    ztinv = G.invert(zt)
    out = {}
    for u1 in _all_unipotents(G):
        g = G.multiply(u1, xt)
        h = G.multiply(ztinv, g)
        if h.w != want_w or h.t != want_t:
            continue
        out.setdefault(left_coset_key(g), g)
    return out


def idempotent(H: HeckeAlgebra, budget: int = DEFAULT_BUDGET) -> dict:
    """|U| e = sum of psi(u^{-1}) u, as {GroupElem: CycloNum}; e is this / |U|."""
    G, F = H.G, H.F
    _guard(F.q**G.N, budget, "U-scan")
    return _psi_inv_table(G, _all_unipotents(G))


def ene(H: HeckeAlgebra, b: BasisElem, budget: int = DEFAULT_BUDGET) -> dict:
    """|U|^2 e n_b e as a sparse group-algebra vector (e as in idempotent)."""
    G, F = H.G, H.F
    _guard((F.q**G.N) ** 2, budget, "U x U scan")
    n = H.group_elem(b)
    units = _all_unipotents(G)
    psi_inv = _psi_inv_table(G, units)
    out = {}
    for u in units:
        un = G.multiply(u, n)
        pu = psi_inv[u]
        for v in units:
            g = G.multiply(un, v)
            c = pu * psi_inv[v]
            if g in out:
                out[g] = out[g] + c
            else:
                out[g] = c
    return {g: c for g, c in out.items() if not c.is_zero()}


def vec_convolve(G: Group, a: dict, b: dict) -> dict:
    out = {}
    for g, cg in a.items():
        for h, ch in b.items():
            gh = G.multiply(g, h)
            c = cg * ch
            if gh in out:
                out[gh] = out[gh] + c
            else:
                out[gh] = c
    return {g: c for g, c in out.items() if not c.is_zero()}


def vec_equal(a: dict, b: dict) -> bool:
    return {g: c for g, c in a.items() if not c.is_zero()} == {
        g: c for g, c in b.items() if not c.is_zero()
    }


def brute_constant(
    H: HeckeAlgebra,
    i: BasisElem,
    j: BasisElem,
    k: BasisElem,
    mode: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> CycloNum:
    """S_{ij}^k from scratch.

    Mode 1 evaluates the coset-sum formula over brute_intersect's
    representatives: for each gU, with g = u (xt_x) u' and
    (zt_z)^{-1} g = n_{y^{-1}}-form h, the summand is
    psi(v) psi(u'')^{-1}... reduced here to phi(Dv + Du'' - Du - Du')
    where D is the sum of the two simple-root coordinates.

    Mode 2 convolves E_i = e n_i e with E_j and extracts the coefficient
    at n_k: S = |U| q^{l_i + l_j} (E_i * E_j)(n_k).  ene gives |U|^2 E_i,
    so the integral product is divided by |U|^3 = q^{3N} once, exactly.
    """
    G, F = H.G, H.F
    if mode == 2:
        Ei = ene(H, i, budget=budget)
        Ej = ene(H, j, budget=budget)
        nk = H.group_elem(k)
        acc = CycloNum.zero(F.p)
        for h, c in Ei.items():
            c2 = Ej.get(G.multiply(G.invert(h), nk))
            if c2 is not None:
                acc = acc + c * c2
        return acc.scale(F.q ** (H.length(i) + H.length(j))).exact_div(F.q ** (3 * G.N))
    if mode != 1:
        raise ValueError("mode must be 1 or 2")
    x, tx = H.point(i)
    y, ty = H.point(j)
    z, tz = H.point(k)
    px = (G.lift(x), G.torus(*tx))
    py = (G.lift(y), G.torus(*ty))
    pz = (G.lift(z), G.torus(*tz))
    xt = G.multiply(*px)
    yt = G.multiply(*py)
    zt = G.multiply(*pz)
    cosets = brute_intersect(px, py, pz, G, budget=budget)
    one = (F.of(1), F.of(1))

    def usum(e):
        if e.w.length() or e.t != one or any(e.u2):
            raise AssertionError("factor is not unipotent")
        d1, d2 = G.delta_coords(e.u)
        return F.add(d1, d2)

    counts = [0] * F.p
    for g in cosets.values():
        u = G.unipotent(g.u)
        uprime = G.multiply(G.invert(xt), G.invert(u), g)
        h = G.multiply(G.invert(zt), g)
        v = G.unipotent(h.u)
        udd = G.multiply(yt, G.invert(v), h)
        arg = F.sub(
            F.add(usum(v), usum(udd)), F.add(usum(u), usum(uprime))
        )
        counts[F.trace(arg)] += 1
    return CycloNum.from_zeta_counts(F.p, counts)
