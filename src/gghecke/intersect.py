"""Left U-coset representatives of double-coset intersections.

For Weyl elements x, y, z and torus parts t_x, t_y, t_z, the set

    U (x' ) U  meet  z' U (y')^{-1} U,    x' = lift(x) t_x,  etc.

is a finite union of cosets gU.  Representatives are parametrized by
distinguished subexpressions j of the fixed reduced word of x together
with a tuple mu of root-group parameters: positions are scanned from the
right, each position is either omitted (type B, only allowed at descents
of the running product times y) or chosen (type A at descents, C at
ascents), and the end condition requires the chosen product to equal
z y^{-1}.  Parameter domains are F_q at A positions, F_q^x at B
positions, and the fixed value 1 at C positions.

Each (j, mu) yields a generator word D_j(mu).  From its Bruhat normal
form, the U x U shape, we read off the unipotent head/tail and the torus
t_mu; translating by lift(z)^{-1} exposes the z-side head/tail and the
involutive correction torus t_0.  The toral condition then selects, for
given (t_x, t_y, t_z), which (j, mu) land in the intersection.
rep_entries, which fills the fast path's rep tables, walks and checks one
tuple per orbit of the torus T (Carter: a u_{-i}(m) = u_{-i}(chi_a(-alpha_i)
m) a, a u_i(m) n_i = u_i(chi_a(alpha_i) m) n_i s_i(a)), extending shared
prefixes of D_j(mu) a letter at a time, and scales it over the orbit.
build_rep, behind intersect() and the tests, rewrites each word twice
(once with the B-position factors through positive root elements) to
cross-check the relation tables, and multiplies both factorized shapes
back.
"""

from functools import lru_cache
from itertools import product

from .chevalley import Group, GroupElem, chevalley_group
from .gf import Field
from .rootsys import Cmp, Record, WeylElem, weyl_group

__all__ = [
    "Subexpr",
    "MuAssignment",
    "CosetRep",
    "distinguished_subexprs",
    "mu_assignments",
    "build_rep",
    "rep_entries",
    "intersect",
    "left_coset_key",
    "rep_to_dict",
]


def _tag_of(w: WeylElem) -> str:
    try:
        return {6: "A2", 8: "B2"}[len(w.perm)]
    except KeyError:
        raise ValueError("Weyl element does not belong to a rank-2 type") from None


class Subexpr(Record):
    """A distinguished subexpression of the reduced word of x.

    Positions m = 1..n count from the right end of the word; jvec and
    types are stored in display order (leftmost letter first), so
    position m lives at index n - m.
    """

    __slots__ = _fields = ("tag", "x", "y", "z", "jvec", "types")

    def __len__(self) -> int:
        return len(self.jvec)

    def __repr__(self) -> str:
        return f"Subexpr({list(self.jvec)}, {self.types})"


class MuAssignment(Record):
    """Root-group parameters in display order (field codes)."""

    __slots__ = _fields = ("field", "values")

    def __repr__(self) -> str:
        return f"MuAssignment({list(self.values)})"


class CosetRep(Record):
    """One coset representative with both factorized shapes.

    uxu = (u, m, u2) and zuy = (zf, v, tail) are triples of GroupElems
    with u*m*u2 = g = zf*v*tail.  head_x/tail_x are the coordinates of
    the U x U shape's unipotent factors, head_z/tail_z those of the
    z-side shape (tail_z rides inside zuy[2] for a bare build_rep).
    t_mu and t_zero are torus character pairs; t_zero is an involution.
    """

    __slots__ = _fields = (
        "j", "mu", "g", "uxu", "zuy", "t_mu", "t_zero", "head_x", "tail_x", "head_z", "tail_z"
    )


@lru_cache(maxsize=None)
def distinguished_subexprs(x: WeylElem, y: WeylElem, z: WeylElem) -> tuple:
    """All distinguished j with end product z y^{-1}, lex-ordered on j."""
    tag = _tag_of(x)
    if _tag_of(y) != tag or _tag_of(z) != tag:
        raise ValueError("mixed types")
    W = weyl_group(tag)
    target = W.mult(z, W.inv(y))
    word = x.word
    n = len(word)
    found = []

    def rec(m, tau, j, types):
        # j and types grow leftwards, from the right end of the word
        if m > n:
            if tau == target:
                found.append((j, types))
            return
        i = word[n - m]
        descent = W.descent(tau, i, y) is Cmp.LESS
        if descent:
            rec(m + 1, tau, (0,) + j, "B" + types)
        rec(m + 1, W.mult(W.simple(i), tau), (i,) + j, ("A" if descent else "C") + types)

    rec(1, W.identity, (), "")
    return tuple(Subexpr(tag, x, y, z, j, types) for j, types in sorted(found))


def _domains(types: str, field: Field) -> list:
    """Parameter domains per position: F_q at A, F_q^x at B, {1} at C."""
    dom = {"A": tuple(field.elements()), "B": tuple(field.units()), "C": (1,)}
    return [dom[c] for c in types]


def mu_assignments(sub: Subexpr, field: Field):
    """All parameter tuples for sub, in display-lexicographic order."""
    for values in product(*_domains(sub.types, field)):
        yield MuAssignment(field, values)


def _validate_mu(sub: Subexpr, mu: MuAssignment):
    if len(mu.values) != len(sub.types):
        raise ValueError("parameter tuple length mismatch")
    for c, v in zip(sub.types, mu.values):
        if not 0 <= v < mu.field.q:
            raise ValueError("parameter code out of range")
        if c == "B" and v == 0:
            raise ValueError("B-position parameter must be a unit")
        if c == "C" and v != 1:
            raise ValueError("C-position parameter is fixed to 1")


# products of lifts and tori, derived once per distinct input
# (at most |W| (q-1)^2 per group)
@lru_cache(maxsize=None)
def _lift_torus(G: Group, w: WeylElem, t: tuple, w2: WeylElem | None = None) -> GroupElem:
    """n_w t, or n_w t n_{w2}."""
    return G.multiply(G.lift(w), G.torus(*t), *(() if w2 is None else (G.lift(w2),)))


@lru_cache(maxsize=None)
def _lift_inverse(G: Group, w: WeylElem) -> GroupElem:
    return G.invert(G.lift(w))


def _letter(G: Group, i: int, c: str, m: int) -> tuple:
    """The atoms of letter i of D_j(mu): u_{-i}(m) at B, u_i(m) n_i at A, n_i at C."""
    if c == "B":
        return (("u", i + G.N, m),)
    return (("u", i, m), ("n", i, 1)) if c == "A" else (("n", i, 1),)


def _checked(G: Group, sub: Subexpr, g: GroupElem, h: GroupElem) -> tuple:
    """(t_mu, t_zero) of g = D_j(mu) and h = n_z^{-1} g, each checked to lie
    where the parametrization puts it."""
    F, W = G.F, G.W
    if g.w != sub.x:
        raise AssertionError("representative left the U x U cell")
    yinv = W.inv(sub.y)
    if h.w != yinv:
        raise AssertionError("representative left the z U y^{-1} U cell")
    t0e = _lift_torus(G, sub.y, h.t, yinv)
    if t0e.w.length() or any(t0e.u) or any(t0e.u2):
        raise AssertionError("correction torus is not toral")
    t_zero = t0e.t
    if F.mul(t_zero[0], t_zero[0]) != 1 or F.mul(t_zero[1], t_zero[1]) != 1:
        raise AssertionError("correction torus is not an involution")
    return (G.chi_at(g.t, W.act(sub.x, 1)), G.chi_at(g.t, W.act(sub.x, 2))), t_zero


@lru_cache(maxsize=None)
def _orbit_table(G: Group, beta: int, kernel: tuple) -> list:
    """Per unit u, the least code r = u / chi_s(beta) over the tori s with chi_s = 1
    on the roots in kernel (those fixing the earlier nonzero parameters), and one
    such s: the identity when r = u."""
    F, first = G.F, {}
    for s in product(F.units(), repeat=2):  # (1, 1) first
        if all(G.chi_at(s, b) == 1 for b in kernel):
            first.setdefault(G.chi_at(s, beta), s)
    return [None] + [min((F.div(u, c), s) for c, s in first.items()) for u in F.units()]


def _orbit_roots(G: Group, sub: Subexpr) -> tuple:
    """Pushing a torus a through D_j(mu) gives D_j(a.mu) = a D_j(mu) e^-1: returns the
    roots beta_k of a's scales at A and B (None at C), then z, w, x, z y^-1 of alpha_1,
    alpha_2, for w the product of the A and C letters (so chi_e = chi_a o w)."""
    W, N = G.W, G.N
    betas, w = [], W.identity
    for i, c in zip(sub.x.word, sub.types):
        betas.append(None if c == "C" else W.act(w, i + N if c == "B" else i))
        if c != "B":
            w = W.mult(w, W.simple(i))
    zy = W.mult(sub.z, W.inv(sub.y))
    return betas, [W.act(v, j) for v in (sub.z, w, sub.x, zy) for j in (1, 2)]


def _torus_factors(G: Group, roots: list, a: tuple) -> tuple:
    """From a leaf of mu to one of a.mu: a (u t n_x u') e^-1 = (a u a^-1) (a t x(e^-1))
    n_x (e u' e^-1) and h -> z^-1(a) h e^-1 scale u by a, h's head by z^-1(a), both tails
    by e, t_mu by chi_a(x alpha_j) / e_j, t_zero by chi_a(zy^-1 alpha_j) / e_j (1: w = zy^-1)."""
    div, chi = G.F.div, G.chi_at
    z1, z2, e1, e2, x1, x2, y1, y2 = (chi(a, k) for k in roots)
    return (*a, z1, z2, e1, e2, div(x1, e1), div(x2, e2), div(y1, e1), div(y2, e2))


def rep_entries(sub: Subexpr, field: Field):
    """(t_zero, t_mu, entry) for every mu of sub, in mu_assignments order, with entry =
    (Tr(head_z[0] + head_z[1]), head_x[0], head_x[1], tail_x - tail_z on simple roots).
    Each T-orbit's first tuple r (see _orbit_table) is walked, the normal forms of D_j(r)
    and n_z^{-1} D_j(r) growing a letter per trie node; they pass _checked.  Each mu =
    a.r scales r's coordinates by a's _torus_factors; its t_zero must be an involution."""
    G = chevalley_group(sub.tag, field)
    F, mul, one = field, field.mul, (1, 1)
    doms = _domains(sub.types, F)
    letters = [[_letter(G, i, c, m) for m in d] for i, c, d in zip(sub.x.word, sub.types, doms)]
    betas, roots = _orbit_roots(G, sub)
    reps, factors = {}, {}

    def walk(k, gh, a, kernel, r):
        # mu's prefix is a.r; gh, the normal forms of the prefix, is kept while a = 1
        if k == len(letters):
            if gh:
                g, h = gh
                t_mu, t_zero = _checked(G, sub, g, h)
                # delta_coords is additive: tail_x tail_z^-1 has coordinates tail_x - tail_z
                reps[r] = (t_zero, t_mu, h.u[0], h.u[1], g.u[0], g.u[1],
                           F.sub(g.u2[0], h.u2[0]), F.sub(g.u2[1], h.u2[1]))
            f = factors.get(a) or factors.setdefault(a, _torus_factors(G, roots, a))
            a1, a2, z1, z2, e1, e2, m1, m2, o1, o2 = f
            t0, tmu, hu1, hu2, gu1, gu2, dw1, dw2 = reps[r]
            t0 = t0 if o1 == o2 == 1 else (mul(t0[0], o1), mul(t0[1], o2))
            if mul(t0[0], t0[0]) != 1 or mul(t0[1], t0[1]) != 1:
                raise AssertionError("correction torus is not an involution")
            dv = F.trace(F.add(mul(z1, hu1), mul(z2, hu2)))
            yield t0, (mul(tmu[0], m1), mul(tmu[1], m2)), (
                dv, mul(a1, gu1), mul(a2, gu2), mul(e1, dw1), mul(e2, dw2))
            return
        if beta := betas[k]:  # None at a C letter, whose parameter is 1
            tbl, inv_scale = _orbit_table(G, beta, kernel), F.inv(G.chi_at(a, beta))
        for v, atoms in zip(doms[k], letters[k]):
            rv, s = tbl[mul(v, inv_scale)] if beta and v else (v, one)
            b = a if s == one else (mul(a[0], s[0]), mul(a[1], s[1]))
            step = tuple(G.normal_form(atoms, p) for p in gh) if gh and b is a else None
            yield from walk(k + 1, step, b, kernel + (beta,) if beta and v else kernel, r + (rv,))

    yield from walk(0, (G.identity(), _lift_inverse(G, sub.z)), one, (), ())


@lru_cache(maxsize=None)
def build_rep(sub: Subexpr, mu: MuAssignment) -> CosetRep:
    """Normal-form D_j(mu) twice and extract both factorized shapes."""
    _validate_mu(sub, mu)
    G = chevalley_group(sub.tag, mu.field)
    F = G.F
    word = zip(sub.x.word, sub.types, mu.values)
    g = G.normal_form([a for i, c, m in word for a in _letter(G, i, c, m)])
    h = G.multiply(_lift_inverse(G, sub.z), g)
    t_mu, t_zero = _checked(G, sub, g, h)
    # D_j(mu) again, each u_{-i}(m) written as u_i(1/m) n_i(-1/m) u_i(1/m)
    dp_atoms = []
    for i, c, m in zip(sub.x.word, sub.types, mu.values):
        if c == "B":
            r = F.inv(m)
            dp_atoms += [("u", i, r), ("n", i, F.neg(r)), ("u", i, r)]
        else:
            dp_atoms += _letter(G, i, c, m)
    if g != G.normal_form(dp_atoms):
        raise AssertionError("the two factor shapes disagree: relation tables broken")
    uxu = (G.unipotent(g.u), _lift_torus(G, sub.x, t_mu), G.unipotent(g.u2))
    # h = u t n_w u2 = v * tail with v = u; the zuy multiply-back checks it
    v = G.unipotent(h.u)
    tail = GroupElem(G, (0,) * G.N, h.t, h.w, h.u2)
    zuy = (G.lift(sub.z), v, tail)
    rep = CosetRep(sub, mu, g, uxu, zuy, t_mu, t_zero, g.u, g.u2, h.u, h.u2)
    if G.multiply(*uxu) != g or G.multiply(*zuy) != g:
        raise AssertionError("factor shapes do not multiply back")
    return rep


def _toral_part(arg) -> tuple:
    t = tuple(arg)
    if len(t) != 2:
        raise ValueError("torus argument must have two coordinates")
    return t


def intersect(x, t_x, y, t_y, z, t_z, group: Group) -> list:
    """Coset representatives of U(xt_x)U meet (zt_z)U(yt_y)^{-1}U in group,
    each torus given by its character pair (chi(alpha1), chi(alpha2))."""
    G = group
    tx, ty, tz = map(_toral_part, (t_x, t_y, t_z))
    W = G.W
    xtx = G.multiply(G.lift(x), G.torus(*tx))
    yty_inv = G.invert(G.multiply(G.lift(y), G.torus(*ty)))
    ztz = G.multiply(G.lift(z), G.torus(*tz))
    xinv = W.inv(x)
    want_t = (G.chi_at(tx, W.act(xinv, 1)), G.chi_at(tx, W.act(xinv, 2)))
    out = []
    for sub in distinguished_subexprs(x, y, z):
        for mu in mu_assignments(sub, G.F):
            base = build_rep(sub, mu)
            g = G.multiply(ztz, base.zuy[1], yty_inv)
            if g.w != x:
                raise AssertionError("representative left the U x U cell")
            if g.t != want_t:
                continue
            u = G.unipotent(g.u)
            u2 = G.unipotent(g.u2)
            if G.multiply(u, xtx, u2) != g:
                raise AssertionError("factor shapes do not multiply back")
            zuy = (ztz, base.zuy[1], yty_inv)
            out.append(CosetRep(base.j, base.mu, g, (u, xtx, u2), zuy, base.t_mu, base.t_zero,
                                g.u, g.u2, base.head_z, base.tail_z))
    return out


def left_coset_key(g: GroupElem) -> tuple:
    """Canonical key of the coset gU.

    g = u t n_w u2 gives gU = u t n_w U, so the key is (t, w) plus u
    reduced modulo right multiplication by U meet w U w^{-1} (the
    positive roots not inverted by w^{-1}), leaving coordinates only on
    the inversion set of w^{-1}.
    """
    G = g.group
    keep = G.inv_set(G.W.inv(g.w))
    u = G.unipotent(g.u)
    for idx in range(1, G.N + 1):
        if idx not in keep and u.u[idx - 1]:
            u = G.normal_form([("u", idx, G.F.neg(u.u[idx - 1]))], start=u)
    return (g.t, g.w.perm, u.u)


def rep_to_dict(rep: CosetRep) -> dict:
    return {
        "j": list(rep.j.jvec),
        "type": rep.j.types,
        "mu": list(rep.mu.values),
        "rep": rep.g.to_dict(),
        "t_mu": list(rep.t_mu),
        "t_0": list(rep.t_zero),
        "uxu": [e.to_dict() for e in rep.uxu],
        "zuy": [e.to_dict() for e in rep.zuy],
    }
