"""Dominant alcoves of the affine Weyl group, enumerated by length.

A point x of the Cartan subalgebra is carried as the integer vector
X = scale * (alpha_1(x), ..., alpha_l(x)), with `scale` from the root
system; a root phi = sum c_i alpha_i then evaluates as sum c_i X_i, and
the affine walls are the level sets at multiples of `scale`.  The base
point x0 is the image of 2*rho under the Killing identification, which in
these units is X_i = sym_i.  Every point the search reaches is an integer
vector.  An affine element sigma(y) = w y + t is carried as its point
x = sigma(x0) and its translation t = sigma(0), in the same units; the
linear part w is never formed, since x - t = w(x0) fixes it (x0 is
regular).  The point yields, for each dominant alcove:

* the wall-crossing counts n_phi = phi(X) // scale,
* the length (their sum),
* the distinguished dominant weight with 2*(lambda + rho) = sigma(2*rho),
* its Casimir eigenvalue, the triangular-number sum of the n_phi.

The search walks up one length at a time, applying each reflection
y -> y - (beta(y) - c) beta^vee in a wall beta = c as a rank-one update.
A frontier alcove carries the images w beta_g^vee of the coroots of the
l + 1 walls alpha_i = 0 and psi = 1; crossing wall g moves x along
w beta_g^vee = +-phi^vee, with phi the root whose wall is crossed, and a
lookup among the positive coroots keeps the crossings that raise n_phi by
one; crossing psi = 1 also moves t by scale times that image.  These
cross no wall phi = 0, so they stay dominant, and they reach every
dominant alcove of length n + 1: the open dominant chamber is convex, so
each has a dominant facet neighbor of length n.  Such a crossing raises
cas by the new n_phi >= 1, so the walk bounded by a Casimir ceiling
drops every alcove over it and still reaches all below.
The character at type rho needs no walk and no fold: it is read from the
values phi(X) of `rootsystem._rho_values`, one per positive root.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul, sub

from .rootsystem import (RootSystem, _coroot_coords, _integer_inverse,
                         _rho_values)


class AffineElement(namedtuple("AffineElement", "x t n_vec length lam cas")):
    """One dominant alcove, with its affine transformation
    sigma(y) = w y + t.

    `x` is the point sigma(x0) as an integer vector in units of 1/scale,
    and `t` the translation sigma(0) in the same units; the two fix
    sigma, since x - t = w(x0) and x0 is regular.  `n_vec` holds the wall
    counts in the fixed positive-root order, `lam` the alcove weight in
    fundamental coordinates and `cas` its (integer) Casimir eigenvalue.
    """

    __slots__ = ()


def evaluate_root(coords, point):
    return sum(map(mul, coords, point))


@lru_cache(maxsize=None)
def _coroot(rs: RootSystem, beta: tuple) -> tuple:
    """The evaluation vector of beta^vee for a positive root beta
    (simple-root coordinates): alpha_j(beta^vee) = sum_i c_i a_ij, with c
    its simple-coroot coordinates.  The reflection in the affine wall
    beta = c is y -> y - (beta(y) - c) beta^vee."""
    coords = _coroot_coords(rs, beta)
    return tuple(sum(c * row[j] for c, row in zip(coords, rs.cartan))
                 for j in range(rs.rank))


def _element(rs: RootSystem, x, t, n_vec, length, cas) -> AffineElement:
    if any(xi % s for xi, s in zip(x, rs.sym)):
        raise AssertionError("alcove weight is not integral")
    return AffineElement(x, t, n_vec, length,
                         tuple(xi // s - 1 for xi, s in zip(x, rs.sym)), cas)


@lru_cache(maxsize=None)
def enumerate_dominant(rs: RootSystem, max_length: int) -> tuple:
    """All dominant alcoves of length at most `max_length`, ordered by
    ascending length and then lexicographically by wall-count vector."""
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    # An alcove of length n has cas = sum n_phi (n_phi + 1) / 2 at most
    # n (n + 1) / 2, so this ceiling drops nothing.
    return _walk(rs, max_length, max_length * (max_length + 1) // 2)


@lru_cache(maxsize=None)
def enumerate_casimir_bounded(rs: RootSystem, ceiling: int) -> tuple:
    """All dominant alcoves with Casimir eigenvalue at most `ceiling`, in
    the order of `enumerate_dominant`.  Every upward crossing raises cas
    by the new n_phi >= 1, so an alcove's walk predecessors have smaller
    cas, the walk may drop every alcove over the ceiling, and lengths up
    to `ceiling` suffice."""
    if ceiling < 0:
        raise ValueError("ceiling must be nonnegative")
    return _walk(rs, ceiling, ceiling)


def _walk(rs: RootSystem, max_length: int, ceiling: int) -> tuple:
    """The dominant alcoves of length at most `max_length` reached through
    alcoves with cas at most `ceiling`."""
    l = rs.rank
    walls = [(tuple(int(i == j) for j in range(l)), 0) for i in range(l)]
    walls.append((rs.positive_roots[rs.highest_root], rs.scale))
    coroots = tuple(_coroot(rs, beta) for beta, _ in walls)
    up = {_coroot(rs, phi): j for j, phi in enumerate(rs.positive_roots)}
    down = {tuple(-c for c in v): j for v, j in up.items()}
    # Per wall g: c_g - beta_g(x0) (> 0 only for psi), the lookup of an
    # upward crossing, c_g and the pairings beta_g(beta_h^vee).
    gens = []
    for beta, level in walls:
        step = level - evaluate_root(beta, rs.sym)
        gens.append((step, up if step > 0 else down, level,
                     tuple(evaluate_root(beta, v) for v in coroots)))
    identity = _element(rs, rs.sym, (0,) * l, (0,) * rs.num_positive, 0, 0)
    out = [identity]
    frontier = [(identity, coroots)]
    for length in range(1, max_length + 1):
        new = {}
        for e, images in frontier:
            for (step, lookup, level, pairs), v in zip(gens, images):
                j = lookup.get(v)
                if j is None:
                    continue
                cas = e.cas + e.n_vec[j] + 1
                if cas > ceiling:
                    continue
                x = tuple(a + step * b for a, b in zip(e.x, v))
                if x in new:
                    continue
                n_vec = list(e.n_vec)
                n_vec[j] += 1
                # sigma s_g sends 0 to sigma(c_g beta_g^vee) = t + c_g v.
                t = tuple(a + level * b for a, b in zip(e.t, v))
                new[x] = (_element(rs, x, t, tuple(n_vec), length, cas),
                          tuple(tuple(a - p * b for a, b in zip(img, v))
                                for img, p in zip(images, pairs)))
        frontier = sorted(new.values(), key=lambda pair: pair[0].n_vec)
        out.extend(e for e, _ in frontier)
    return tuple(out)


def reflect_in_wall(rs: RootSystem, e: AffineElement, idx: int) -> AffineElement:
    """s e for the reflection s in the affine wall beta = 1 of the positive
    root with index `idx`: the alcove of `e` mirrored in that wall, by one
    left multiplication.  The product s sigma maps x0 to
    s(x) = x + (scale - beta(x)) beta^vee and 0 to
    s(t) = t + (scale - beta(t)) beta^vee."""
    beta = rs.positive_roots[idx]
    coroot = _coroot(rs, beta)

    def s(y):
        step = rs.scale - evaluate_root(beta, y)
        return tuple(a + step * c for a, c in zip(y, coroot))

    x = s(e.x)
    n_vec = tuple(evaluate_root(c, x) // rs.scale for c in rs.positive_roots)
    return _element(rs, x, s(e.t), n_vec, sum(n_vec),
                    sum(n * (n + 1) // 2 for n in n_vec))


def finite_part_length(rs: RootSystem, e: AffineElement) -> int:
    """Length of the finite Weyl part w: the positive roots phi that its
    inverse sends negative.  phi(w(x0)) = (w^-1 phi)(x0) with x0 regular
    dominant and w(x0) = x - t, so these are the phi with phi(x - t) < 0."""
    d = tuple(map(sub, e.x, e.t))
    return sum(evaluate_root(c, d) < 0 for c in rs.positive_roots)


def two_rho_pairing_killing(rs: RootSystem, e: AffineElement) -> int:
    """(2*rho, z)_K for the translation part z = sigma(0) / scale, an
    integer.  z must lie in the coroot lattice: its coroot coordinates
    solve sigma(0) = scale * cartan^T z."""
    adj, den = _integer_inverse(rs)
    for i in range(rs.rank):
        if sum(adj[j][i] * e.t[j] for j in range(rs.rank)) % (den * rs.scale):
            raise AssertionError("translation part is not in the coroot lattice")
    return evaluate_root(rs.two_rho, e.t) // rs.scale


def in_wf2(rs: RootSystem, e: AffineElement) -> bool:
    """True when the alcove lies in twice the fundamental alcove, i.e. all
    wall counts are 0 or 1."""
    return e.n_vec[rs.highest_root] <= 1


def enumerate_wf2(rs: RootSystem, max_length: int) -> tuple:
    """Dominant alcoves inside 2*A1 with length at most `max_length`.
    Their wall counts are 0 or 1, so cas equals the length, and the
    Casimir-bounded walk to `max_length` holds them all."""
    return tuple(e for e in enumerate_casimir_bounded(rs, max_length)
                 if in_wf2(rs, e))


def chi_at_type_rho(rs: RootSystem, weight) -> int:
    """Character value of the irreducible with the given highest weight at
    a group element of type rho: +1 or -1 when the weight is an alcove
    weight (the sign being the alcove-length parity), 0 otherwise
    (Kostant).

    Read off the values v_phi = phi(X) of the point X = sym_i (lambda_i + 1)
    of 2 (lambda + rho), one per positive root (`_rho_values`).  If some
    v_phi is a multiple of `scale`, X lies on an affine wall and the value
    is 0.  Otherwise X is regular and dominant, the walls separating it
    from the fundamental alcove are counted by sum_phi v_phi // scale
    (the n_phi of the walk), and X folds to a point sym_i m_i, m integral,
    inside the open fundamental alcove.  That point is the base point
    `sym` (m = 1) in every type: for the coefficients c of psi,
    sym_i c_i >= max(sym) and psi(sym) = scale - max(sym), so m_i >= 2
    anywhere puts psi at scale or above.  The value is then (-1) to that
    count.  The tests check it against the fold itself, wall by wall.
    """
    if not rs.is_dominant_integral(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    scale = rs.scale
    walls = 0
    for v in _rho_values(rs, weight):
        n, rem = divmod(v, scale)
        if not rem:
            return 0
        walls += n
    return -1 if walls & 1 else 1


def ideal_chain(rs: RootSystem, e: AffineElement) -> tuple:
    """The chain of root sets {phi : n_phi >= i} for i = 0 .. n_psi.

    Entry 0 is the full positive system; whenever the chain has a nonzero
    level, the top entry is an abelian ideal.  Entries are frozensets of
    positive-root indices.
    """
    top = e.n_vec[rs.highest_root]
    return tuple(
        frozenset(j for j, n in enumerate(e.n_vec) if n >= i)
        for i in range(top + 1))


def counts_by_length(rs: RootSystem, max_length: int) -> list:
    counts = [0] * (max_length + 1)
    for e in enumerate_dominant(rs, max_length):
        counts[e.length] += 1
    return counts
