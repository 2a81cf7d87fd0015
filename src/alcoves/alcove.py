"""Dominant alcoves of the affine Weyl group, enumerated by length.

A point x of the Cartan subalgebra is carried as the integer vector
X = scale * (alpha_1(x), ..., alpha_l(x)), with `scale` from the root
system; a root phi = sum c_i alpha_i then evaluates as sum c_i X_i, and
the affine walls are the level sets at multiples of `scale`.  The base
point x0 is the image of 2*rho under the Killing identification, which in
these units is X_i = sym_i.  Every point the search reaches is an integer
vector.  An affine element sigma is carried as its point x = sigma(x0)
and its linear part w, with sigma(y) = x + w (y - x0); its translation
sigma(0) is never tracked.  The point yields, for each dominant alcove:

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
one.  These cross no wall phi = 0, so they stay dominant, and they reach
every dominant alcove of length n + 1: the open dominant chamber is
convex, so each has a dominant facet neighbor of length n.  Such a
crossing raises cas by the new n_phi >= 1, so the walk bounded by a
Casimir ceiling drops every alcove over it and still reaches all below.
The character at type rho needs no walk and no fold: it is read from the
values phi(X) of `rootsystem._rho_values`, one per positive root.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul, sub

from .rootsystem import (RootSystem, _coroot_coords, _integer_inverse,
                         _rho_values)


class AffineElement(namedtuple("AffineElement", "x w n_vec length lam cas")):
    """One dominant alcove, with its affine transformation
    sigma(y) = x + w (y - x0).

    `x` is the point sigma(x0) as an integer vector in units of 1/scale,
    and `w` the linear part as an integer matrix acting on evaluation
    vectors; the two fix sigma.  `n_vec` holds the wall counts in the
    fixed positive-root order, `lam` the alcove weight in fundamental
    coordinates and `cas` its (integer) Casimir eigenvalue.
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


def _element_from_map(rs: RootSystem, w, x, n_vec, length, cas) -> AffineElement:
    lam = []
    for xi, s in zip(x, rs.sym):
        m, rem = divmod(xi, s)
        if rem:
            raise AssertionError("alcove weight is not integral")
        lam.append(m - 1)
    return AffineElement(x=x, w=w, n_vec=n_vec, length=length,
                         lam=tuple(lam), cas=cas)


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
    eye = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    walls = [(row, 0) for row in eye]
    walls.append((rs.positive_roots[rs.highest_root], rs.scale))
    coroots = tuple(_coroot(rs, beta) for beta, _ in walls)
    up = {_coroot(rs, phi): j for j, phi in enumerate(rs.positive_roots)}
    down = {tuple(-c for c in v): j for v, j in up.items()}
    # Per wall g: c_g - beta_g(x0) (> 0 only for psi), the lookup of an
    # upward crossing, beta_g and the pairings beta_g(beta_h^vee).
    gens = []
    for beta, level in walls:
        step = level - evaluate_root(beta, rs.sym)
        gens.append((step, up if step > 0 else down, beta,
                     tuple(evaluate_root(beta, v) for v in coroots)))
    identity = _element_from_map(rs, eye, rs.sym, (0,) * rs.num_positive, 0, 0)
    out = [identity]
    frontier = [(identity, coroots)]
    for length in range(1, max_length + 1):
        new = {}
        for e, images in frontier:
            for (step, lookup, beta, pairs), v in zip(gens, images):
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
                w = tuple(tuple(a - b * c for a, c in zip(row, beta))
                          for row, b in zip(e.w, v))
                new[x] = (_element_from_map(rs, w, x, tuple(n_vec), length, cas),
                          tuple(tuple(a - p * b for a, b in zip(img, v))
                                for img, p in zip(images, pairs)))
        frontier = sorted(new.values(), key=lambda pair: pair[0].n_vec)
        out.extend(e for e, _ in frontier)
    return tuple(out)


def reflect_in_wall(rs: RootSystem, e: AffineElement, idx: int) -> AffineElement:
    """s e for the reflection s in the affine wall beta = 1 of the positive
    root with index `idx`: the alcove of `e` mirrored in that wall, by one
    left multiplication.  The product has the point
    s(x) = x + (scale - beta(x)) beta^vee and the linear part
    w - beta^vee (w^T beta)^T."""
    beta = rs.positive_roots[idx]
    coroot = _coroot(rs, beta)
    step = rs.scale - evaluate_root(beta, e.x)
    x = tuple(a + step * c for a, c in zip(e.x, coroot))
    pulled = tuple(evaluate_root(beta, col) for col in zip(*e.w))
    w = tuple(tuple(a - c * b for a, b in zip(row, pulled))
              for row, c in zip(e.w, coroot))
    n_vec = tuple(evaluate_root(c, x) // rs.scale for c in rs.positive_roots)
    return _element_from_map(rs, w, x, n_vec, sum(n_vec),
                             sum(n * (n + 1) // 2 for n in n_vec))


def apply_element(rs: RootSystem, e: AffineElement, point) -> tuple:
    """Apply the affine transformation of `e` to a point given in units
    of 1/scale: x + w (point - x0)."""
    d = tuple(map(sub, point, rs.sym))
    return tuple(a + evaluate_root(row, d) for a, row in zip(e.x, e.w))


def finite_part_length(rs: RootSystem, e: AffineElement) -> int:
    """Length of the finite Weyl part: positive roots sent negative by its
    inverse, read off from the transpose action on root coordinates."""
    count = 0
    for c in rs.positive_roots:
        img = tuple(sum(e.w[i][j] * c[i] for i in range(rs.rank))
                    for j in range(rs.rank))
        if all(v <= 0 for v in img) and any(img):
            count += 1
    return count


def two_rho_pairing_killing(rs: RootSystem, e: AffineElement) -> int:
    """(2*rho, z)_K for the translation part z = sigma(0) / scale, an
    integer.  z must lie in the coroot lattice: its coroot coordinates
    solve sigma(0) = scale * cartan^T z."""
    t = apply_element(rs, e, (0,) * rs.rank)
    adj, den = _integer_inverse(rs)
    for i in range(rs.rank):
        if sum(adj[j][i] * t[j] for j in range(rs.rank)) % (den * rs.scale):
            raise AssertionError("translation part is not in the coroot lattice")
    return evaluate_root(rs.two_rho, t) // rs.scale


def in_wf2(rs: RootSystem, e: AffineElement) -> bool:
    """True when the alcove lies in twice the fundamental alcove, i.e. all
    wall counts are 0 or 1."""
    return e.n_vec[rs.highest_root] <= 1


def enumerate_wf2(rs: RootSystem, max_length: int) -> tuple:
    """Dominant alcoves inside 2*A1 with length at most `max_length`."""
    return tuple(e for e in enumerate_dominant(rs, max_length)
                 if in_wf2(rs, e))


def reduce_to_fundamental(rs: RootSystem, point):
    """Fold a point into the fundamental alcove by wall reflections.

    The point is given in units of 1/scale, like `AffineElement.x`.
    Returns (folded, parity, regular).  Each step reflects in a violated
    constraint: a negative simple-root value, or a highest-root value
    above `scale` (the affine reflection, with its coroot translation).
    Every step removes at least one separating wall, so the loop ends.
    For a regular point the folding element is unique, which makes the
    parity well-defined; on a wall the parity is reported but meaningless.
    `chi_at_type_rho` reads that parity without folding; this fold is the
    reference route it is tested against.
    """
    l = rs.rank
    psi = rs.positive_roots[rs.highest_root]
    pv = _coroot(rs, psi)
    p = tuple(point)
    parity = 1
    while True:
        i = next((i for i in range(l) if p[i] < 0), None)
        if i is not None:
            pi = p[i]
            p = tuple(p[j] - rs.cartan[i][j] * pi for j in range(l))
            parity = -parity
            continue
        psival = evaluate_root(psi, p)
        if psival > rs.scale:
            p = tuple(p[j] - (psival - rs.scale) * pv[j] for j in range(l))
            parity = -parity
            continue
        break
    regular = all(v > 0 for v in p) and evaluate_root(psi, p) < rs.scale
    return p, parity, regular


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
    count.  `reduce_to_fundamental` is the fold itself, wall by wall.
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
