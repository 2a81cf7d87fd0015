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

Breadth-first search over right multiplication by the l + 1 affine simple
reflections visits every dominant alcove exactly once: the open dominant
chamber is convex, so a dominant alcove of length n + 1 always has a
dominant facet neighbor of length n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import add, mul, sub

from .rootsystem import RootSystem, _coroot_coords, _integer_inverse


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
def _affine_reflection(rs: RootSystem, beta: tuple):
    """The reflection in the affine wall beta = 1 of a positive root beta
    (simple-root coordinates), y -> y - (beta(y) - 1) beta^vee, as the
    (matrix, translation) pair (I - beta^vee (x) beta, beta^vee) acting on
    evaluation vectors; beta^vee enters through alpha_j(beta^vee) =
    sum_i c_i a_ij, with c its simple-coroot coordinates."""
    l = rs.rank
    coords = _coroot_coords(rs, beta)
    coroot = tuple(sum(c * row[j] for c, row in zip(coords, rs.cartan))
                   for j in range(l))
    mat = tuple(tuple(int(j == k) - coroot[j] * beta[k] for k in range(l))
                for j in range(l))
    return mat, coroot


def _generators(rs: RootSystem):
    """The l + 1 affine simple reflections g as pairs (matrix, g(x0) - x0)
    on evaluation vectors, for the walls alpha_i = 0 and psi = 1.  The wall
    alpha_i = 0 has the matrix of the wall alpha_i = 1, without its
    translation.  The reflection in the wall beta = c moves x0 by
    -(beta(x0) - c) beta^vee."""
    l = rs.rank
    walls = [(tuple(int(i == j) for j in range(l)), 0) for i in range(l)]
    walls.append((rs.positive_roots[rs.highest_root], rs.scale))
    gens = []
    for beta, level in walls:
        mat, coroot = _affine_reflection(rs, beta)
        shift = evaluate_root(beta, rs.sym) - level
        gens.append((mat, tuple(-shift * c for c in coroot)))
    return tuple(gens)


def _mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def _wall_counts(rs: RootSystem, x) -> tuple:
    return tuple(evaluate_root(c, x) // rs.scale for c in rs.positive_roots)


def _element_from_map(rs: RootSystem, w, x, n_vec) -> AffineElement:
    lam = []
    for xi, s in zip(x, rs.sym):
        m, rem = divmod(xi, s)
        if rem:
            raise AssertionError("alcove weight is not integral")
        lam.append(m - 1)
    cas = sum(n * (n + 1) // 2 for n in n_vec)
    return AffineElement(x=x, w=w, n_vec=n_vec, length=sum(n_vec),
                         lam=tuple(lam), cas=cas)


def _is_dominant(point) -> bool:
    return all(v > 0 for v in point)


@lru_cache(maxsize=None)
def enumerate_dominant(rs: RootSystem, max_length: int) -> tuple:
    """All dominant alcoves of length at most `max_length`, ordered by
    ascending length and then lexicographically by wall-count vector."""
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    l = rs.rank
    identity = _element_from_map(
        rs, tuple(tuple(int(i == j) for j in range(l)) for i in range(l)),
        rs.sym, _wall_counts(rs, rs.sym))
    # (e g)(x0) = e.x + e.w (g(x0) - x0): one matrix-vector product per
    # candidate; the matrix product e.w g is formed only when it is kept.
    gens = _generators(rs)
    seen = {identity.x}
    out = [identity]
    frontier = [identity]
    for target in range(1, max_length + 1):
        new = []
        for e in frontier:
            for gmat, step in gens:
                x = tuple(map(add, e.x, _mat_vec(e.w, step)))
                if not _is_dominant(x) or x in seen:
                    continue
                n_vec = _wall_counts(rs, x)
                if sum(n_vec) != target:
                    continue
                seen.add(x)
                new.append(_element_from_map(rs, _mat_mul(e.w, gmat), x, n_vec))
        new.sort(key=lambda e: e.n_vec)
        out.extend(new)
        frontier = new
    return tuple(out)


def reflect_in_wall(rs: RootSystem, e: AffineElement, idx: int) -> AffineElement:
    """s e for the reflection s in the affine wall beta = 1 of the positive
    root with index `idx`: the alcove of `e` mirrored in that wall, by one
    left multiplication.  With s(y) = M y + beta^vee, the product has the
    point s(x) and the linear part M w."""
    mat, coroot = _affine_reflection(rs, rs.positive_roots[idx])
    x = tuple(v + rs.scale * c for v, c in zip(_mat_vec(mat, e.x), coroot))
    return _element_from_map(rs, _mat_mul(mat, e.w), x, _wall_counts(rs, x))


def apply_element(rs: RootSystem, e: AffineElement, point) -> tuple:
    """Apply the affine transformation of `e` to a point given in units
    of 1/scale: x + w (point - x0)."""
    return tuple(map(add, e.x, _mat_vec(e.w, tuple(map(sub, point, rs.sym)))))


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
    """
    l = rs.rank
    psi = rs.positive_roots[rs.highest_root]
    pv = _affine_reflection(rs, psi)[1]
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
    weight (the sign being the alcove-length parity), 0 otherwise.

    The point representing 2*(lambda + rho) folds back to the base point
    exactly when lambda is an alcove weight.
    """
    if not rs.is_dominant_integral(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    p = tuple(s * (int(m) + 1) for s, m in zip(rs.sym, weight))
    folded, parity, regular = reduce_to_fundamental(rs, p)
    if regular and folded == rs.sym:
        return parity
    return 0


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
