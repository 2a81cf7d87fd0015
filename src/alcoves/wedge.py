"""Brute-force exterior-algebra oracles for simple Lie algebras.

A Chevalley basis (root vectors plus simple coroots) is built from the
abstract root system with integer structure constants, once per type,
with no ceiling but the rank's (E8 builds in seconds).  Signs come from
the classical extraspecial-pair procedure: for each non-simple positive
root, the decomposition with the smallest first summand gets a positive
constant, and every other decomposition follows from the quadruple
identity, summed in integers over the lcm of the root norms and divided
once.  Each constant fills its whole zero-sum triple of roots at once
(twelve entries, each an exact division), so the constants form one
integer dict over every ordered root pair, and the bracket table is read
straight from it.  Any consistent choice gives an isomorphic algebra;
correctness is enforced by an exhaustive Jacobi sweep at build time, not
by the convention.

On top of the table sit exact computations on wedge powers, graded by
Cartan weight: the Casimir action (on a vector of weight mu, the scalar
(mu, mu + 2 rho) plus twice e_-alpha e_alpha / K(e_alpha, e_-alpha)
summed over the positive roots, through the derivation action of one
basis element at a time), eigenspace dimensions by highest weights, and
the ideal generated by the image of the degree-one coboundary, whose
dimension is the rank of the boundary of u- = g (x) t^-1 C[t^-1] on
Lambda^k(g t^-1).  The Killing form pairs only opposite weights, so it
is traced on each root vector with its negative and on the coroot block,
and only that block is inverted.  Of the dual basis, scaled by its
common denominator D, the table keeps what the Casimir reads: D /
K(e_alpha, e_-alpha) per positive root and D times the inverse coroot
block.  The Casimir action, which checks every stored entry of the table
and the ideal wedges, is then D times its value in integers.
Weight multiplicities of a g-module are W-invariant, so only the blocks
of dominant weight are built, and times the sizes |W| / |W_J| of their
weights' orbits they must fill the wedge power.  `_dominant_blocks` is
the one enumerator of wedge basis subsets and the block source of every
oracle; it refuses a degree at the first dominant row over
`Limits.wedge_matrix`.  Its subsets come from a walk in index order that
drops a branch once no choice of the remaining picks can make the weight
sum dominant.  The wedge power is a sum of irreducibles V(lambda), each
as often as the simple raising operators have a kernel on the block of
weight lambda, with Casimir the scalar cas(lambda): the eigenvalue-k
eigenspace sums those kernels times dim V(lambda) over cas(lambda) = k.
The boundary maps each block subset to its brackets of two slots, read
straight from the bracket table, wedged with the other slots; it is
g-equivariant, so its rank on each dominant block counts times the orbit
size.  Ranks come from sparse fraction-free elimination
(`linalg.exact_rank`) on {column: int} rows.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, lcm
from operator import add

from .limits import Limits
from .linalg import exact_rank, nullity
from .rootsystem import (FrozenRecord, RootSystem, _cleared_inverse,
                         _coroot_coords, _root_sums, _string_start,
                         casimir_eigenvalue, weyl_dimension, weyl_orbit_size)


class LieAlgebraTable(FrozenRecord):
    """Chevalley basis data: index 0..2m-1 are root vectors (positives
    first, then the matching negatives), the last `rank` entries are the
    simple coroots."""

    __slots__ = (
        "rs", "dim",
        "brackets",      # brackets[a][b] = ((idx, coeff), ...)
        "weights",       # Cartan weight of each basis vector (fund coords)
        "root_dual",     # D / K(e_alpha, e_-alpha), one per positive root
        "coroot_dual",   # D times the inverse Killing form on the coroots
        "killing_den",   # D, the common denominator of the dual basis
    )

    def __reduce__(self):  # unpickling returns the one table of the type
        return build_chevalley, (self.rs,)


def _structure_constants(rs: RootSystem):
    """{(a, b): (c, N)} with [e_a, e_b] = N e_c, for every ordered pair of
    root-vector indices whose roots sum to a root, in integers.

    Walks the positive roots gamma in height order, with the pairs
    a + b = gamma read off `_root_sums`: the extraspecial pair
    of gamma (smallest first summand) gets p + 1, and every other pair
    a + b = gamma follows from the quadruple a1 + b1 - a - b = 0, summed
    as N N (L // norm) with L the lcm of the root norms and divided once.
    Each value fills its whole zero-sum triple x + y + z = 0 through
    N(x,y)/(z,z) = N(y,z)/(x,x) = N(z,x)/(y,y), antisymmetry and
    N(-x,-y) = -N(x,y), so every mixed pair a later quadruple reads is
    already there.  Every entry is checked to be +-(p+1).
    """
    m = rs.num_positive
    pos = rs.positive_roots
    roots = pos + tuple(tuple(-c for c in r) for r in pos)
    index = {r: i for i, r in enumerate(roots)}
    norm = [rs.pair(r, r) for r in roots]
    big = lcm(*norm)
    consts = {}

    def neg(i):
        return i + m if i < m else i - m

    def exact(num, den):
        q, rem = divmod(num, den)
        if rem:
            raise AssertionError("structure constant is not an integer")
        return q

    def fill(x, y, n):  # N(x, y) = n, and the rest of its triple
        z = neg(index[tuple(map(add, roots[x], roots[y]))])
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            v = exact(n * norm[r], norm[z])
            consts[p, q] = (neg(r), v)
            consts[q, p] = (neg(r), -v)
            consts[neg(p), neg(q)] = (r, -v)
            consts[neg(q), neg(p)] = (r, v)

    decompositions = [[] for _ in pos]  # (a, b) with a <= b, by a
    for a, row in enumerate(_root_sums(rs)):
        for b in range(a, m):
            if row[b] is not None:
                decompositions[row[b]].append((a, b))
    for g, pairs in enumerate(decompositions):
        if not pairs:  # a simple root
            continue
        (a1, b1), *rest = pairs
        n1 = _string_start(index, roots[b1], roots[a1]) + 1
        fill(a1, b1, n1)
        for a, b in rest:
            acc = 0
            for x, y, u, v in ((b1, neg(a), a1, neg(b)),
                               (neg(a), a1, b1, neg(b))):
                if (x, y) in consts:  # else x + y is no root: no term
                    c, n = consts[x, y]
                    acc += n * consts[u, v][1] * (big // norm[c])
            fill(a, b, exact(norm[g] * acc, big * n1))
    for (x, y), (_, n) in consts.items():
        if abs(n) != _string_start(index, roots[y], roots[x]) + 1:
            raise AssertionError(
                f"constant {n} for {roots[x]}+{roots[y]} is not +-(p+1)")
    return consts


@lru_cache(maxsize=None)
def build_chevalley(rs: RootSystem) -> LieAlgebraTable:
    """Structure constants and the Killing-dual basis, all verified; the
    table is built once per root system.

    Build-time checks: the Jacobi identity over all basis triples,
    nondegeneracy of the Killing form, and the Casimir acting as the
    identity in the adjoint representation, which reads every entry of
    the dual.  Antisymmetry holds by construction, as each bracket is
    written with its negative; a reverse entry of the wrong sign fails
    the Jacobi or the Casimir check.
    """
    m = rs.num_positive
    l = rs.rank
    dim = rs.dim_g
    brackets = [[()] * dim for _ in range(dim)]
    for (a, b), term in _structure_constants(rs).items():
        brackets[a][b] = (term,)
    for a, root in enumerate(rs.positive_roots):
        coroot = tuple((2 * m + i, c)
                       for i, c in enumerate(_coroot_coords(rs, root)) if c)
        brackets[a][a + m] = coroot
        brackets[a + m][a] = tuple((i, -c) for i, c in coroot)
    half = [rs.root_coords_to_weight(r) for r in rs.positive_roots]
    weights = tuple(half + [tuple(-x for x in w) for w in half] +
                    [(0,) * l] * l)
    for a, weight in enumerate(weights[:2 * m]):
        for i, x in enumerate(weight):
            if x:
                brackets[2 * m + i][a] = ((a, x),)
                brackets[a][2 * m + i] = ((a, -x),)
    root_dual, coroot_dual, den = _killing_dual(brackets, m, l)
    table = LieAlgebraTable(
        rs=rs, dim=dim,
        brackets=tuple(tuple(row) for row in brackets), weights=weights,
        root_dual=root_dual, coroot_dual=coroot_dual, killing_den=den)
    _verify_jacobi(table)
    _verify_casimir_identity(table)
    return table


def _killing_dual(brackets, m: int, l: int):
    """(D / K_alpha for each positive root alpha, D times the inverse of
    the Killing form on the coroot block as l dense rows, D), with
    K_alpha = K(e_alpha, e_-alpha) and D the least common denominator.
    The dual of e_alpha is e_-alpha / K_alpha and the other way round,
    so these hold the whole dual basis, scaled by D."""
    dim = len(brackets)

    def trace(a, b):  # K(x_a, x_b) = tr(ad x_a ad x_b)
        return sum(v * w for c in range(dim) for i, v in brackets[b][c]
                   for j, w in brackets[a][i] if j == c)

    pairs = [trace(a, a + m) for a in range(m)]
    if 0 in pairs:
        raise AssertionError("Killing form is degenerate")
    h = 2 * m
    try:  # positive definite on the real span of the coroots
        adj, block_den = _cleared_inverse(
            [[trace(h + i, h + j) for j in range(l)] for i in range(l)])
    except AssertionError:
        raise AssertionError("Killing form is degenerate") from None
    den = lcm(*pairs, block_den)
    scale = den // block_den
    return (tuple(den // p for p in pairs),
            tuple(tuple(x * scale for x in row) for row in adj), den)


def _verify_jacobi(table: LieAlgebraTable) -> None:
    """For each basis triple a < b < c, sums v * w by j over (i, v) in
    brackets[x][y] and (j, w) in brackets[i][z] for the cyclic turns
    (x, y, z) of (a, b, c): the Jacobi identity says every sum is 0."""
    brackets = table.brackets
    for a, b, c in combinations(range(table.dim), 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for i, v in brackets[x][y]:
                for j, w in brackets[i][z]:
                    acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            raise AssertionError(f"Jacobi fails on triple {(a, b, c)}")


def _verify_casimir_identity(table: LieAlgebraTable) -> None:
    """The Casimir must act as the identity on the algebra: the route the
    wedge oracles use, on each basis vector b of the first wedge power,
    must give D b."""
    for b in range(table.dim):
        if _apply_casimir(table, (b,)) != {(b,): table.killing_den}:
            raise AssertionError(
                "Casimir does not act as the identity on the algebra")


def _wedge_replace1(subset, s, c):
    """The wedge of a sorted tuple of basis indices with slot s set to c,
    as (sign, sorted tuple), or None when c repeats an entry: the other
    entries stay sorted, so c is inserted by bisection and the sign is the
    parity of the number of places it moves."""
    rest = subset[:s] + subset[s + 1:]
    i = bisect_left(rest, c)
    if i < len(rest) and rest[i] == c:
        return None
    return (-1 if (i - s) & 1 else 1), rest[:i] + (c,) + rest[i:]


def _dominant_subsets(weights, k: int):
    """The k-subsets of range(len(weights)) whose weight sum is dominant,
    as (subset, sum) in `combinations` order: a depth-first walk in index
    order that carries the partial sum.  No r-subset of weights[b:] sums
    to more, in any coordinate, than the r largest values of that
    coordinate there (top[b][r]).  So child a, with r picks left after
    it, is skipped when acc + weights[a] + top[a + 1][r] has a negative
    coordinate; at r = 0 that is the dominance test itself."""
    n, rank = len(weights), len(weights[0])
    top = [tuple(zip(*(accumulate(sorted((w[i] for w in weights[b:]),
                                         reverse=True)[:k], initial=0)
                       for i in range(rank)))) for b in range(n + 1)]
    need = [[tuple(map(add, weights[a], top[a + 1][r])) for a in range(n - r)]
            for r in range(k)]

    def extend(start, prefix, acc):
        r = k - 1 - len(prefix)
        if r < 0:
            yield prefix, acc
            return
        bound = need[r]
        for a in range(start, n - r):
            if min(map(add, acc, bound[a])) >= 0:
                yield from extend(a + 1, prefix + (a,),
                                  tuple(map(add, acc, weights[a])))

    return extend(0, (), (0,) * rank)


@lru_cache(maxsize=1)
def _dominant_blocks(table: LieAlgebraTable, k: int, matrix_ceiling: int):
    """The weight blocks of the k-th wedge power whose weight is dominant,
    as {weight: (orbit size, block)}: the one place where wedge basis
    subsets are enumerated, by `_dominant_subsets`.  Their total size,
    the rows of the walk, must not exceed `matrix_ceiling`;
    the walk stops at the first row over it.  Weight multiplicities are
    W-invariant, so these blocks times their orbit sizes must fill the
    whole wedge power: this check proves the pruned walk complete.  The
    last result is kept for the next oracle of the same degree; callers
    must not mutate it.  A refusal raises, so it is never kept."""
    blocks = {}
    for rows, (subset, weight) in enumerate(
            _dominant_subsets(table.weights, k), 1):
        if rows > matrix_ceiling:
            raise ValueError(
                f"wedge degree {k} has more dominant-block rows than "
                f"the wedge_matrix ceiling {matrix_ceiling}; "
                "raise it explicitly")
        blocks.setdefault(weight, []).append(subset)
    out = {weight: (weyl_orbit_size(table.rs, weight), block)
           for weight, block in blocks.items()}
    if sum(orbit * len(block) for orbit, block in out.values()) != \
            comb(table.dim, k):
        raise AssertionError(
            f"dominant blocks times orbit sizes do not fill degree {k}")
    return out


def _apply_casimir(table: LieAlgebraTable, subset):
    """D theta(Cas) on a wedge basis vector of weight mu, in integers:

        Cas = (mu, mu + 2 rho) + 2 sum_{alpha>0} e_-alpha e_alpha / K_alpha

    with K_alpha = K(e_alpha, e_-alpha), since e_alpha e_-alpha is
    e_-alpha e_alpha + h_alpha for h_alpha = [e_alpha, e_-alpha].  D times
    the scalar is sum_ij (D K^-1)_ij mu_i mu_j, read off `coroot_dual`,
    plus sum_alpha (D / K_alpha) mu(h_alpha), read off `root_dual`."""
    rank, m = table.rs.rank, table.rs.num_positive
    h = 2 * m
    mu = [sum(table.weights[a][i] for a in subset) for i in range(rank)]
    scalar = sum(c * x * y for x, row in zip(mu, table.coroot_dual)
                 for c, y in zip(row, mu))
    out = {}
    for a, d in enumerate(table.root_dual):
        scalar += d * sum(c * mu[i - h] for i, c in table.brackets[a][a + m])
        for key, v in _theta_single(table, a, subset).items():
            for key2, w in _theta_single(table, a + m, key).items():
                out[key2] = out.get(key2, 0) + 2 * d * v * w
    out[subset] = out.get(subset, 0) + scalar
    return {key: v for key, v in out.items() if v != 0}


def casimir_eigenspace_dim(table: LieAlgebraTable, k: int,
                           matrix_ceiling: int = Limits.wedge_matrix) -> int:
    """Dimension of the eigenvalue-k eigenspace of the Casimir action on
    the k-th wedge power.

    The wedge power is a sum of irreducibles V(lambda), each as often as
    the highest-weight vectors in the block of weight lambda, with Casimir
    the scalar cas(lambda).  So the eigenspace sums those multiplicities
    times dim V(lambda) over the weights with cas(lambda) = k; for k >= 1
    it never ranks the zero-weight block, whose Casimir is 0.
    """
    rs = table.rs
    return sum(_highest_weight_multiplicity(table, block) *
               weyl_dimension(rs, weight) for weight, (_, block)
               in _dominant_blocks(table, k, matrix_ceiling).items()
               if casimir_eigenvalue(rs, weight) == k)


def _theta_single(table: LieAlgebraTable, gen: int, subset):
    """Derivation action of one basis element on a wedge basis vector."""
    out = {}
    for s in range(len(subset)):
        for i, c in table.brackets[gen][subset[s]]:
            res = _wedge_replace1(subset, s, i)
            if res is None:
                continue
            sign, key = res
            out[key] = out.get(key, 0) + sign * c
    return out


def _highest_weight_multiplicity(table: LieAlgebraTable, block) -> int:
    """Dimension of the joint kernel of the simple raising operators on a
    weight block, the span of its highest-weight vectors.  Each row holds
    one block vector's images under all of them: the transpose of the
    stacked operator matrices, so it has the same rank.  The images under
    different operators lie in different weight blocks, so their subsets
    never share a column.  The simple roots are stored first, so their
    root vectors are the basis indices below the rank."""
    rows = [{key: v for gen in range(table.rs.rank)
             for key, v in _theta_single(table, gen, s).items()}
            for s in block]
    return nullity(rows, len(block))


def dg_ideal_dim(table: LieAlgebraTable, k: int,
                 matrix_ceiling: int = Limits.wedge_matrix) -> int:
    """Dimension of the degree-k part of the ideal generated by the image
    of the degree-one coboundary, read as the rank of the boundary of
    u- = g (x) t^-1 C[t^-1] on its x-degree-k chains Lambda^k(g t^-1):

        y_1 ^ ... ^ y_k  ->  sum_{i<j} (-1)^{i+j} [y_i, y_j] t^-2 ^ (the rest),

    so C(dim g, k) minus it is the homology H_k(u-) of x-degree k
    (Garland and Lepowsky, 1976).  Each target is a pair (the rest, c)
    for the basis vector c of the bracket, numbered per block.  The
    boundary is g-equivariant, so its rank on each dominant weight block
    counts times the block's orbit size.
    """
    brackets = table.brackets
    total = 0
    for orbit, block in _dominant_blocks(table, k, matrix_ceiling).values():
        cols = {}
        rows = []
        for s in block:
            row = {}  # distinct pairs (i, j) leave distinct rests
            for i, j in combinations(range(k), 2):
                terms = brackets[s[i]][s[j]]
                if terms:
                    rest = s[:i] + s[i + 1:j] + s[j + 1:]
                    sign = -1 if (i + j) & 1 else 1
                    for c, v in terms:
                        row[cols.setdefault((rest, c), len(cols))] = sign * v
            rows.append(row)
        total += orbit * exact_rank(rows)
    return total


def verify_ideal_top_vectors(table: LieAlgebraTable, ideals) -> dict:
    """Each abelian ideal's decomposable wedge must be a Casimir
    eigenvector with eigenvalue its size.  Positive root vectors are
    numbered as their roots, so the wedge's subset is the root set."""
    ideals = tuple(ideals)
    failures = []
    for xi in ideals:
        subset = tuple(sorted(xi.roots))
        k = len(subset)
        if k == 0:
            continue
        img = _apply_casimir(table, subset)
        if img != {subset: k * table.killing_den}:
            failures.append(xi)
    return {"checked": len(ideals), "failures": failures,
            "ok": not failures}
