"""Abelian ideals of the Borel subalgebra, as subsets of positive roots.

An abelian ideal is an upper set of the positive-root poset (closed under
adding any simple root that yields a root) in which no two members sum to
a root.  Enumeration is a depth-first search over roots in decreasing
height with closure and commutativity pruning; the power-of-two count is
asserted by callers, never assumed by the generator.

The two bound sweeps are depth-first searches over exact integer tables
(`_pairing_tables`, with P symmetric) that extend prefix sums instead of
recomputing each candidate.  The subset sweep carries, for a prefix S,
its excess `acc` and the increments lv[b] = R[b] + P[b][b] +
2 sum_{a in S} P[a][b], because

    excess(S u T) = acc + sum_{b in T} lv[b] + 2 sum_{b < b' in T} P[b][b'].

With r roots still to choose from indices >= start, the last sum has
r(r-1)/2 terms, each at most pmax = max(0, max_{b < b'} P[b][b']), so no
completion reaches the bound when the r largest lv[b] with b >= start add
up to less than bound - acc - r(r-1) pmax.  Such a subtree holds neither a
violation nor an equality case and is skipped, so both are found exactly.
The partition sweep prunes nothing; it only carries its sums.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

# `alcove` is imported only where alcoves are read; annotations name
# `AffineElement` through the package's lazy exports.
import alcoves

from .limits import Limits
from .rootsystem import RootSystem, weyl_dimension


class AbelianIdeal(namedtuple("AbelianIdeal", "roots lam")):
    """A set of positive-root indices (a frozenset) with its weight sum."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.roots)


def _root_sum_weight(rs: RootSystem, indices) -> tuple:
    coords = [0] * rs.rank
    for idx in indices:
        for i, c in enumerate(rs.positive_roots[idx]):
            coords[i] += c
    return tuple(rs.root_coords_to_weight(coords))


@lru_cache(maxsize=None)
def _poset_tables(rs: RootSystem):
    """Cover relations (adding one simple root) and root-sum table."""
    index = {c: i for i, c in enumerate(rs.positive_roots)}
    covers = []
    for c in rs.positive_roots:
        ups = []
        for i in range(rs.rank):
            up = list(c)
            up[i] += 1
            j = index.get(tuple(up))
            if j is not None:
                ups.append(j)
        covers.append(tuple(ups))
    m = rs.num_positive
    sum_is_root = [[False] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            s = tuple(x + y for x, y in
                      zip(rs.positive_roots[a], rs.positive_roots[b]))
            sum_is_root[a][b] = s in index
    return covers, sum_is_root


def is_ideal(rs: RootSystem, indices) -> bool:
    covers, _ = _poset_tables(rs)
    s = set(indices)
    return all(up in s for idx in s for up in covers[idx])


def is_abelian(rs: RootSystem, indices) -> bool:
    _, sum_is_root = _poset_tables(rs)
    idxs = list(indices)
    return not any(sum_is_root[a][b] for a, b in combinations(idxs, 2))


@lru_cache(maxsize=None)
def enumerate_abelian_ideals(rs: RootSystem) -> tuple:
    """All abelian ideals, sorted by size then by weight.

    The DFS decides membership root by root in decreasing height, so the
    covers of a root are always settled before the root itself: inclusion
    is allowed only when every cover is already in and no commutativity
    conflict arises with the members so far.
    """
    covers, sum_is_root = _poset_tables(rs)
    order = sorted(range(rs.num_positive),
                   key=lambda i: (-rs.root_height(i), rs.positive_roots[i]))
    found = []
    chosen = []
    chosen_set = set()

    def dfs(t: int):
        if t == len(order):
            found.append(frozenset(chosen))
            return
        dfs(t + 1)
        idx = order[t]
        if all(up in chosen_set for up in covers[idx]) and \
                not any(sum_is_root[idx][b] for b in chosen):
            chosen.append(idx)
            chosen_set.add(idx)
            dfs(t + 1)
            chosen.pop()
            chosen_set.remove(idx)

    dfs(0)
    ideals = [AbelianIdeal(roots=s, lam=_root_sum_weight(rs, s)) for s in found]
    ideals.sort(key=lambda xi: (xi.k, xi.lam))
    return tuple(ideals)


def max_abelian_dimension(rs: RootSystem) -> int:
    return max(xi.k for xi in enumerate_abelian_ideals(rs))


@lru_cache(maxsize=None)
def _wf2_by_nvec(rs: RootSystem):
    """Indicator-vector lookup table for the alcoves inside 2*A1, by the
    alcove BFS: the independent route that `ideal_to_sigma` is checked
    against.

    Wall counts in {0, 1} force the length to equal the number of ones,
    so enumerating up to the maximal abelian-ideal size is exhaustive for
    the indicator vectors we ever look up.
    """
    from .alcove import enumerate_wf2

    bound = max_abelian_dimension(rs)
    return {e.n_vec: e for e in enumerate_wf2(rs, bound)}


@lru_cache(maxsize=None)
def _alcove_by_ideal(rs: RootSystem) -> dict:
    """Root set -> alcove for every abelian ideal, in ideal-size order.

    The alcove of I lies in 2*A1 and is separated from the fundamental
    alcove by the walls phi = 1 for phi in I and no other (Peterson's
    bijection; Cellini-Papi 2000).  For a lowest root beta of I, the set
    I - {beta} is again an abelian ideal, so one wall, beta = 1, separates
    the two alcoves; they are adjacent across it, and alcove(I) =
    s_{beta,1} alcove(I - {beta}).  That is one affine reflection per
    ideal, from the fundamental alcove, with each result's wall counts
    checked against the indicator of I.
    """
    from .alcove import enumerate_dominant, reflect_in_wall

    table = {}
    for xi in enumerate_abelian_ideals(rs):
        if xi.roots:
            # Positive roots are indexed by increasing height.
            beta = min(xi.roots)
            e = reflect_in_wall(rs, table[xi.roots - {beta}], beta)
        else:
            e = enumerate_dominant(rs, 0)[0]
        if e.n_vec != tuple(int(i in xi.roots) for i in range(rs.num_positive)):
            raise AssertionError(
                f"reflected alcove has wall counts {e.n_vec}, not the "
                f"indicator of the ideal with weight {xi.lam}")
        table[xi.roots] = e
    return table


def ideal_to_sigma(rs: RootSystem, xi: AbelianIdeal) -> alcoves.AffineElement:
    """The unique dominant alcove whose wall counts are the indicator of
    the ideal's root set."""
    e = _alcove_by_ideal(rs).get(xi.roots)
    if e is None:
        raise LookupError(f"no alcove matches the ideal with weight {xi.lam}")
    return e


def sigma_to_ideal(rs: RootSystem, e: alcoves.AffineElement) -> AbelianIdeal:
    """Inverse direction; rejects alcoves outside 2*A1."""
    from .alcove import in_wf2

    if not in_wf2(rs, e):
        raise ValueError("alcove does not lie in twice the fundamental alcove")
    roots = frozenset(i for i, n in enumerate(e.n_vec) if n == 1)
    if not is_ideal(rs, roots) or not is_abelian(rs, roots):
        raise AssertionError("wall-count support is not an abelian ideal")
    return AbelianIdeal(roots=roots, lam=_root_sum_weight(rs, roots))


def dim_Ck(rs: RootSystem, k: int) -> int:
    """Dimension of the span of all k-fold wedges of k-dimensional abelian
    subalgebras: the sum of Weyl dimensions over size-k abelian ideals."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(weyl_dimension(rs, xi.lam)
               for xi in enumerate_abelian_ideals(rs) if xi.k == k)


@lru_cache(maxsize=None)
def _pairing_tables(rs: RootSystem):
    """Integer tables for the shifted norm excess.

    Returns (P, R, unit) with P[a][b] the root pairings and R[a] the
    two-rho pairings in the units of `RootSystem.pair`; the Killing excess
    of a multiset Phi is (sum_{a,b} P + sum_a R) / unit, so `excess <= k`
    is the integer comparison against k * unit.
    """
    roots = rs.positive_roots
    P = tuple(tuple(rs.pair(a, b) for b in roots) for a in roots)
    R = tuple(rs.pair(rs.two_rho, a) for a in roots)
    return P, R, 2 * rs.scale


def verify_subset_bound(rs: RootSystem, k: int,
                        max_candidates: int = Limits.subset_candidates) -> dict:
    """All k-subsets of positive roots: the shifted norm excess never
    exceeds k, with equality exactly on the abelian-ideal root sets.

    A depth-first search over increasing index tuples carries the excess
    `acc` of the prefix S and the increments `lv[b]`, so a leaf is one
    comparison.  A subtree is skipped when no r-root completion can reach
    the bound (see the module docstring), so `subsets` counts the
    candidates covered, `visited` the nodes expanded and `pruned` the
    subtrees skipped.
    """
    m = rs.num_positive
    total = comb(m, k)
    if total > max_candidates:
        raise ValueError(f"{total} subsets exceed the subset_candidates "
                         f"ceiling {max_candidates}")
    P, R, unit = _pairing_tables(rs)
    bound = k * unit
    pair_max = max([0] + [P[a][b] for a in range(m) for b in range(a + 1, m)])
    violations = []
    equality = set()
    chosen = []
    visited = pruned = 0

    def dfs(start: int, r: int, acc: int, lv: list):
        nonlocal visited, pruned
        need = bound - acc
        tail = sorted(lv[start:], reverse=True)
        if sum(tail[:r]) + r * (r - 1) * pair_max < need:
            pruned += 1
            return
        visited += 1
        if r == 1:
            for b in range(start, m):
                if lv[b] > need:
                    violations.append((*chosen, b))
                elif lv[b] == need:
                    equality.add(frozenset((*chosen, b)))
            return
        for a in range(start, m - r + 1):
            chosen.append(a)
            dfs(a + 1, r - 1, acc + lv[a],
                [x + 2 * p for x, p in zip(lv, P[a])])
            chosen.pop()

    if k == 0:
        visited = 1
        equality.add(frozenset())
    elif k <= m:
        dfs(0, k, 0, [R[b] + P[b][b] for b in range(m)])
    expected = {xi.roots for xi in enumerate_abelian_ideals(rs) if xi.k == k}
    return {
        "subsets": total,
        "visited": visited,
        "pruned": pruned,
        "violations": violations,
        "equality_sets": equality,
        "expected_equality_sets": expected,
        "ok": not violations and equality == expected,
    }


def _count_partitions(m: int, budget: int) -> int:
    """The number of q in Z_+^m with sum q_i (q_i + 1) / 2 <= budget."""
    ways = [1] + [0] * budget          # ways[c]: prefixes of exact cost c
    for _ in range(m):
        nxt = [0] * (budget + 1)
        for c, w in enumerate(ways):
            if w:
                v = t = 0
                while c + t <= budget:
                    nxt[c + t] += w
                    v += 1
                    t += v
        ways = nxt
    return sum(ways)


def verify_root_partition_bound(
        rs: RootSystem, cas_ceiling: int,
        max_candidates: int = Limits.partition_candidates) -> dict:
    """Positive-root partitions q with triangular cost <= ceiling: the cost
    dominates the shifted norm excess of the assembled vector, with
    equality exactly on the wall-count vectors of dominant alcoves.

    The depth-first search fixes q[0], q[1], ... in turn, each counting up
    from 0, and carries the unspent budget, the excess and the column sums
    col[b] = sum_{a < pos} q[a] P[a][b] of the prefix, so setting
    q[pos] = v adds v R[pos] + v^2 P[pos][pos] + 2 v col[pos] to the
    excess.  Once the budget is spent the rest of q is zero, so that
    candidate is checked at once.  `partitions` counts the candidates and
    `visited` the nodes expanded.
    """
    from .alcove import enumerate_casimir_bounded

    P, R, unit = _pairing_tables(rs)
    m = rs.num_positive
    count = _count_partitions(m, cas_ceiling)
    if count > max_candidates:
        raise ValueError(f"{count} partitions exceed the partition_candidates "
                         f"ceiling {max_candidates}; raise it explicitly")
    q = [0] * m
    violations = []
    equality = set()
    visited = 0

    def dfs(pos: int, remaining: int, excess: int, col: list):
        nonlocal visited
        visited += 1
        row = P[pos]
        lin = R[pos] + 2 * col[pos]
        diag = row[pos]
        v = t = 0
        while t <= remaining:
            q[pos] = v
            ex = excess + v * (lin + v * diag)
            spent = (cas_ceiling - remaining + t) * unit
            if pos + 1 < m and t < remaining:
                dfs(pos + 1, remaining - t, ex,
                    [c + v * p for c, p in zip(col, row)] if v else col)
            elif spent < ex:
                violations.append(tuple(q))
            elif spent == ex:
                equality.add(tuple(q))
            v += 1
            t += v
        q[pos] = 0

    dfs(0, cas_ceiling, 0, [0] * m)
    expected = {e.n_vec for e in enumerate_casimir_bounded(rs, cas_ceiling)}
    return {
        "partitions": count,
        "visited": visited,
        "violations": violations,
        "equality_sets": equality,
        "expected_equality_sets": expected,
        "ok": not violations and equality == expected,
    }
