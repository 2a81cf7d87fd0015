"""Type-A specialization: partitions, m-cores, and the null-core dictionary.

Dominant integral weights of A_{m-1} correspond to partitions with fewer
than m parts through first differences.  The m-core of a partition is
computed on beta numbers (first-column hook lengths): removing a rim hook
of length m is moving a bead down m positions on the abacus, legal when
the landing spot is free.  The core is independent of removal order,
which the test suite exercises with randomized orders.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .alcove import chi_at_type_rho, enumerate_dominant
from .limits import Limits
from .rootsystem import RootSystem, build_root_system


def weight_to_partition(rs: RootSystem, weight) -> tuple:
    """Partition with parts q_i - q_{i+1} equal to the weight coordinates
    and last part zero, for a dominant integral weight of A_{m-1}."""
    if rs.family != "A":
        raise ValueError("partition dictionary only applies to type A")
    if not rs.is_dominant_integral(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    parts = []
    running = 0
    for c in reversed([int(x) for x in weight]):
        running += c
        parts.append(running)
    parts.reverse()
    return tuple(p for p in parts if p > 0)


def partition_to_weight(p, m: int) -> tuple:
    """Inverse of weight_to_partition; at most m - 1 parts allowed."""
    if any(a < b for a, b in zip(p, p[1:])) or any(x <= 0 for x in p):
        raise ValueError(f"{p} is not a partition")
    if len(p) > m - 1:
        raise ValueError(f"partition has more than {m - 1} parts")
    q = list(p) + [0] * (m - len(p))
    return tuple(q[i] - q[i + 1] for i in range(m - 1))


def beta_numbers(p, length: int) -> list:
    """First-column hook lengths padded to the given set size."""
    if length < len(p):
        raise ValueError("beta set too short for the partition")
    q = list(p) + [0] * (length - len(p))
    return [q[i] + (length - 1 - i) for i in range(length)]


def partition_from_betas(betas) -> tuple:
    bs = sorted(betas, reverse=True)
    t = len(bs)
    parts = [bs[i] - (t - 1 - i) for i in range(t)]
    if any(x < 0 for x in parts):
        raise ValueError("invalid beta set")
    return tuple(x for x in parts if x > 0)


def m_core(p, m: int, choose=None) -> tuple:
    """The m-core by repeated bead moves on the abacus.

    `choose` picks which legal move to make (for order-independence
    tests); the default takes the smallest movable bead.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    size = max(len(p), 1)
    size += (-size) % m
    betas = set(beta_numbers(p, size))
    while True:
        movable = sorted(b for b in betas if b >= m and b - m not in betas)
        if not movable:
            break
        b = movable[0] if choose is None else choose(movable)
        betas.remove(b)
        betas.add(b - m)
    return partition_from_betas(betas)


def has_null_core(p, m: int) -> bool:
    return m_core(p, m) == ()


def partitions_at_most(n: int, max_parts: int):
    """Partitions of n with at most max_parts parts."""
    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest
    yield from rec(n, n, max_parts)


def _count_partitions_at_most(n: int, max_parts: int) -> int:
    """The number of partitions of n with at most max_parts parts, which
    equals the number with parts at most max_parts (conjugation)."""
    ways = [1] + [0] * n
    for part in range(1, max_parts + 1):
        for c in range(part, n + 1):
            ways[c] += ways[c - part]
    return ways[n]


def count_null_cores(m: int, k: int,
                     max_candidates: int = Limits.partition_candidates) -> int:
    """Number of partitions of m*k with fewer than m parts and empty
    m-core, by direct enumeration and filtering; the candidates are
    counted first, so an over-ceiling size is refused before any work."""
    if k == 0:
        return 1
    n = m * k
    candidates = _count_partitions_at_most(n, m - 1)
    if candidates > max_candidates:
        raise ValueError(f"partition enumeration of {candidates} partitions of "
                         f"{n} exceeds the partition_candidates ceiling "
                         f"{max_candidates}; raise it explicitly")
    return sum(1 for p in partitions_at_most(n, m - 1) if has_null_core(p, m))


def null_core_count_expected(m: int, k: int) -> int:
    return comb(m + k - 2, m - 2)


def verify_null_core_bijection(
        m: int, max_length: int,
        max_candidates: int = Limits.partition_candidates) -> dict:
    """Map every alcove weight of A_{m-1} up to the length bound to its
    partition: all images must have empty m-core, sizes divisible by m,
    no repeats, and character signs matching the length parity.

    Completeness cannot be bounded a priori, so per-size coverage against
    the direct null-core enumeration is reported, not asserted.
    """
    rs = build_root_system("A", m - 1)
    images = []
    failures = []
    for e in enumerate_dominant(rs, max_length):
        p = weight_to_partition(rs, e.lam)
        checks = {
            "null_core": has_null_core(p, m),
            "size_divisible": sum(p) % m == 0,
            "sign": chi_at_type_rho(rs, e.lam) == (-1) ** e.length,
        }
        if not all(checks.values()):
            failures.append((e.n_vec, p, checks))
        images.append(p)
    distinct = len(set(images)) == len(images)
    hits = Counter(sum(p) for p in set(images))
    # A partition with empty m-core has size divisible by m.
    coverage = {s: (hit, count_null_cores(m, s // m, max_candidates)
                    if s % m == 0 else 0)
                for s, hit in sorted(hits.items())}
    return {
        "count": len(images),
        "distinct": distinct,
        "failures": failures,
        "coverage_by_size": coverage,
        "ok": distinct and not failures,
    }
