"""Partition dictionary, m-cores on the abacus, null-core counting."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcoves.alcove import chi_at_type_rho, enumerate_dominant
from alcoves.rootsystem import build_root_system
from alcoves.typea import (_count_partitions_at_most, beta_numbers,
                           count_null_cores, has_null_core,
                           m_core, null_core_count_expected,
                           partition_from_betas, partition_to_weight,
                           partitions_at_most, verify_null_core_bijection,
                           weight_to_partition)


def test_weight_partition_examples():
    rs = build_root_system("A", 2)
    assert weight_to_partition(rs, (0, 0)) == ()
    assert weight_to_partition(rs, (1, 1)) == (2, 1)
    assert weight_to_partition(rs, (3, 0)) == (3,)
    assert partition_to_weight((2, 1), 3) == (1, 1)
    assert partition_to_weight((), 3) == (0, 0)


def test_partition_to_weight_guards():
    with pytest.raises(ValueError):
        partition_to_weight((1, 1, 1), 3)      # too many parts
    with pytest.raises(ValueError):
        partition_to_weight((1, 2), 4)         # not weakly decreasing
    rs = build_root_system("B", 2)
    with pytest.raises(ValueError):
        weight_to_partition(rs, (1, 0))        # wrong family


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_round_trip(m):
    rs = build_root_system("A", m - 1)
    for coords in itertools.product(range(6), repeat=m - 1):
        p = weight_to_partition(rs, coords)
        assert partition_to_weight(p, m) == coords


def test_beta_numbers():
    assert beta_numbers((3, 1), 2) == [4, 1]
    assert beta_numbers((3, 1), 4) == [6, 3, 1, 0]
    assert partition_from_betas([6, 3, 1, 0]) == (3, 1)
    with pytest.raises(ValueError):
        beta_numbers((3, 1), 1)


def test_core_examples():
    assert m_core((), 3) == ()
    assert m_core((3,), 3) == ()
    assert m_core((2, 1), 3) == ()
    assert m_core((1,), 3) == (1,)
    assert m_core((2, 2), 3) == (1,)
    # Staircase partitions are their own 2-cores.
    assert m_core((3, 2, 1), 2) == (3, 2, 1)
    with pytest.raises(ValueError):
        m_core((2, 1), 1)


def test_core_size_drops_by_multiples():
    rng = random.Random(20240817)
    for _ in range(200):
        parts = tuple(sorted((rng.randint(1, 10) for _ in
                              range(rng.randint(0, 6))), reverse=True))
        m = rng.randint(2, 6)
        core = m_core(parts, m)
        assert (sum(parts) - sum(core)) % m == 0


def test_core_idempotent_and_order_independent():
    rng = random.Random(99)
    for _ in range(200):
        parts = tuple(sorted((rng.randint(1, 9) for _ in
                              range(rng.randint(0, 6))), reverse=True))
        m = rng.randint(2, 6)
        core = m_core(parts, m)
        assert m_core(core, m) == core
        for _ in range(4):
            assert m_core(parts, m, choose=rng.choice) == core


@given(st.lists(st.integers(1, 12), max_size=8), st.integers(2, 6), st.data())
def test_core_order_independence_property(parts, m, data):
    """Any sequence of legal bead moves ends at the same m-core, here with
    Hypothesis picking every move, and the core has no move left."""
    p = tuple(sorted(parts, reverse=True))
    core = m_core(p, m)
    assert m_core(core, m) == core
    assert m_core(p, m, choose=lambda movable: data.draw(
        st.sampled_from(movable))) == core


def test_partitions_at_most():
    assert sorted(partitions_at_most(4, 2)) == [(2, 2), (3, 1), (4,)]
    assert list(partitions_at_most(0, 3)) == [()]
    assert list(partitions_at_most(3, 0)) == []


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_null_core_counts(m, k):
    assert count_null_cores(m, k) == null_core_count_expected(m, k)


def test_null_core_counts_hand_checked():
    # Size 3 with at most 2 parts: (3) and (2,1), both null 3-cores.
    assert count_null_cores(3, 1) == 2
    # Size 5 with at most 4 parts: four of the six partitions qualify.
    assert count_null_cores(5, 1) == 4
    assert count_null_cores(4, 0) == 1


def test_candidate_count_matches_enumeration():
    for n in range(16):
        for max_parts in range(6):
            assert _count_partitions_at_most(n, max_parts) == \
                sum(1 for _ in partitions_at_most(n, max_parts))
    assert _count_partitions_at_most(90, 8) == 817789
    assert _count_partitions_at_most(270, 8) == 805240304


def test_count_scale_guard():
    with pytest.raises(ValueError, match="max_candidates ceiling 5"):
        count_null_cores(6, 3, max_candidates=5)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_alcove_weights_give_null_cores(m):
    res = verify_null_core_bijection(m, 6)
    assert res["ok"]
    assert res["distinct"]
    assert not res["failures"]


def test_bijection_images_and_signs():
    m = 3
    rs = build_root_system("A", m - 1)
    for e in enumerate_dominant(rs, 6):
        p = weight_to_partition(rs, e.lam)
        assert has_null_core(p, m)
        assert sum(p) % m == 0
        assert chi_at_type_rho(rs, e.lam) == (-1) ** e.length


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_coverage_totals_match_direct_enumeration(m):
    """Each per-size total is the direct count of null-core partitions."""
    res = verify_null_core_bijection(m, 8)
    for size, (hit, total) in res["coverage_by_size"].items():
        assert total == sum(1 for p in partitions_at_most(size, m - 1)
                            if has_null_core(p, m))


def test_small_sizes_fully_covered():
    """Within length 6 the images exhaust the null cores of small size."""
    res = verify_null_core_bijection(3, 6)
    for size, (hit, total) in res["coverage_by_size"].items():
        if size <= 6:
            assert hit == total
