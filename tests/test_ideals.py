"""Abelian ideal enumeration, the alcove bijection, and the two bounds."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcoves import ideals
from alcoves.alcove import chi_at_type_rho, enumerate_dominant, in_wf2
from alcoves.ideals import (dim_Ck, enumerate_abelian_ideals, ideal_to_sigma,
                            is_abelian, is_ideal, max_abelian_dimension,
                            sigma_to_ideal, verify_root_partition_bound,
                            verify_subset_bound)
from alcoves.rootsystem import parse_type
from alcoves.series import bott_series

RANK6_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "C2", "B3", "C3",
               "D4", "D5", "G2", "F4", "E6"]


@pytest.mark.parametrize("label", RANK6_TYPES)
def test_count_is_power_of_two(label):
    rs = parse_type(label)
    ideals = enumerate_abelian_ideals(rs)
    assert len(ideals) == 2 ** rs.rank
    assert len({xi.roots for xi in ideals}) == len(ideals)
    assert any(xi.k == 0 for xi in ideals)


@pytest.mark.parametrize("label", ["A7", "B7", "C7", "D7", "E7"])
def test_count_is_power_of_two_rank_seven(label):
    rs = parse_type(label)
    assert len(enumerate_abelian_ideals(rs)) == 2 ** 7


def test_special_linear_dimension_values():
    """f_k at the special-linear dimensions equals the signed ideal sum;
    nonzero exactly when a k-dimensional abelian subalgebra exists."""
    from alcoves.series import f_poly

    for k in range(1, 5):
        for m in range(max(2, k), 7):
            rs = parse_type(f"A{m - 1}")
            value = f_poly(k)(m * m - 1)
            assert value == (-1) ** k * dim_Ck(rs, k), (k, m)
            if m * m // 4 >= k:
                assert value != 0, (k, m)
            else:
                assert value == 0, (k, m)


@pytest.mark.parametrize("label", RANK6_TYPES)
def test_every_output_is_an_abelian_ideal(label):
    rs = parse_type(label)
    for xi in enumerate_abelian_ideals(rs):
        assert is_ideal(rs, xi.roots)
        assert is_abelian(rs, xi.roots)


def test_a1_and_a2_ideals_explicit():
    a1 = parse_type("A1")
    assert sorted(xi.k for xi in enumerate_abelian_ideals(a1)) == [0, 1]
    a2 = parse_type("A2")
    ideals = enumerate_abelian_ideals(a2)
    as_roots = {tuple(sorted(a2.positive_roots[i] for i in xi.roots))
                for xi in ideals}
    assert as_roots == {
        (),
        ((1, 1),),
        ((0, 1), (1, 1)),
        ((1, 0), (1, 1)),
    }


def test_non_ideals_rejected_by_predicates():
    a2 = parse_type("A2")
    simple = a2.positive_roots.index((1, 0))
    assert not is_ideal(a2, {simple})
    full = set(range(a2.num_positive))
    assert is_ideal(a2, full)
    assert not is_abelian(a2, full)


def test_max_dimension_values():
    """The three types whose maximal ideal stays below the dual Coxeter
    number, then representatives of the generic inequality."""
    for label, m in [("A1", 1), ("A2", 2), ("G2", 3)]:
        rs = parse_type(label)
        assert max_abelian_dimension(rs) == m
        assert m < rs.h_dual
    for label in ["A3", "B2", "B3", "C3", "D4", "F4", "E6"]:
        rs = parse_type(label)
        assert max_abelian_dimension(rs) >= rs.h_dual


@pytest.mark.parametrize("label", RANK6_TYPES)
def test_bijection_round_trip(label):
    rs = parse_type(label)
    ideals = enumerate_abelian_ideals(rs)
    seen = set()
    for xi in ideals:
        e = ideal_to_sigma(rs, xi)
        assert in_wf2(rs, e)
        assert e.lam == xi.lam
        assert e.length == xi.k
        assert e.cas == xi.k
        assert sigma_to_ideal(rs, e) == xi
        seen.add(e.n_vec)
    assert len(seen) == len(ideals)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                   "C3", "C4", "D4", "G2", "F4", "E6", "E7",
                                   "E8"])
def test_reflection_table_matches_alcove_search(label):
    rs = parse_type(label)
    by_nvec = ideals._wf2_by_nvec(rs)
    all_ideals = enumerate_abelian_ideals(rs)
    assert len(by_nvec) == len(all_ideals)
    for xi in all_ideals:
        indicator = tuple(int(i in xi.roots) for i in range(rs.num_positive))
        assert ideal_to_sigma(rs, xi) == by_nvec[indicator]


@pytest.mark.parametrize("label", ["A2", "B3", "G2", "D4"])
def test_wf2_maps_onto_ideals(label):
    rs = parse_type(label)
    bound = max_abelian_dimension(rs)
    wf2 = [e for e in enumerate_dominant(rs, bound) if in_wf2(rs, e)]
    images = {sigma_to_ideal(rs, e).roots for e in wf2}
    assert images == {xi.roots for xi in enumerate_abelian_ideals(rs)}


def test_sigma_to_ideal_rejects_outside():
    rs = parse_type("A1")
    long_one = [e for e in enumerate_dominant(rs, 2) if e.length == 2][0]
    with pytest.raises(ValueError):
        sigma_to_ideal(rs, long_one)


def test_ideal_signs():
    for label in ["A2", "B2", "G2", "A3"]:
        rs = parse_type(label)
        for xi in enumerate_abelian_ideals(rs):
            assert chi_at_type_rho(rs, xi.lam) == (-1) ** xi.k


def test_dim_Ck_values():
    a2 = parse_type("A2")
    assert dim_Ck(a2, 0) == 1
    assert dim_Ck(a2, 1) == a2.dim_g
    assert dim_Ck(a2, 2) == 20
    assert dim_Ck(a2, 3) == 0
    for label in ["A3", "B2", "G2"]:
        rs = parse_type(label)
        assert dim_Ck(rs, 1) == rs.dim_g


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2", "D4"])
def test_ideal_counts_match_loop_betti(label):
    rs = parse_type(label)
    series = bott_series(rs, rs.h_dual)
    ideals = enumerate_abelian_ideals(rs)
    for k in range(rs.h_dual):
        assert sum(1 for xi in ideals if xi.k == k) == series[k]


def test_subset_bound_a2_k2_by_hand():
    a2 = parse_type("A2")
    res = verify_subset_bound(a2, 2)
    assert res["subsets"] == 3
    assert res["ok"]
    sets = {tuple(sorted(a2.positive_roots[i] for i in s))
            for s in res["equality_sets"]}
    assert sets == {((0, 1), (1, 1)), ((1, 0), (1, 1))}


def test_subset_bound_empty_set():
    res = verify_subset_bound(parse_type("B2"), 0)
    assert res["ok"] and len(res["equality_sets"]) == 1


def test_subset_bound_g2_k4_has_no_equality():
    res = verify_subset_bound(parse_type("G2"), 4)
    assert res["ok"]
    assert res["equality_sets"] == set()


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_subset_bound_all_k(label):
    rs = parse_type(label)
    for k in range(rs.num_positive + 1):
        assert verify_subset_bound(rs, k)["ok"]


def test_subset_bound_a3_low_k():
    rs = parse_type("A3")
    for k in range(5):
        assert verify_subset_bound(rs, k)["ok"]


def test_subset_bound_scale_guard():
    with pytest.raises(ValueError, match="max_candidates ceiling 1000"):
        verify_subset_bound(parse_type("E6"), 18, max_candidates=1000)


def test_root_partition_bound_a1_all_equalities():
    rs = parse_type("A1")
    res = verify_root_partition_bound(rs, 6)
    assert res["ok"]
    # Every budget-feasible single-root partition meets the bound exactly.
    assert res["equality_sets"] == {(0,), (1,), (2,), (3,)}


def test_root_partition_bound_a2_strict_case():
    rs = parse_type("A2")
    res = verify_root_partition_bound(rs, 6)
    assert res["ok"]
    # Assembling the highest root from both simples is strictly worse.
    i1 = rs.positive_roots.index((1, 0))
    i2 = rs.positive_roots.index((0, 1))
    q = tuple(1 if i in (i1, i2) else 0 for i in range(rs.num_positive))
    assert q not in res["equality_sets"]


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_root_partition_bound(label):
    assert verify_root_partition_bound(parse_type(label), 6)["ok"]


def test_root_partition_scale_guard():
    with pytest.raises(ValueError, match="max_candidates ceiling 3"):
        verify_root_partition_bound(parse_type("A2"), 6, max_candidates=3)


def full_subset_sweep(rs, k):
    """Oracle: the excess of every k-subset, each computed from scratch."""
    P, R, unit = ideals._pairing_tables(rs)
    bound = k * unit
    violations = []
    equality = set()
    for subset in combinations(range(rs.num_positive), k):
        acc = 0
        for i, a in enumerate(subset):
            acc += R[a] + P[a][a]
            for b in subset[i + 1:]:
                acc += 2 * P[a][b]
        if acc > bound:
            violations.append(subset)
        elif acc == bound:
            equality.add(frozenset(subset))
    return {"subsets": comb(rs.num_positive, k), "violations": violations,
            "equality_sets": equality}


def _partitions_with_budget(m, budget):
    """All vectors q in Z_+^m with sum q_i (q_i + 1) / 2 <= budget, in
    lexicographic order."""
    q = [0] * m

    def rec(pos, remaining):
        if pos == m:
            yield tuple(q)
            return
        v = 0
        while v * (v + 1) // 2 <= remaining:
            q[pos] = v
            yield from rec(pos + 1, remaining - v * (v + 1) // 2)
            v += 1
        q[pos] = 0

    yield from rec(0, budget)


def full_partition_sweep(rs, cas_ceiling):
    """Oracle: the cost and excess of every partition, from scratch."""
    P, R, unit = ideals._pairing_tables(rs)
    count = 0
    violations = []
    equality = set()
    for q in _partitions_with_budget(rs.num_positive, cas_ceiling):
        count += 1
        cost = sum(v * (v + 1) // 2 for v in q)
        excess = sum(R[a] * v for a, v in enumerate(q) if v)
        excess += sum(q[a] * q[b] * P[a][b]
                      for a in range(len(q)) if q[a]
                      for b in range(len(q)) if q[b])
        if cost * unit < excess:
            violations.append(q)
        elif cost * unit == excess:
            equality.add(q)
    return {"partitions": count, "violations": violations,
            "equality_sets": equality}


def _assert_same_sweeps(rs, ks, cas_ceiling):
    for k in ks:
        got = verify_subset_bound(rs, k)
        want = full_subset_sweep(rs, k)
        assert {key: got[key] for key in want} == want, (rs.label, k)
    got = verify_root_partition_bound(rs, cas_ceiling)
    want = full_partition_sweep(rs, cas_ceiling)
    assert {key: got[key] for key in want} == want, (rs.label, cas_ceiling)


# (type, largest k, partition ceiling); None sweeps every k.
ORACLE_CASES = [("A1", None, 10), ("A2", None, 10), ("A3", None, 8),
                ("A4", None, 10), ("B2", None, 8), ("B3", None, 6),
                ("C3", None, 6), ("C4", None, 4), ("D4", None, 5),
                ("G2", None, 8), ("F4", 6, 3), ("E6", 3, 2)]


@pytest.mark.parametrize("label,kmax,cas_ceiling", ORACLE_CASES)
def test_sweeps_match_full_oracles(label, kmax, cas_ceiling):
    rs = parse_type(label)
    kmax = rs.num_positive if kmax is None else kmax
    _assert_same_sweeps(rs, range(kmax + 1), cas_ceiling)


_TRUE_TABLES = ideals._pairing_tables
# 45 = the 36 pairs and 9 roots of B3/C3, the largest types drawn below.
NOISE = st.lists(st.integers(-3, 3), min_size=45, max_size=45)


def _perturbed(rs, dp, dr, du):
    """The true tables with symmetric noise on P, noise on R and a shifted
    unit; the bounds then fail and meet equality in new places."""
    P, R, unit = _TRUE_TABLES(rs)
    m = rs.num_positive
    noise = [[0] * m for _ in range(m)]
    for (a, b), d in zip(combinations(range(m), 2), dp):
        noise[a][b] = noise[b][a] = d
    for a, d in zip(range(m), dp[len(dp) - m:]):
        noise[a][a] = d
    P = tuple(tuple(p + d for p, d in zip(row, nrow))
              for row, nrow in zip(P, noise))
    R = tuple(r + d for r, d in zip(R, dr))
    return P, R, unit + du


@given(label=st.sampled_from(["A2", "A3", "B2", "G2", "B3", "C3"]),
       dp=NOISE, dr=NOISE, du=st.integers(-3, 2))
def test_sweeps_match_oracles_on_perturbed_tables(label, dp, dr, du):
    """The prune bound must hold for any symmetric table, not only for the
    true one, whose sweeps have no violations to lose."""
    rs = parse_type(label)
    tables = _perturbed(rs, dp, dr, du)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_pairing_tables", lambda _: tables)
        _assert_same_sweeps(rs, range(rs.num_positive + 1), 4)


def test_perturbed_tables_reach_violations_and_new_equalities():
    rs = parse_type("B3")
    tables = _perturbed(rs, [1] * 45, [2] * 45, -1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "_pairing_tables", lambda _: tables)
        subsets = [verify_subset_bound(rs, k) for k in range(10)]
        partitions = verify_root_partition_bound(rs, 4)
    assert all(r["violations"] for r in subsets[1:])
    assert any(r["equality_sets"] != r["expected_equality_sets"]
               for r in subsets)
    assert partitions["violations"]


def test_sweeps_report_their_work():
    rs = parse_type("F4")
    res = verify_subset_bound(rs, 6)
    assert res["ok"] and res["subsets"] == comb(24, 6)
    assert res["pruned"] > 0
    assert res["visited"] + res["pruned"] < res["subsets"]
    part = verify_root_partition_bound(parse_type("A4"), 10)
    assert part["ok"] and part["partitions"] == 17719
    assert 0 < part["visited"] < part["partitions"]


ROUND_TRIP_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                    "D4", "G2", "F4"]


@given(label=st.sampled_from(ROUND_TRIP_TYPES), pick=st.integers(0, 2 ** 4 - 1))
def test_ideal_alcove_round_trip_property(label, pick):
    rs = parse_type(label)
    all_ideals = enumerate_abelian_ideals(rs)
    xi = all_ideals[pick % len(all_ideals)]
    e = ideal_to_sigma(rs, xi)
    assert in_wf2(rs, e)
    assert (e.lam, e.length, e.cas) == (xi.lam, xi.k, xi.k)
    assert sigma_to_ideal(rs, e) == xi
    assert ideal_to_sigma(rs, sigma_to_ideal(rs, e)) == e
