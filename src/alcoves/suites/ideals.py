"""Suites on abelian Borel ideals: their count and dimensions, the
subset and root-partition bounds, and the round trip to alcoves; and the
listing `ideals`."""

from __future__ import annotations

# Maximal abelian-subalgebra dimension for the three types where it stays
# below the dual Coxeter number.
SMALL_MALCEV = {"A1": 1, "A2": 2, "G2": 3}


def suite_ideals(rep: Report, rs: RootSystem) -> Report:
    """Abelian ideals of the Borel."""
    from ..alcove import chi_at_type_rho
    from ..ideals import enumerate_abelian_ideals, ideal_to_sigma

    ideals = enumerate_abelian_ideals(rs)
    for i, xi in enumerate(ideals):
        e = ideal_to_sigma(rs, xi)
        rep.add(f"ideal-{i:04d}", e.lam == xi.lam, {
            "k": xi.k, "weight": xi.lam,
            "roots": sorted(rs.positive_roots[j] for j in xi.roots),
            "alcove_length": e.length,
            "sign": chi_at_type_rho(rs, xi.lam)})
    rep.add("count-is-2^rank", len(ideals) == 2 ** rs.rank,
            {"count": len(ideals), "expected": 2 ** rs.rank})
    return rep


def suite_peterson(rep: Report, rs: RootSystem) -> Report:
    from ..ideals import enumerate_abelian_ideals, max_abelian_dimension
    from ..rootsystem import heisenberg_count

    ideals = enumerate_abelian_ideals(rs)
    rep.add("abelian-ideal-count-is-2^rank", len(ideals) == 2 ** rs.rank,
            {"count": len(ideals), "expected": 2 ** rs.rank})
    rep.add("empty-ideal-present", any(xi.k == 0 for xi in ideals))
    rep.add("ideal-weights-distinct",
            len({xi.lam for xi in ideals}) == len(ideals))
    m = max_abelian_dimension(rs)
    if rs.label in SMALL_MALCEV:
        rep.add("max-ideal-dimension", m == SMALL_MALCEV[rs.label],
                {"max": m, "expected": SMALL_MALCEV[rs.label]})
    else:
        rep.add("max-ideal-dimension-at-least-dual-coxeter", m >= rs.h_dual,
                {"max": m, "h_dual": rs.h_dual})
    count = heisenberg_count(rs)
    rep.add("heisenberg-count-is-h-dual-minus-2", count == rs.h_dual - 2,
            {"count": count, "expected": rs.h_dual - 2})
    return rep


def suite_betti_ideals(rep: Report, rs: RootSystem) -> Report:
    from ..ideals import enumerate_abelian_ideals
    from ..series import bott_series

    series = bott_series(rs, rs.h_dual)
    ideals = enumerate_abelian_ideals(rs)
    for k in range(rs.h_dual):
        count = sum(1 for xi in ideals if xi.k == k)
        rep.add(f"ideal-count-k{k}", count == series[k],
                {"ideals": count, "loop_betti": series[k]})
    return rep


def suite_subset_bound(rep: Report, rs: RootSystem, limits: Limits,
                       kmax: int | None = None) -> Report:
    """Norm bound for arbitrary k-subsets of positive roots, equality
    exactly on abelian-ideal root sets.  Degrees whose subset count
    exceeds the configured ceiling are reported as skipped."""
    from ..ideals import verify_subset_bound

    kmax = rs.num_positive if kmax is None else min(kmax, rs.num_positive)
    rep.params["kmax"] = kmax
    for k in range(kmax + 1):
        try:
            res = verify_subset_bound(rs, k, limits.max_candidates)
        except ValueError as exc:  # the only refusal: over the ceiling
            rep.skip(f"subset-bound-k{k}", detail=str(exc))
            continue
        rep.add(f"subset-bound-k{k}", res["ok"],
                {"subsets": res["subsets"],
                 "equality_cases": len(res["equality_sets"]),
                 "expected_equality_cases": len(res["expected_equality_sets"]),
                 "violations": len(res["violations"])})
    return rep


def suite_root_partitions(rep: Report, rs: RootSystem, limits: Limits,
                          cas_ceiling: int = 6) -> Report:
    from ..ideals import verify_root_partition_bound

    res = verify_root_partition_bound(rs, cas_ceiling,
                                      limits.max_candidates)
    rep.add("triangular-cost-bound", not res["violations"],
            {"partitions": res["partitions"],
             "violations": len(res["violations"])})
    rep.add("equality-exactly-alcove-partitions",
            res["equality_sets"] == res["expected_equality_sets"],
            {"equality_cases": len(res["equality_sets"]),
             "alcoves": len(res["expected_equality_sets"])})
    return rep


def suite_bijection(rep: Report, rs: RootSystem) -> Report:
    """Round trip between abelian ideals and alcoves in twice the
    fundamental alcove, with lengths matching ideal sizes; the alcoves
    built by affine reflections equal those the alcove BFS finds."""
    from ..ideals import (_wf2_by_nvec, enumerate_abelian_ideals,
                         ideal_to_sigma, sigma_to_ideal)

    ideals = enumerate_abelian_ideals(rs)
    by_nvec = _wf2_by_nvec(rs)
    bad = mismatched = 0
    for xi in ideals:
        e = ideal_to_sigma(rs, xi)
        if sigma_to_ideal(rs, e) != xi or e.length != xi.k or \
                e.cas != xi.k or e.lam != xi.lam:
            bad += 1
        if by_nvec.get(e.n_vec) != e:
            mismatched += 1
    rep.add("ideal-alcove-round-trip", bad == 0,
            {"ideals": len(ideals), "failures": bad})
    rep.add("reflection-route-matches-bfs",
            mismatched == 0 and len(by_nvec) == len(ideals),
            {"bfs_alcoves": len(by_nvec), "failures": mismatched})
    return rep
