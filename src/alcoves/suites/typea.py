"""The type-A suite: null m-cores and the weight map from alcoves."""

from __future__ import annotations


def suite_mcore(rep: Report, limits: Limits, m: int = 3, kmax: int = 3,
                max_length: int = 6) -> Report:
    """Null m-cores by size; alcove weights map to null m-cores."""
    from .. import typea

    # The candidate counts grow with k: the largest is refused first.
    got = {k: typea.count_null_cores(m, k, limits.max_candidates)
           for k in range(kmax, -1, -1)}
    for k in range(kmax + 1):
        expected = typea.null_core_count_expected(m, k)
        rep.add(f"null-core-count-size-{m * k}", got[k] == expected,
                {"enumerated": got[k], "binomial": expected})
    res = typea.verify_null_core_bijection(m, max_length,
                                           limits.max_candidates)
    rep.add("alcove-weights-map-to-null-cores", res["ok"],
            {"alcoves": res["count"], "failures": len(res["failures"])})
    rep.add("images-distinct", res["distinct"])
    for size, (hit, total) in sorted(res["coverage_by_size"].items()):
        status = hit <= total
        rep.add(f"coverage-size-{size}", status,
                {"hit": hit, "null_cores": total},
                detail="coverage is informational; completeness has no a"
                       " priori length bound" if hit < total else "")
    return rep
