"""The exterior-algebra suite: the seven numbers of each wedge degree."""

from __future__ import annotations

from math import comb


def suite_seven_numbers(rep: Report, rs: RootSystem, limits: Limits) -> Report:
    """Five independent computations of the same number for k up to the
    dual Coxeter number: the signed series coefficient, the abelian-ideal
    dimension sum, the Casimir eigenspace dimension, the coboundary-ideal
    complement, and the bigraded alcove sum."""
    from ..alcove import enumerate_casimir_bounded
    from ..ideals import dim_Ck, enumerate_abelian_ideals
    from ..rootsystem import weyl_dimension
    from ..series import euler_power
    from ..wedge import (build_chevalley, casimir_eigenspace_dim,
                        dg_ideal_dim, verify_ideal_top_vectors)

    table = build_chevalley(rs)
    series = euler_power(rs.dim_g, rs.h_dual)
    doms = enumerate_casimir_bounded(rs, rs.h_dual)
    for k in range(rs.h_dual + 1):
        legs = {
            "series": (-1) ** k * series[k],
            "ideal_sum": dim_Ck(rs, k),
            "eigenspace": casimir_eigenspace_dim(table, k, limits.wedge_matrix),
            "coboundary": comb(rs.dim_g, k) - dg_ideal_dim(table, k, limits.wedge_matrix),
            "alcove_sum": sum(weyl_dimension(rs, e.lam) for e in doms
                              if e.length == k and e.cas == k),
        }
        rep.add(f"seven-numbers-k{k}", len(set(legs.values())) == 1, legs)
    top = verify_ideal_top_vectors(table, enumerate_abelian_ideals(rs))
    rep.add("ideal-wedges-are-eigenvectors", top["ok"],
            {"checked": top["checked"]})
    return rep
