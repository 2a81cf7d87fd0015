"""Verification suites behind the command-line driver.

Each suite cross-checks one identity through at least two independently
implemented routes and returns a deterministic Report.  Claims carry the
values they compared as decimal-string witnesses.  The series, wedge and
type-A modules are imported inside the suites that use them, so a suite
compiles only what it runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .alcove import (chi_at_type_rho, counts_by_length, enumerate_dominant,
                     finite_part_length, ideal_chain, in_wf2,
                     two_rho_pairing_killing)
from .ideals import (_root_sum_weight, _wf2_by_nvec, dim_Ck,
                     enumerate_abelian_ideals, ideal_to_sigma, is_abelian,
                     is_ideal, max_abelian_dimension, sigma_to_ideal,
                     verify_root_partition_bound, verify_subset_bound)
from .limits import Limits
from .report import Report
from .rootsystem import RootSystem, parse_type, weyl_dimension

# Maximal abelian-subalgebra dimension for the three types where it stays
# below the dual Coxeter number.
SMALL_MALCEV = {"A1": 1, "A2": 2, "G2": 3}


def suite_peterson(rs: RootSystem, limits: Limits, **_) -> Report:
    rep = Report(suite="peterson", type_label=rs.label)
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
    return rep


def suite_seven_numbers(rs: RootSystem, limits: Limits, **_) -> Report:
    """Five independent computations of the same number for k up to the
    dual Coxeter number: the signed series coefficient, the abelian-ideal
    dimension sum, the Casimir eigenspace dimension, the coboundary-ideal
    complement, and the bigraded alcove sum."""
    from .series import euler_power
    from .wedge import (build_chevalley, casimir_eigenspace_dim,
                        dg_ideal_dim, verify_ideal_top_vectors)

    rep = Report(suite="seven-numbers", type_label=rs.label)
    table = build_chevalley(rs, dim_ceiling=limits.chevalley_dim)
    series = euler_power(rs.dim_g, rs.h_dual)
    doms = enumerate_dominant(rs, rs.h_dual)
    for k in range(rs.h_dual + 1):
        if comb(rs.dim_g, k) > limits.subset_candidates:
            raise ValueError(
                f"wedge degree {k} sweeps {comb(rs.dim_g, k)} subsets, over "
                f"the subset_candidates ceiling {limits.subset_candidates}; "
                "raise it explicitly")
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


def suite_bott(rs: RootSystem, limits: Limits, max_length: int = 12, **_) -> Report:
    from .series import bott_series

    rep = Report(suite="bott", type_label=rs.label,
                 params={"max_length": max_length})
    counts = counts_by_length(rs, max_length)
    series = bott_series(rs, max_length)
    for n in range(max_length + 1):
        rep.add(f"alcove-count-length-{n}", counts[n] == series[n],
                {"enumerated": counts[n], "series": series[n]})
    return rep


def suite_betti_ideals(rs: RootSystem, limits: Limits, **_) -> Report:
    from .series import bott_series

    rep = Report(suite="betti-ideals", type_label=rs.label)
    series = bott_series(rs, rs.h_dual)
    ideals = enumerate_abelian_ideals(rs)
    for k in range(rs.h_dual):
        count = sum(1 for xi in ideals if xi.k == k)
        rep.add(f"ideal-count-k{k}", count == series[k],
                {"ideals": count, "loop_betti": series[k]})
    return rep


def suite_subset_bound(rs: RootSystem, limits: Limits,
                       kmax: int | None = None, **_) -> Report:
    """Norm bound for arbitrary k-subsets of positive roots, equality
    exactly on abelian-ideal root sets.  Degrees whose subset count
    exceeds the configured ceiling are reported as skipped."""
    kmax = rs.num_positive if kmax is None else min(kmax, rs.num_positive)
    rep = Report(suite="subset-bound", type_label=rs.label,
                 params={"kmax": kmax})
    for k in range(kmax + 1):
        if comb(rs.num_positive, k) > limits.subset_candidates:
            rep.skip(f"subset-bound-k{k}",
                     detail=f"{comb(rs.num_positive, k)} subsets exceed the "
                            f"subset_candidates ceiling {limits.subset_candidates}")
            continue
        res = verify_subset_bound(rs, k, limits.subset_candidates)
        rep.add(f"subset-bound-k{k}", res["ok"],
                {"subsets": res["subsets"],
                 "equality_cases": len(res["equality_sets"]),
                 "expected_equality_cases": len(res["expected_equality_sets"]),
                 "violations": len(res["violations"])})
    return rep


def suite_root_partitions(rs: RootSystem, limits: Limits,
                          cas_ceiling: int = 6, **_) -> Report:
    rep = Report(suite="root-partitions", type_label=rs.label,
                 params={"cas_ceiling": cas_ceiling})
    res = verify_root_partition_bound(rs, cas_ceiling,
                                      limits.partition_candidates)
    rep.add("triangular-cost-bound", not res["violations"],
            {"partitions": res["partitions"],
             "violations": len(res["violations"])})
    rep.add("equality-exactly-alcove-partitions",
            res["equality_sets"] == res["expected_equality_sets"],
            {"equality_cases": len(res["equality_sets"]),
             "alcoves": len(res["expected_equality_sets"])})
    return rep


def suite_ideal_chains(rs: RootSystem, limits: Limits,
                       max_length: int = 6, **_) -> Report:
    """Wall-count level sets of each alcove form a chain of ideals whose
    sums reconstruct the alcove weight, topped by an abelian ideal."""
    rep = Report(suite="ideal-chains", type_label=rs.label,
                 params={"max_length": max_length})
    elements = enumerate_dominant(rs, max_length)
    bad_ideal = bad_sum = bad_add = bad_top = 0
    for e in elements:
        chain = ideal_chain(rs, e)
        if not all(is_ideal(rs, level) for level in chain):
            bad_ideal += 1
        if _root_sum_weight(rs, [i for level in chain[1:] for i in level]) != e.lam:
            bad_sum += 1
        top = len(chain) - 1
        for i in range(len(chain)):
            for j in range(len(chain)):
                for a in chain[i]:
                    for b in chain[j]:
                        s = tuple(x + y for x, y in zip(
                            rs.positive_roots[a], rs.positive_roots[b]))
                        if rs.is_root(s):
                            # A sum of positive roots is positive.
                            target = i + j
                            if target <= top and rs.root_index(s) not in chain[target]:
                                bad_add += 1
        # The top level is abelian as soon as there is a nonzero level:
        # Delta_L + Delta_L lands in the empty Delta_2L only when L >= 1.
        if len(chain) > 1 and not is_abelian(rs, chain[-1]):
            bad_top += 1
    rep.add("levels-are-ideals", bad_ideal == 0,
            {"alcoves": len(elements), "failures": bad_ideal})
    rep.add("level-sums-give-weight", bad_sum == 0, {"failures": bad_sum})
    rep.add("level-addition-rule", bad_add == 0, {"failures": bad_add})
    rep.add("top-level-abelian", bad_top == 0, {"failures": bad_top})
    return rep


def suite_parity(rs: RootSystem, limits: Limits,
                 max_length: int = 8, **_) -> Report:
    rep = Report(suite="parity", type_label=rs.label,
                 params={"max_length": max_length})
    elements = enumerate_dominant(rs, max_length)
    bad = []
    for e in elements:
        lw = finite_part_length(rs, e)
        pairing = two_rho_pairing_killing(rs, e)
        if e.length + lw != pairing or pairing % 2:
            bad.append(e.n_vec)
    rep.add("length-sum-equals-rho-pairing-and-even", not bad,
            {"alcoves": len(elements), "failures": len(bad)})
    return rep


def suite_gap(rs: RootSystem, limits: Limits,
              max_length: int | None = None, **_) -> Report:
    """Alcoves outside twice the fundamental alcove are at least h_dual
    long; Casimir at most h_dual forces membership."""
    max_length = max_length if max_length is not None else rs.h_dual + 3
    rep = Report(suite="gap", type_label=rs.label,
                 params={"max_length": max_length})
    elements = enumerate_dominant(rs, max_length)
    low_outside = [e.n_vec for e in elements
                   if not in_wf2(rs, e) and e.length < rs.h_dual]
    cas_outside = [e.n_vec for e in elements
                   if e.cas <= rs.h_dual and not in_wf2(rs, e)]
    rep.add("outside-elements-are-long", not low_outside,
            {"alcoves": len(elements), "failures": len(low_outside)})
    rep.add("small-casimir-forces-membership", not cas_outside,
            {"failures": len(cas_outside)})
    return rep


def suite_euler_char(rs: RootSystem, limits: Limits,
                     kmax: int = 12, **_) -> Report:
    """Alternating wedge-degree sums of the bigraded dimensions equal the
    Euler-product coefficients; the top corner dominates through h_dual."""
    from .series import bigraded_dims, euler_power

    rep = Report(suite="euler-char", type_label=rs.label,
                 params={"kmax": kmax})
    table = bigraded_dims(rs.dim_g, kmax, kmax)
    series = euler_power(rs.dim_g, kmax)
    for k in range(kmax + 1):
        rep.add(f"euler-characteristic-k{k}",
                table.euler_characteristic(k) == series[k],
                {"alternating_sum": table.euler_characteristic(k),
                 "series": series[k]})
    for k in range(min(kmax, rs.h_dual) + 1):
        rep.add(f"corner-dominates-k{k}",
                table.entry(k, k) >= (-1) ** k * series[k],
                {"corner": table.entry(k, k),
                 "target": (-1) ** k * series[k]})
    return rep


def suite_roots_f234(limits: Limits, kmax: int = 12, **_) -> Report:
    """Closed forms of the first coefficient polynomials, their integer
    roots, and agreement of the two construction routes."""
    from .series import RatPoly, f_poly, f_poly_direct

    f2 = RatPoly([0, Fraction(-3, 2), Fraction(1, 2)])
    f3 = RatPoly([0, Fraction(-8, 6), Fraction(9, 6), Fraction(-1, 6)])
    f4 = RatPoly([0, Fraction(-42, 24), Fraction(59, 24),
                  Fraction(-18, 24), Fraction(1, 24)])
    rep = Report(suite="roots-f234", params={"kmax": kmax})
    rep.add("f1-is-minus-s", f_poly(1) == RatPoly([0, -1]),
            {"coeffs": [str(c) for c in f_poly(1).coeffs]})
    for k, target, roots in ((2, f2, (3,)), (3, f3, (1, 8)), (4, f4, (1, 3, 14))):
        poly = f_poly(k)
        rep.add(f"f{k}-closed-form", poly == target,
                {"coeffs": [str(c) for c in poly.coeffs]})
        rep.add(f"f{k}-integer-roots",
                all(poly(r) == 0 for r in roots) and poly(0) == 0,
                {"roots": (0,) + roots})
    agree = all(f_poly(k) == f_poly_direct(k) for k in range(kmax + 1))
    rep.add("recurrence-matches-composition-route", agree, {"kmax": kmax})
    return rep


def suite_interpolation(limits: Limits, **_) -> Report:
    """Each f_k is pinned down by k special-linear dimension sums at the
    points m^2 - 1, together with the root at zero."""
    from .series import f_poly

    rep = Report(suite="interpolation")
    for k in (2, 3, 4):
        points = [(Fraction(0), Fraction(0))]
        for m in range(k, 2 * k):
            rs = parse_type(f"A{m - 1}")
            value = Fraction((-1) ** k * dim_Ck(rs, k))
            points.append((Fraction(m * m - 1), value))
        rebuilt = _lagrange(points)
        rep.add(f"f{k}-from-ideal-dimensions", rebuilt == f_poly(k),
                {"points": [f"({p},{v})" for p, v in points]})
        # Nonzero values need an abelian subalgebra of dimension k, i.e.
        # floor(m^2/4) >= k; at m = k in {2, 3} the value vanishes, which
        # is the factorization result again (the roots 3 and 8).
        nonzero = all(v != 0 for (p, v), m in zip(points[1:], range(k, 2 * k))
                      if m * m // 4 >= k)
        rep.add(f"f{k}-nonzero-where-ideals-reach-k", nonzero)
    return rep


def _lagrange(points) -> RatPoly:
    from .series import RatPoly

    acc = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        term = [yi]
        for j, (xj, _) in enumerate(points):
            if i != j:
                # term *= (s - xj) / (xi - xj), on coefficient lists.
                term = [(a - xj * b) / (xi - xj)
                        for a, b in zip([0] + term, term + [0])]
        acc = [a + t for a, t in zip(acc, term)]
    return RatPoly(acc)


def suite_mcore(limits: Limits, m: int = 3, kmax: int = 3,
                max_length: int = 6, **_) -> Report:
    from . import typea

    rep = Report(suite="mcore", params={"m": m, "kmax": kmax,
                                        "max_length": max_length})
    # The candidate counts grow with k: the largest is refused first.
    got = {k: typea.count_null_cores(m, k, limits.partition_candidates)
           for k in range(kmax, -1, -1)}
    for k in range(kmax + 1):
        expected = typea.null_core_count_expected(m, k)
        rep.add(f"null-core-count-size-{m * k}", got[k] == expected,
                {"enumerated": got[k], "binomial": expected})
    res = typea.verify_null_core_bijection(m, max_length,
                                           limits.partition_candidates)
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


def _dominant_weights_with_cas_bound(rs: RootSystem, ceiling: int):
    """All dominant integral weights with Casimir eigenvalue <= ceiling.

    The eigenvalue is monotone in every coordinate, so a coordinate scan
    with early exit is exhaustive; each weight it yields passed the test
    with every coordinate set."""
    from .rootsystem import casimir_eigenvalue

    coords = [0] * rs.rank
    out = []

    def rec(i: int):
        if i == rs.rank:
            out.append(tuple(coords))
            return
        v = 0
        while True:
            coords[i] = v
            if casimir_eigenvalue(rs, tuple(coords[:i + 1]) +
                                  (0,) * (rs.rank - i - 1)) > ceiling:
                break
            rec(i + 1)
            v += 1
        coords[i] = 0

    rec(0)
    return out


def suite_sign(rs: RootSystem, limits: Limits, max_length: int = 8,
               cas_ceiling: int | None = None, **_) -> Report:
    """Character values at an element of type rho: length parity on alcove
    weights, zero on every other dominant weight below the ceiling."""
    rep = Report(suite="sign", type_label=rs.label,
                 params={"max_length": max_length,
                         "cas_ceiling": cas_ceiling if cas_ceiling is not None else ""})
    elements = enumerate_dominant(rs, max_length)
    bad = [e.n_vec for e in elements
           if chi_at_type_rho(rs, e.lam) != (-1) ** e.length]
    rep.add("sign-is-length-parity", not bad,
            {"alcoves": len(elements), "failures": len(bad)})
    if cas_ceiling is not None:
        alcove_weights = {e.lam for e in enumerate_dominant(rs, cas_ceiling)
                          if e.cas <= cas_ceiling}
        others = [w for w in _dominant_weights_with_cas_bound(rs, cas_ceiling)
                  if w not in alcove_weights]
        nonzero = [w for w in others if chi_at_type_rho(rs, w) != 0]
        rep.add("other-weights-have-zero-character", not nonzero,
                {"weights_checked": len(others), "failures": len(nonzero)})
    return rep


def suite_bijection(rs: RootSystem, limits: Limits, **_) -> Report:
    """Round trip between abelian ideals and alcoves in twice the
    fundamental alcove, with lengths matching ideal sizes; the alcoves
    built by affine reflections equal those the alcove BFS finds."""
    rep = Report(suite="bijection", type_label=rs.label)
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


SUITES = {
    "peterson": (suite_peterson, True),
    "seven-numbers": (suite_seven_numbers, True),
    "bott": (suite_bott, True),
    "betti-ideals": (suite_betti_ideals, True),
    "subset-bound": (suite_subset_bound, True),
    "root-partitions": (suite_root_partitions, True),
    "ideal-chains": (suite_ideal_chains, True),
    "parity": (suite_parity, True),
    "gap": (suite_gap, True),
    "euler-char": (suite_euler_char, True),
    "roots-f234": (suite_roots_f234, False),
    "interpolation": (suite_interpolation, False),
    "mcore": (suite_mcore, False),
    "sign": (suite_sign, True),
    "bijection": (suite_bijection, True),
}


def run_suite(name: str, type_label: str | None, limits: Limits,
              **params) -> Report:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    fn, needs_type = SUITES[name]
    params = {k: v for k, v in params.items() if v is not None}
    if needs_type:
        if not type_label:
            raise ValueError(f"suite {name!r} requires a type label")
        return fn(parse_type(type_label), limits, **params)
    return fn(limits, **params)
