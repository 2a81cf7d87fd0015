"""Suites on dominant alcoves: lengths, wall counts, ideal chains, parity,
the gap above twice the fundamental alcove and character signs, and the
listing `alcoves`."""

from __future__ import annotations


def suite_alcoves(rep: Report, rs: RootSystem, max_length: int = 6,
                  wf2_only: bool = False) -> Report:
    """Dominant alcoves by length."""
    from ..alcove import enumerate_dominant, in_wf2
    from ..rootsystem import weyl_dimension

    for i, e in enumerate(enumerate_dominant(rs, max_length)):
        if wf2_only and not in_wf2(rs, e):
            continue
        rep.add(f"alcove-{i:04d}", True, {
            "n_vec": e.n_vec, "length": e.length, "weight": e.lam,
            "casimir": e.cas, "dim": weyl_dimension(rs, e.lam),
            "sign": (-1) ** e.length, "wf2": in_wf2(rs, e)})
    return rep


def suite_bott(rep: Report, rs: RootSystem, max_length: int = 12) -> Report:
    from ..alcove import counts_by_length
    from ..series import bott_series

    counts = counts_by_length(rs, max_length)
    series = bott_series(rs, max_length)
    for n in range(max_length + 1):
        rep.add(f"alcove-count-length-{n}", counts[n] == series[n],
                {"enumerated": counts[n], "series": series[n]})
    return rep


def suite_ideal_chains(rep: Report, rs: RootSystem, max_length: int = 6) -> Report:
    """Wall-count level sets of each alcove form a chain of ideals whose
    sums reconstruct the alcove weight, topped by an abelian ideal."""
    from ..alcove import enumerate_dominant, ideal_chain
    from ..ideals import _root_sum_weight, is_abelian, is_ideal

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


def suite_parity(rep: Report, rs: RootSystem, max_length: int = 8) -> Report:
    from ..alcove import (enumerate_dominant, finite_part_length,
                         two_rho_pairing_killing)

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


def suite_gap(rep: Report, rs: RootSystem,
              max_length: int = lambda rs: rs.h_dual + 3) -> Report:
    """Alcoves outside twice the fundamental alcove are at least h_dual
    long; Casimir at most h_dual forces membership.  The default length
    is worked out from the type by the binder, which checks it too."""
    from ..alcove import enumerate_dominant, in_wf2

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


def suite_sign(rep: Report, rs: RootSystem, max_length: int = 8,
               cas_ceiling: int | None = None) -> Report:
    """Character values at an element of type rho: length parity on alcove
    weights, zero on every other dominant weight below the ceiling."""
    from ..alcove import (chi_at_type_rho, enumerate_casimir_bounded,
                          enumerate_dominant)
    from ..rootsystem import _dominant_weights_with_cas_bound

    elements = enumerate_dominant(rs, max_length)
    bad = [e.n_vec for e in elements
           if chi_at_type_rho(rs, e.lam) != (-1) ** e.length]
    rep.add("sign-is-length-parity", not bad,
            {"alcoves": len(elements), "failures": len(bad)})
    if cas_ceiling is not None:
        alcove_weights = {e.lam for e in
                          enumerate_casimir_bounded(rs, cas_ceiling)}
        others = [w for w in _dominant_weights_with_cas_bound(rs, cas_ceiling)
                  if w not in alcove_weights]
        nonzero = [w for w in others if chi_at_type_rho(rs, w) != 0]
        rep.add("other-weights-have-zero-character", not nonzero,
                {"weights_checked": len(others), "failures": len(nonzero)})
    return rep
