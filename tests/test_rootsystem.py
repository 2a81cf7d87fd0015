"""Root-system construction and the integer inner product."""

import pickle
import random
from fractions import Fraction
from itertools import islice, product
from math import gcd
from operator import add, mul

import pytest

from alcoves.alcove import chi_at_type_rho
from alcoves.rootsystem import (_build_root_system, _coroot_coords,
                                _root_poset, _root_sums,
                                _dominant_weights_with_cas_bound, _valid_type,
                                build_root_system, casimir_eigenvalue,
                                heisenberg_count, parse_type, weyl_dimension)
from alcoves.wedge import build_chevalley

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "C2", "B3", "C3",
             "D4", "D5", "G2", "F4", "E6"]

RANK8_TYPES = ALL_TYPES + ["A7", "A8", "B8", "C8", "D8", "E7", "E8"]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_basic_counts(label):
    rs = parse_type(label)
    assert rs.num_positive == (rs.dim_g - rs.rank) // 2
    assert sum(rs.exponents) == rs.num_positive
    assert len(rs.exponents) == rs.rank
    # Degree of prod (1 + t^(2m_i + 1)) is the dimension.
    assert sum(2 * m + 1 for m in rs.exponents) == rs.dim_g


@pytest.mark.parametrize("label", ALL_TYPES)
def test_highest_root_is_maximal(label):
    rs = parse_type(label)
    psi = rs.positive_roots[rs.highest_root]
    for phi in rs.positive_roots:
        assert all(p - q >= 0 for p, q in zip(psi, phi))
    assert Fraction(rs.pair(psi, psi), 2 * rs.scale) == Fraction(1, rs.h_dual)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_symmetrizers_are_smallest(label):
    rs = parse_type(label)
    a = rs.cartan
    assert all(s > 0 for s in rs.sym) and gcd(*rs.sym) == 1
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert rs.sym[i] * a[i][j] == rs.sym[j] * a[j][i]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_killing_normalization(label):
    rs = parse_type(label)
    psi = rs.positive_roots[rs.highest_root]
    for phi in rs.positive_roots:
        norm = rs.pair(phi, phi)
        killing_norm = Fraction(norm, 2 * rs.scale)
        # Long roots have Killing norm 1/h_dual; all reciprocals integral.
        if norm == rs.pair(psi, psi):
            assert killing_norm == Fraction(1, rs.h_dual)
        recip = 1 / killing_norm
        assert recip.denominator == 1


@pytest.mark.parametrize("label", ALL_TYPES)
def test_rho_pairings(label):
    """(2 rho, alpha_i) = (alpha_i, alpha_i) and (2 rho, psi) = 1 - (psi, psi)
    in the Killing normalization."""
    rs = parse_type(label)
    unit = 2 * rs.scale
    for i in range(rs.rank):
        alpha = tuple(int(j == i) for j in range(rs.rank))
        lhs = Fraction(rs.pair(rs.two_rho, alpha), unit)
        rhs = Fraction(rs.pair(alpha, alpha), unit)
        assert lhs == rhs
    psi = rs.positive_roots[rs.highest_root]
    lhs = Fraction(rs.pair(rs.two_rho, psi), unit)
    assert lhs == 1 - Fraction(rs.pair(psi, psi), unit)


@pytest.mark.parametrize("label", RANK8_TYPES)
def test_casimir_of_highest_root_is_one(label):
    rs = parse_type(label)
    psi_weight = rs.root_coords_to_weight(rs.positive_roots[rs.highest_root])
    assert casimir_eigenvalue(rs, psi_weight) == 1


def test_paper_scale_examples():
    a1 = build_root_system("A", 1)
    assert (a1.num_positive, a1.h_dual, a1.dim_g) == (1, 2, 3)
    g2 = build_root_system("G", 2)
    assert (g2.num_positive, g2.h_dual, g2.dim_g) == (6, 4, 14)
    a4 = build_root_system("A", 4)
    assert (a4.dim_g, a4.h_dual) == (24, 5)


def test_invalid_types_rejected():
    for family, rank in [("D", 2), ("F", 5), ("B", 1), ("G", 3), ("E", 5), ("E", 9)]:
        with pytest.raises(ValueError):
            build_root_system(family, rank)
    with pytest.raises(ValueError):
        parse_type("X3")


def test_casimir_values():
    a1 = build_root_system("A", 1)
    assert casimir_eigenvalue(a1, (0,)) == 0
    # 2 alpha has fundamental coordinate 4.
    assert casimir_eigenvalue(a1, (4,)) == 3
    assert type(casimir_eigenvalue(a1, (4,))) is Fraction
    with pytest.raises(ValueError):
        casimir_eigenvalue(a1, (-1,))


def test_casimir_positive_definite_off_zero():
    a2 = build_root_system("A", 2)
    for a in range(4):
        for b in range(4):
            cas = casimir_eigenvalue(a2, (a, b))
            assert (cas == 0) == (a == b == 0)
            assert cas >= 0


def test_weyl_dimension_values():
    a2 = build_root_system("A", 2)
    assert weyl_dimension(a2, (0, 0)) == 1
    assert weyl_dimension(a2, (1, 1)) == a2.dim_g
    # Hand evaluation over the three positive roots: (4*1*5)/(1*1*2).
    assert weyl_dimension(a2, (3, 0)) == 10
    assert type(weyl_dimension(a2, (3, 0))) is int
    with pytest.raises(ValueError):
        weyl_dimension(a2, (1, Fraction(1, 2)))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_weyl_dimension_of_adjoint(label):
    rs = parse_type(label)
    psi_weight = rs.root_coords_to_weight(rs.positive_roots[rs.highest_root])
    assert weyl_dimension(rs, psi_weight) == rs.dim_g


def test_heisenberg_counts():
    assert heisenberg_count(build_root_system("A", 1)) == 0
    assert heisenberg_count(build_root_system("A", 2)) == 1
    assert heisenberg_count(build_root_system("G", 2)) == 2


@pytest.mark.parametrize("label", ALL_TYPES)
def test_heisenberg_matches_dual_coxeter(label):
    rs = parse_type(label)
    assert heisenberg_count(rs) == rs.h_dual - 2


def test_one_record_per_type():
    # Records compare by identity, so each type must be built only once.
    assert build_root_system("a", 2) is build_root_system("A", 2) \
        is parse_type("a2")
    assert build_root_system("A", 2) != build_root_system("A", 3)
    rs = parse_type("G2")
    table = build_chevalley(rs)
    assert pickle.loads(pickle.dumps(rs)) is rs
    assert pickle.loads(pickle.dumps(table)) is table


@pytest.mark.parametrize("label", ALL_TYPES)
def test_coordinate_round_trip(label):
    rs = parse_type(label)
    for phi in rs.positive_roots:
        w = rs.root_coords_to_weight(phi)
        back = rs.weight_to_root_coords(w)
        assert tuple(back) == tuple(phi)
        assert all(c.denominator == 1 for c in back)


@pytest.mark.parametrize("label,ceiling", [("A2", 12), ("B2", 10), ("G2", 8),
                                           ("B3", 5), ("C3", 5)])
def test_cas_bounded_dominant_weights_match_a_box_scan(label, ceiling):
    rs = parse_type(label)
    got = list(_dominant_weights_with_cas_bound(rs, ceiling))
    assert len(set(got)) == len(got)
    # The Casimir grows in every coordinate, so the box holds every
    # weight under the ceiling once its far corners are over it.
    edge = 2 * ceiling
    for i in range(rs.rank):
        corner = tuple(edge * (i == j) for j in range(rs.rank))
        assert casimir_eigenvalue(rs, corner) > ceiling
    assert set(got) == {w for w in product(range(edge), repeat=rs.rank)
                        if casimir_eigenvalue(rs, w) <= ceiling}


@pytest.mark.parametrize("label,ceiling", [("F4", 9), ("E6", 6), ("E7", 5)])
def test_cas_bounded_dominant_weights_are_closed_under_raising(label, ceiling):
    """Every weight under the ceiling is reached from 0 by unit steps that
    stay under it, since the Casimir grows in every coordinate; so the
    list is complete when each of its weights is under the ceiling and
    each unit step up from one is either listed or over the ceiling."""
    rs = parse_type(label)
    got = list(_dominant_weights_with_cas_bound(rs, ceiling))
    listed = set(got)
    assert (0,) * rs.rank in listed
    for w in got:
        assert casimir_eigenvalue(rs, w) <= ceiling
        for i in range(rs.rank):
            up = w[:i] + (w[i] + 1,) + w[i + 1:]
            assert up in listed or casimir_eigenvalue(rs, up) > ceiling


def test_cas_bounded_dominant_weights_probe_in_integers(count_fractions):
    """E8 up to its dual Coxeter number: the 16843 weights take tens of
    thousands of probes, and none makes a Fraction; `cartan_inv` is
    cleared from its numerators and denominators."""
    rs = parse_type("E8")
    with count_fractions() as created:
        got = list(_dominant_weights_with_cas_bound(rs, rs.h_dual))
    assert len(got) == len(set(got)) == 16843
    assert not created, created[:3]


def test_cas_bounded_dominant_weights_are_yielded_lazily():
    """The scan keeps no list.  A8 has about 20M weights of Casimir <= 64,
    far past `max_candidates`, yet its first thousand come at once;
    and the ceiling raises only when the weight past it is asked for (A2
    has 28 weights of Casimir <= 6)."""
    scan = _dominant_weights_with_cas_bound(parse_type("A8"), 64)
    assert next(scan) == (0,) * 8
    assert len(set(islice(scan, 999))) == 999
    scan = _dominant_weights_with_cas_bound(parse_type("A2"), 6, 27)
    assert len(list(islice(scan, 27))) == 27
    with pytest.raises(ValueError, match="max_candidates ceiling 27"):
        next(scan)


RANK6_TYPES = ([f"A{n}" for n in range(1, 7)] +
               [f"{f}{n}" for f in "BC" for n in range(2, 7)] +
               [f"D{n}" for n in range(3, 7)] + ["E6", "F4", "G2"])


@pytest.mark.parametrize("label", RANK6_TYPES + ["E7", "E8"])
def test_coroot_pairs_to_two_with_its_root(label):
    """<beta, beta^vee> = sum_i c_i <beta, alpha_i^vee> = 2 for the
    simple-coroot coordinates c of every positive root beta."""
    rs = parse_type(label)
    for beta in rs.positive_roots:
        coroot = _coroot_coords(rs, beta)
        assert all(type(c) is int and c >= 0 for c in coroot)
        assert sum(map(mul, coroot, rs.root_coords_to_weight(beta))) == 2


# Every simple type of rank at most 8 that `_valid_type` accepts.
EVERY_TYPE_TO_RANK8 = [f"{family}{rank}" for family in "ABCDEFG"
                       for rank in range(1, 9) if _valid_type(family, rank)]


@pytest.mark.parametrize("label", EVERY_TYPE_TO_RANK8)
def test_cleared_inverse_matches_the_rational_inverse(label):
    """The fraction-free (adj, den) is den times the inverse of the Cartan
    matrix, with den the least common denominator; the Fraction
    `cartan_inv` derived from it is that inverse."""
    rs = parse_type(label)
    adj, den = rs.inverse
    n = rs.rank
    assert all(type(a) is int for row in adj for a in row)
    assert [[sum(rs.cartan[i][k] * adj[k][j] for k in range(n))
             for j in range(n)] for i in range(n)] == \
        [[den * (i == j) for j in range(n)] for i in range(n)]
    assert gcd(den, *(a for row in adj for a in row)) == 1
    assert rs.cartan_inv == \
        tuple(tuple(Fraction(a, den) for a in row) for row in adj)


def test_building_a_root_system_creates_no_fraction(count_fractions):
    assert len(EVERY_TYPE_TO_RANK8) == 33
    with count_fractions() as created:
        built = [_build_root_system.__wrapped__(label[0], int(label[1:]))
                 for label in EVERY_TYPE_TO_RANK8]
    assert not created, created[:3]
    for rs in built:  # the same data as the cached records
        cached = parse_type(rs.label)
        assert (rs.sym, rs.inverse, rs.scale, rs.h_dual) == \
            (cached.sym, cached.inverse, cached.scale, cached.h_dual)


@pytest.mark.parametrize("label", EVERY_TYPE_TO_RANK8)
def test_rho_is_the_only_lattice_point_inside_the_alcove(label):
    """For the coefficients c of psi, sym_i c_i >= max(sym), and psi(sym)
    = scale - max(sym).  So a point sym_i m_i with every m_i >= 1 and
    some m_i >= 2 has psi >= scale: the base point sym (rho) is the only
    one inside the open fundamental alcove, which `chi_at_type_rho`
    rests on."""
    rs = parse_type(label)
    psi = rs.positive_roots[rs.highest_root]
    top = max(rs.sym)
    assert all(s * c >= top for s, c in zip(rs.sym, psi))
    assert sum(map(mul, psi, rs.sym)) == rs.scale - top


def direct_weyl_dimension(rs, weight):
    """prod (lambda + rho, alpha) / prod (rho, alpha), every pairing
    summed from the root's coordinates."""
    num = den = 1
    for c in rs.positive_roots:
        num *= sum(s * (w + 1) * ci for s, w, ci in zip(rs.sym, weight, c))
        den *= sum(s * ci for s, ci in zip(rs.sym, c))
    assert num % den == 0
    return num // den


@pytest.mark.parametrize("label", EVERY_TYPE_TO_RANK8)
def test_weyl_dimension_matches_the_direct_product(label):
    rs = parse_type(label)
    simple, steps, _ = _root_poset(rs)
    assert len(simple) + len(steps) == rs.num_positive
    rng = random.Random(label)
    for _ in range(40):
        weight = tuple(rng.randint(0, 9) for _ in range(rs.rank))
        assert weyl_dimension(rs, weight) == direct_weyl_dimension(rs, weight)


@pytest.mark.parametrize("label", EVERY_TYPE_TO_RANK8)
def test_root_sums_hold_every_sum_of_two_positive_roots(label):
    """sums[a][b] is the index of the coordinate sum of roots a and b, or
    None where that sum is no root; the first `rank` roots are simple, so
    those columns of a row are the root's covers."""
    rs = parse_type(label)
    roots = rs.positive_roots
    assert _root_sums(rs) == tuple(
        tuple(rs._index.get(tuple(map(add, x, y))) for y in roots)
        for x in roots)
    assert all(sum(c) == 1 for c in roots[:rs.rank])


def test_weight_queries_do_not_build_the_root_sums():
    """A root system and its weight queries never pay for the sum table,
    which only the ideal layer reads."""
    before = _root_sums.cache_info().currsize
    rs = _build_root_system.__wrapped__("E", 8)
    weight = (1, 0, 0, 0, 0, 0, 0, 2)
    weyl_dimension(rs, weight)
    chi_at_type_rho(rs, weight)
    casimir_eigenvalue(rs, weight)
    assert _root_sums.cache_info().currsize == before
