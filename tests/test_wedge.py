"""Structure-constant tables and the exact wedge-power computations."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcoves.ideals import dim_Ck, enumerate_abelian_ideals, max_abelian_dimension
from alcoves.linalg import exact_rank, invert_rational, nullity
from alcoves.rootsystem import parse_type
from alcoves.series import euler_power
from alcoves.wedge import (_coboundary_images, build_chevalley,
                           casimir_eigenspace_dim, dg_ideal_dim,
                           max_casimir_eigenvalue, verify_ideal_top_vectors)

TABLE_TYPES = ["A1", "A2", "B2", "C2", "G2"]


def test_exact_rank_and_nullity():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == 2
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert nullity([[1, 1, 0], [0, 1, 1]], 3) == 1
    inv = invert_rational([[2, 1], [1, 1]])
    assert inv == ((1, -1), (-1, 2))
    with pytest.raises(ValueError):
        invert_rational([[1, 1], [1, 1]])


def rational_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / mat[rank][col]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=9)))
def test_exact_rank_matches_rational_elimination(rows):
    assert exact_rank(rows) == rational_rank(rows)
    scaled = [[Fraction(x, 6) for x in row] for row in rows]
    assert exact_rank(scaled) == rational_rank(rows)


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_build_verifies_itself(label):
    # Build runs the full Jacobi sweep, the Killing nondegeneracy check,
    # and the Casimir identity; reaching here means they all passed.
    table = build_chevalley(parse_type(label))
    assert table.dim == table.rs.dim_g


def test_antisymmetry_of_brackets():
    table = build_chevalley(parse_type("B2"))
    for a in range(table.dim):
        for b in range(table.dim):
            forward = dict(table.bracket(a, b))
            backward = dict(table.bracket(b, a))
            assert forward == {i: -c for i, c in backward.items()}


def test_a1_table_by_hand():
    table = build_chevalley(parse_type("A1"))
    e, f, h = 0, 1, 2
    assert dict(table.bracket(e, f)) == {h: 1}
    assert dict(table.bracket(h, e)) == {e: 2}
    assert dict(table.bracket(h, f)) == {f: -2}


def test_killing_rank_b2():
    table = build_chevalley(parse_type("B2"))
    assert exact_rank(table.killing) == 10


def test_dim_ceiling_guard():
    with pytest.raises(ValueError):
        build_chevalley(parse_type("A3"))
    table = build_chevalley(parse_type("A3"), dim_ceiling=15)
    assert table.dim == 15


def test_eigenspace_dims_small():
    t1 = build_chevalley(parse_type("A1"))
    assert casimir_eigenspace_dim(t1, 0) == 1
    assert casimir_eigenspace_dim(t1, 1) == 3
    assert casimir_eigenspace_dim(t1, 2) == 0
    t2 = build_chevalley(parse_type("A2"))
    assert casimir_eigenspace_dim(t2, 2) == 20


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_eigenspace_matches_ideal_sum(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    for k in range(rs.h_dual + 1):
        assert casimir_eigenspace_dim(table, k) == dim_Ck(rs, k)


def rational_coboundary(table, u):
    """d(u) = 1/2 sum_j x_j wedge [y_j, u] over the rationals, with the
    dual basis y_j = sum_k killing_inv[j][k] x_k."""
    acc = {}
    for j in range(table.dim):
        for k in range(table.dim):
            for i, c in table.bracket(k, u):
                if i != j:
                    key, sign = ((j, i), 1) if j < i else ((i, j), -1)
                    acc[key] = acc.get(key, 0) + \
                        sign * c * table.killing_inv[j][k] / 2
    return {key: v for key, v in acc.items() if v}


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_coboundary_images_are_scaled_by_twice_the_denominator(label):
    table = build_chevalley(parse_type(label))
    scale = 2 * table.killing_den
    for u, image in enumerate(_coboundary_images(table)):
        assert all(type(v) is int for _, v in image)
        expected = {key: v * scale for key, v in rational_coboundary(table, u).items()}
        assert dict(image) == expected


def test_coboundary_ideal_dims():
    t1 = build_chevalley(parse_type("A1"))
    assert dg_ideal_dim(t1, 0) == 0
    assert dg_ideal_dim(t1, 1) == 0
    assert dg_ideal_dim(t1, 2) == 3
    t2 = build_chevalley(parse_type("A2"))
    assert dg_ideal_dim(t2, 2) == comb(8, 2) - 20


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_direct_sum_decomposition(label):
    """Eigenspace and coboundary ideal fill each wedge degree exactly."""
    rs = parse_type(label)
    table = build_chevalley(rs)
    for k in range(rs.h_dual + 1):
        assert casimir_eigenspace_dim(table, k) + dg_ideal_dim(table, k) == \
            comb(rs.dim_g, k)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_max_eigenvalue_full_sweep(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    top = max_abelian_dimension(rs)
    for k in range(rs.dim_g + 1):
        m = max_casimir_eigenvalue(table, k)
        assert m <= k
        assert (m == k) == (k <= top)


def test_max_eigenvalue_g2_boundary():
    table = build_chevalley(parse_type("G2"))
    assert max_casimir_eigenvalue(table, 3) == 3
    assert max_casimir_eigenvalue(table, 4) < 4


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_ideal_wedges_are_top_eigenvectors(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    res = verify_ideal_top_vectors(table, enumerate_abelian_ideals(rs))
    assert res["ok"]


def test_matrix_ceiling_guard():
    table = build_chevalley(parse_type("G2"))
    with pytest.raises(ValueError):
        casimir_eigenspace_dim(table, 7, matrix_ceiling=100)


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_signed_series_equals_eigenspace(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    series = euler_power(rs.dim_g, rs.h_dual)
    for k in range(rs.h_dual + 1):
        assert (-1) ** k * series[k] == casimir_eigenspace_dim(table, k)
