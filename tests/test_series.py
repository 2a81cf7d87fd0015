"""Series engine: Euler powers, coefficient polynomials, bigraded tables.

Expected values for the single and cubed Euler product come from the
classical sparse expansions, generated here independently: exponents
n(3n - 1)/2 with sign (-1)^n, and (-1)^n (2n + 1) at n(n + 1)/2.  Three
reference routes live here as oracles for the integer engine: the dense
product of binomially expanded factors (1 - x^n)^e, the rational
logarithmic-derivative recurrence for f_k, and the walk over the ordered
compositions of k for f_k.
"""

from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcoves.rootsystem import parse_type
from alcoves.series import (RatPoly, _scaled_fk_rows,
                            alcove_coefficient_series, bigraded_dims,
                            bott_series, euler_power, f_poly, f_poly_direct,
                            lehmer_probe)


def dense_mul(a, b, order):
    """Schoolbook product of coefficient lists, truncated after x^order."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def dense_euler_power(e, order):
    """(prod (1 - x^n))^e by multiplying in each (1 - x^n)^e, expanded
    binomially, for n <= order."""
    acc = [1] + [0] * order
    for n in range(1, order + 1):
        factor = [0] * (order + 1)
        for j in range(min(e, order // n) + 1):
            factor[n * j] = (-1) ** j * comb(e, j)
        acc = dense_mul(factor, acc, order)
    return acc


def mu(m):
    """Sum of reciprocals of the divisors of m."""
    return sum((Fraction(1, d) for d in range(1, m + 1) if m % d == 0),
               Fraction(0))


def fraction_f_polys(kmax):
    """f_0..f_kmax as rational coefficient lists in s, by the recurrence
    k f_k = -s sum_m m mu(m) f_{k-m}."""
    polys = [[Fraction(1)]]
    for n in range(1, kmax + 1):
        acc = [Fraction(0)] * n
        for m in range(1, n + 1):
            c = m * mu(m)
            for i, v in enumerate(polys[n - m]):
                acc[i] += c * v
        polys.append([Fraction(0)] + [-v / n for v in acc])
    return polys


def composition_f_poly(k):
    """f_k(s) = sum_n (-s)^n / n! sum over the ordered compositions
    (m_1, ..., m_n) of k of prod mu(m_i), by a depth-first walk over all
    2^(k-1) compositions.  With L = lcm(1..k) each L mu(m) is an integer,
    so the sum over n-part compositions is L^n times an integer sum."""
    if k == 0:
        return RatPoly([1])
    big = lcm(*range(1, k + 1))
    scaled_mu = [0] + [sum(big // d for d in range(1, m + 1) if m % d == 0)
                       for m in range(1, k + 1)]
    sums = [0] * (k + 1)  # sums[n]: L^n times the sum over n-part compositions

    def walk(left, parts, product):
        if not left:
            sums[parts] += product
            return
        for m in range(1, left + 1):
            walk(left - m, parts + 1, product * scaled_mu[m])

    walk(k, 0, 1)
    return RatPoly([0] + [Fraction((-1) ** n * sums[n], factorial(n) * big ** n)
                          for n in range(1, k + 1)])


def pentagonal_series(order):
    out = [0] * (order + 1)
    n = 0
    while True:
        hit = False
        for m in (n, -n):
            e = m * (3 * m - 1) // 2
            if 0 <= e <= order:
                out[e] += (-1) ** m if e or m == 0 else 0
                hit = True
            if m == 0:
                break
        if not hit:
            break
        n += 1
    out[0] = 1
    return out


def triangular_series(order):
    out = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        out[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    return out


def test_euler_power_one_is_pentagonal():
    assert euler_power(1, 30) == pentagonal_series(30)
    series = euler_power(1, 7)
    assert [series[k] for k in (0, 1, 2, 5, 7)] == [1, -1, -1, 1, 1]
    assert [series[k] for k in (3, 4, 6)] == [0, 0, 0]


def test_euler_power_three_is_triangular():
    assert euler_power(3, 30) == triangular_series(30)
    series = euler_power(3, 6)
    assert [series[k] for k in (1, 3, 6)] == [-3, 5, -7]
    assert [series[k] for k in (2, 4, 5)] == [0, 0, 0]


def test_euler_power_24_gives_tau():
    series = euler_power(24, 6)
    assert series[1] == -24
    assert series[:6] == [1, -24, 252, -1472, 4830, -6048]


def test_series_arithmetic_is_truncated_exactly():
    assert dense_mul([1, 2, 3], [1, -1], 4) == [1, 1, 1, -3, 0]
    assert dense_mul([1, 2, 3], [1, -1], 2) == [1, 1, 1]


@pytest.mark.parametrize("series,first", [
    (euler_power, 1), (alcove_coefficient_series, parse_type("A2")),
    (bott_series, parse_type("A2"))],
    ids=["euler_power", "alcove_coefficient_series", "bott_series"])
def test_negative_order_is_refused(series, first):
    with pytest.raises(ValueError, match="truncation order"):
        series(first, -1)


@given(e=st.integers(1, 300), order=st.integers(0, 120))
def test_euler_power_matches_dense_products(e, order):
    assert euler_power(e, order) == dense_euler_power(e, order)


@given(e=st.integers(1, 300), k=st.integers(0, 60), extra=st.integers(0, 60))
def test_f_poly_evaluates_to_euler_power(e, k, extra):
    assert f_poly(k)(e) == euler_power(e, k + extra)[k]


def test_integer_fk_table_matches_fraction_recurrence():
    reference = fraction_f_polys(40)
    rows = _scaled_fk_rows(40)
    assert _scaled_fk_rows(40, _scaled_fk_rows(17)) == rows
    for k in range(41):
        assert all(isinstance(c, int) for c in rows[k])
        assert [Fraction(c, factorial(k)) for c in rows[k]] == reference[k]
        assert f_poly(k) == RatPoly(reference[k])


@pytest.mark.parametrize("label,order", [
    ("A1", 30), ("A2", 30), ("A3", 20), ("B2", 25), ("C2", 25),
    ("G2", 20), ("B3", 14), ("C3", 14), ("D4", 12), ("A4", 15),
    ("F4", 12), ("A5", 12), ("D5", 10), ("E6", 10),
])
def test_alcove_route_matches_series(label, order):
    rs = parse_type(label)
    assert alcove_coefficient_series(rs, order) == euler_power(rs.dim_g, order)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_alcove_route_matches_series_big(label):
    rs = parse_type(label)
    assert alcove_coefficient_series(rs, 15) == euler_power(rs.dim_g, 15)


def test_alcove_coefficients_a2_by_hand():
    rs = parse_type("A2")
    series = alcove_coefficient_series(rs, 2)
    assert series[0] == 1
    assert series[1] == -8
    assert series[2] == 20


def test_mu_values():
    assert mu(1) == 1
    assert mu(2) == Fraction(3, 2)
    assert mu(4) == Fraction(7, 4)
    assert mu(6) == 2


def test_f_poly_small_closed_forms():
    assert f_poly(0) == RatPoly([1])
    assert f_poly(1) == RatPoly([0, -1])
    assert f_poly(2) == RatPoly([0, Fraction(-3, 2), Fraction(1, 2)])
    assert f_poly(3) == RatPoly([0, Fraction(-4, 3), Fraction(3, 2),
                                 Fraction(-1, 6)])
    assert f_poly(4) == RatPoly([0, Fraction(-7, 4), Fraction(59, 24),
                                 Fraction(-3, 4), Fraction(1, 24)])


def test_f_poly_roots():
    assert f_poly(2)(3) == 0
    assert f_poly(3)(1) == 0 and f_poly(3)(8) == 0
    assert f_poly(4)(1) == 0 and f_poly(4)(3) == 0 and f_poly(4)(14) == 0
    for k in range(1, 8):
        assert f_poly(k)(0) == 0
        assert f_poly(k).degree == k


@pytest.mark.parametrize("k", range(65))
def test_f_poly_routes_agree(k):
    """Interpolation against the recurrence to k = 64, and against the
    exponential composition walk to k = 20."""
    poly = f_poly_direct(k)
    assert poly == f_poly(k)
    if k <= 20:
        assert poly == composition_f_poly(k)


def test_composition_route_sums_integers(count_fractions):
    """The interpolation route takes integer values and integer forward
    differences: O(k) Fractions, one per coefficient and its RatPoly copy."""
    k = 12
    with count_fractions() as created:
        poly = f_poly_direct(k)
    assert poly == f_poly(k)
    assert len(created) <= 2 * (k + 1), len(created)


def test_roots_f234_expands_each_power_once(monkeypatch):
    """The suite reads every f_k, k <= kmax, off one table of kmax
    expansions, and gives the routes' verdict from it."""
    import alcoves.series
    from alcoves.limits import Limits
    from alcoves.suites import run_suite

    calls = []

    def counted(e, order):
        calls.append((e, order))
        return euler_power(e, order)

    monkeypatch.setattr(alcoves.series, "euler_power", counted)
    report = run_suite("roots-f234", None, Limits(), kmax=40)
    assert sorted(calls) == [(s, 40) for s in range(1, 41)]
    checks = {c.claim: c.status for c in report.checks}
    assert checks["recurrence-matches-composition-route"] == "pass"


def test_f_poly_direct_refuses_negative_k():
    with pytest.raises(ValueError):
        f_poly_direct(-1)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A4", "C3"])
def test_f_poly_evaluates_to_coefficients(label):
    rs = parse_type(label)
    k_max = 14
    series = euler_power(rs.dim_g, k_max)
    for k in range(k_max + 1):
        assert f_poly(k)(rs.dim_g) == series[k]


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "D4"])
def test_bott_series_matches_partition_oracle(label):
    """Independent oracle: count tuples over the exponent multiset."""
    rs = parse_type(label)
    order = 12
    series = bott_series(rs, order)
    for n in range(order + 1):
        count = 0

        def rec(i, remaining):
            nonlocal count
            if i == len(rs.exponents):
                count += remaining == 0
                return
            step = rs.exponents[i]
            for used in range(0, remaining + 1, step):
                rec(i + 1, remaining - used)

        rec(0, n)
        assert series[n] == count


def test_bigraded_corner_cases():
    rows = bigraded_dims(8, 6, 6)
    assert rows[0][0] == 1
    for n in range(1, 7):
        for k in range(n):
            assert rows[n][k] == 0
    for k in range(1, 7):
        assert rows[1][k] == 8


@pytest.mark.parametrize("dim", [3, 8, 14, 24])
def test_bigraded_euler_characteristic(dim):
    order = 10
    rows = bigraded_dims(dim, order, order)
    series = euler_power(dim, order)
    for k in range(order + 1):
        assert sum((-1) ** n * row[k] for n, row in enumerate(rows)) == series[k]


def test_bigraded_a1_entry_sum():
    # Alternating sum at loop degree 3 for the 3-dimensional algebra.
    rows = bigraded_dims(3, 3, 3)
    assert sum((-1) ** n * row[3] for n, row in enumerate(rows)) == 5


def test_lehmer_probe():
    probe = lehmer_probe(6)
    assert probe["zeros"] == []
    assert [probe["values"][k] for k in range(1, 6)] == \
        [-24, 252, -1472, 4830, -6048]
    with pytest.raises(ValueError):
        lehmer_probe(0)
