"""Exact power series and polynomial engine.

Integer power series are dense coefficient lists with a hard truncation
order.  Rational polynomials in one variable back the coefficient
polynomials f_k(s) of the s-th power of the Euler product, computed two
independent ways (a logarithmic derivative recurrence on k! f_k(s) and
direct composition enumeration).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt, lcm

# Largest k the exponential composition route of f_k is allowed to reach.
DIRECT_MAX_K = 20


class IntSeries:
    """Dense integer power series truncated at order K (inclusive)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        self.coeffs = c
        self.order = order

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"IntSeries({self.coeffs!r})"


def euler_power(e: int, order: int) -> IntSeries:
    """Coefficients of (prod_{n>=1} (1 - x^n))^e modulo x^(order+1).

    The product has the nonzero terms (-1)^j x^(j(3j -+ 1)/2) only (Euler's
    pentagonal theorem).  Miller's recurrence for its e-th power,
    n q_n = sum_{k=1}^{n} ((e + 1) k - n) p_k q_{n-k}, runs over those
    O(sqrt(order)) k, independently of the alcove route and of f_poly.
    """
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    # (k, p_k) for the nonzero p_k, k >= 1, in increasing k, past `order`.
    terms = [(j * (3 * j + t) // 2, (-1) ** j)
             for j in range(1, isqrt(order) + 2) for t in (-1, 1)]
    q = [1] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        for k, p in terms:
            if k > n:
                break
            acc += p * ((e + 1) * k - n) * q[n - k]
        q[n], rem = divmod(acc, n)
        if rem:
            raise AssertionError(f"Miller recurrence leaves remainder {rem} at n = {n}")
    return IntSeries(q, order)


def alcove_coefficient_series(rs, order: int) -> IntSeries:
    """The same coefficients, as a signed sum of Weyl dimensions over
    dominant alcoves with Casimir eigenvalue at most `order`.

    Enumerating lengths up to `order` suffices because the Casimir
    eigenvalue of an alcove weight never drops below the alcove length.
    """
    from .alcove import enumerate_dominant
    from .rootsystem import weyl_dimension

    out = [0] * (order + 1)
    for e in enumerate_dominant(rs, order):
        if e.cas <= order:
            out[e.cas] += (-1) ** e.length * weyl_dimension(rs, e.lam)
    return IntSeries(out, order)


def bott_series(rs, order: int) -> IntSeries:
    """prod_i 1/(1 - t^{m_i}) over the exponents, modulo t^(order+1)."""
    coeffs = [1] + [0] * order
    for m in rs.exponents:
        for j in range(m, order + 1):
            coeffs[j] += coeffs[j - m]
    return IntSeries(coeffs, order)


class RatPoly:
    """Polynomial with exact rational coefficients in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def __call__(self, s):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc


def mu(m: int) -> Fraction:
    """Sum of reciprocals of the divisors of m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sum((Fraction(1, d) for d in range(1, m + 1) if m % d == 0),
               Fraction(0))


def _scaled_fk_rows(k: int, rows=((1,),)):
    """Integer coefficients in s of g_n = n! f_n(s), n <= k, extending the
    given g_0, g_1, ...  The logarithmic derivative of the product gives
    n f_n = -s sum_m sigma(m) f_{n-m}, so that
    g_n = -s sum_{m<=n} sigma(m) (n-1)!/(n-m)! g_{n-m}."""
    sigma = [0] * (k + 1)
    for d in range(1, k + 1):
        for m in range(d, k + 1, d):
            sigma[m] += d
    rows = list(rows)
    for n in range(len(rows), k + 1):
        acc = [0] * n
        fall = 1  # (n-1)!/(n-m)!
        for m in range(1, n + 1):
            c = sigma[m] * fall
            acc[:n - m + 1] = [a - c * v for a, v in zip(acc, rows[n - m])]
            fall *= n - m
        rows.append((0, *acc))
    return tuple(rows)


# g_0..g_n built so far; grown, never rebuilt, to the largest k asked for.
_fk_rows = _scaled_fk_rows(0)


def f_poly(k: int) -> RatPoly:
    """Degree-k coefficient polynomial of the s-th Euler-product power,
    read from the shared table of k! f_k(s)."""
    global _fk_rows
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = _fk_rows
    if k >= len(rows):
        rows = _fk_rows = _scaled_fk_rows(k, rows)
    fact = factorial(k)
    return RatPoly([Fraction(c, fact) for c in rows[k]])


def f_poly_direct(k: int) -> RatPoly:
    """f_k(s) assembled term by term from ordered compositions of k.

    f_k(s) = sum_n (-s)^n / n! sum over compositions (m_1, ..., m_n) of k
    of prod mu(m_i).  With L = lcm(1..k), each L mu(m) = sum_{d | m} L/d is
    an integer, so the sums over compositions are integer sums scaled by
    L^n, and each coefficient is one Fraction at the end.  A depth-first
    walk by first part reaches every composition as one leaf, carrying the
    product of its prefix.  Independent of the recurrence route;
    exponential in k, so guarded.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > DIRECT_MAX_K:
        raise ValueError(
            f"composition enumeration capped at k = {DIRECT_MAX_K}")
    if k == 0:
        return RatPoly([1])
    big = lcm(*range(1, k + 1))
    scaled_mu = [0] + [sum(big // d for d in range(1, m + 1) if m % d == 0)
                       for m in range(1, k + 1)]
    sums = [0] * (k + 1)  # sums[n]: L^n times the sum over n-part compositions

    def walk(left: int, parts: int, product: int) -> None:
        if not left:
            sums[parts] += product
            return
        for m in range(1, left + 1):
            walk(left - m, parts + 1, product * scaled_mu[m])

    walk(k, 0, 1)
    return RatPoly([0] + [Fraction((-1) ** n * sums[n], factorial(n) * big ** n)
                          for n in range(1, k + 1)])


class BigradedTable:
    """dim of the n-wedges in loop degree k: coefficient of y^n x^k in
    prod_{j>=1} (1 + y x^j)^g, for n <= N and k <= K."""

    __slots__ = ("dim_g", "max_n", "max_k", "_rows")

    def __init__(self, dim_g: int, max_n: int, max_k: int):
        if max_n > max_k:
            raise ValueError("wedge degree bound must not exceed loop degree bound")
        self.dim_g = dim_g
        self.max_n = max_n
        self.max_k = max_k
        # rows[n] = coefficient series in x of y^n.
        rows = [[1] + [0] * max_k] + [[0] * (max_k + 1) for _ in range(max_n)]
        for j in range(1, max_k + 1):
            # Multiply by (1 + y x^j)^g = sum_i C(g, i) y^i x^(j*i) in place,
            # top row first: row n reads only the rows below it.
            for n in range(max_n, 0, -1):
                row = rows[n]
                for i in range(1, min(dim_g, n, max_k // j) + 1):
                    c = comb(dim_g, i)
                    off = j * i
                    for kk, v in enumerate(rows[n - i][:max_k + 1 - off]):
                        if v:
                            row[kk + off] += c * v
        self._rows = rows

    def entry(self, n: int, k: int) -> int:
        return self._rows[n][k]

    def euler_characteristic(self, k: int) -> int:
        return sum((-1) ** n * self._rows[n][k] for n in range(self.max_n + 1))


def bigraded_dims(dim_g: int, max_n: int, max_k: int) -> BigradedTable:
    return BigradedTable(dim_g, max_n, max_k)


def lehmer_probe(order: int) -> dict:
    """Exact values f_k(24) for k <= order, with the list of zeros.

    Computed from the 24th Euler-product power itself, which evaluates
    every f_k at 24 in one series expansion.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    series = euler_power(24, order)
    values = {k: series[k] for k in range(1, order + 1)}
    zeros = sorted(k for k, v in values.items() if v == 0)
    return {"zeros": zeros, "values": values}
