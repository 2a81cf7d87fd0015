"""Exact power series and polynomial engine.

An integer power series truncated at x^order is the plain list of its
order + 1 coefficients; the bigraded wedge dimensions are rows of such
lists, rows[n][k] for wedge degree n and loop degree k.  Rational
polynomials in one variable back the coefficient polynomials f_k(s) of
the s-th power of the Euler product, computed two independent ways: a
logarithmic-derivative (divisor-sum) recurrence on k! f_k(s), and
interpolation through the values f_k(s) = [x^k] of the s-th power for
s = 0..k, read from the pentagonal-theorem series.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isqrt


def euler_power(e: int, order: int) -> list:
    """Coefficients of (prod_{n>=1} (1 - x^n))^e modulo x^(order+1).

    The product has the nonzero terms (-1)^j x^(j(3j -+ 1)/2) only (Euler's
    pentagonal theorem).  Miller's recurrence for its e-th power,
    n q_n = sum_{k=1}^{n} ((e + 1) k - n) p_k q_{n-k}, runs over those
    O(sqrt(order)) k, independently of the alcove route and of f_poly.
    """
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
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
    return q


def alcove_coefficient_series(rs, order: int) -> list:
    """The same coefficients, as a signed sum of Weyl dimensions over
    dominant alcoves with Casimir eigenvalue at most `order`.

    Enumerating lengths up to `order` suffices because the Casimir
    eigenvalue of an alcove weight never drops below the alcove length.
    """
    from .alcove import enumerate_dominant
    from .rootsystem import weyl_dimension

    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    out = [0] * (order + 1)
    for e in enumerate_dominant(rs, order):
        if e.cas <= order:
            out[e.cas] += (-1) ** e.length * weyl_dimension(rs, e.lam)
    return out


def bott_series(rs, order: int) -> list:
    """prod_i 1/(1 - t^{m_i}) over the exponents, modulo t^(order+1)."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    coeffs = [1] + [0] * order
    for m in rs.exponents:
        for j in range(m, order + 1):
            coeffs[j] += coeffs[j - m]
    return coeffs


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


def f_poly_direct(k: int, powers=None) -> RatPoly:
    """f_k(s) interpolated through its values at s = 0..k.

    f_k(s) is the x^k coefficient of the s-th Euler-product power, so
    f_k(s) = euler_power(s, k)[k] for s >= 1 and f_k(0) = [k = 0]; a
    polynomial of degree k is fixed by these k + 1 values.  `powers`, if
    given, holds euler_power(s, K) for s = 1..K with K >= k, so that a
    caller wanting every f_k up to K expands each power once.  Newton's
    forward form f_k(s) = sum_j D^j f_k(0) s(s-1)...(s-j+1) / j! is summed
    in integers as k! f_k(s), with integer differences D^j f_k(0) and the
    falling factorials expanded in powers of s; each coefficient is one
    Fraction at the end.  Independent of the recurrence route.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if powers is None:
        powers = [euler_power(s, k) for s in range(1, k + 1)]
    values = [int(k == 0)] + [powers[s - 1][k] for s in range(1, k + 1)]
    fact = factorial(k)
    scaled = [0] * (k + 1)  # k! f_k(s), by power of s
    falling = [1]           # s(s-1)...(s-j+1), by power of s
    for j in range(k + 1):
        c = values[0] * (fact // factorial(j))
        scaled[:j + 1] = [a + c * b for a, b in zip(scaled, falling)]
        values = [b - a for a, b in zip(values, values[1:])]
        falling = [p - j * q for p, q in zip([0] + falling, falling + [0])]
    return RatPoly([Fraction(c, fact) for c in scaled])


def bigraded_dims(dim_g: int, max_n: int, max_k: int) -> list:
    """dim of the n-wedges in loop degree k, as rows[n][k]: the
    coefficient of y^n x^k in prod_{j>=1} (1 + y x^j)^g, for n <= max_n
    and k <= max_k."""
    if max_n > max_k:
        raise ValueError("wedge degree bound must not exceed loop degree bound")
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
    return rows


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
