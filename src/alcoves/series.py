"""Exact power series and polynomial engine.

Integer power series are dense coefficient lists with a hard truncation
order; all arithmetic is schoolbook and exact.  Rational polynomials in
one variable back the coefficient polynomials f_k(s) of the s-th power
of the Euler product, computed two independent ways (a logarithmic
derivative recurrence and direct composition enumeration).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

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

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a:
                for j, b in enumerate(other.coeffs[: order + 1 - i]):
                    if b:
                        out[i + j] += a * b
        return IntSeries(out, order)


def euler_power(e: int, order: int) -> IntSeries:
    """Coefficients of (prod_{n>=1} (1 - x^n))^e modulo x^(order+1).

    Each factor (1 - x^n)^e is expanded binomially before multiplying in,
    so the result is independent of any alcove or polynomial machinery.
    """
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    acc = IntSeries([1], order)
    for n in range(1, order + 1):
        factor = [0] * (order + 1)
        for j in range(order // n + 1):
            factor[n * j] = (-1) ** j * comb(e, j) if j <= e else 0
        acc = acc * IntSeries(factor, order)
    return acc


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

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return RatPoly([x + y for x, y in zip(a, b)])

    def scale(self, c) -> "RatPoly":
        return RatPoly([Fraction(c) * x for x in self.coeffs])

    def shift_up(self) -> "RatPoly":
        """Multiply by the variable."""
        return RatPoly((Fraction(0),) + self.coeffs)

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


@lru_cache(maxsize=None)
def _f_polys_upto(k: int):
    """f_0..f_k via the recurrence k*f_k = -s * sum m*mu(m)*f_{k-m}."""
    polys = [RatPoly([1])]
    for n in range(1, k + 1):
        acc = RatPoly([])
        for m in range(1, n + 1):
            acc = acc + polys[n - m].scale(m * mu(m))
        polys.append(acc.shift_up().scale(Fraction(-1, n)))
    return tuple(polys)


def f_poly(k: int) -> RatPoly:
    """Degree-k coefficient polynomial of the s-th Euler-product power."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _f_polys_upto(k)[k]


def _compositions(total: int, parts: int):
    """Ordered tuples of positive integers with the given sum and length."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def f_poly_direct(k: int, max_k: int = DIRECT_MAX_K) -> RatPoly:
    """f_k(s) assembled term by term from ordered compositions of k.

    Independent of the recurrence route; exponential in k, so guarded.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > max_k:
        raise ValueError(f"composition enumeration capped at k = {max_k}")
    if k == 0:
        return RatPoly([1])
    coeffs = [Fraction(0)] * (k + 1)
    fact = 1
    for n in range(1, k + 1):
        fact *= n
        q_kn = sum((_mu_product(c) for c in _compositions(k, n)), Fraction(0))
        coeffs[n] = q_kn * Fraction((-1) ** n, fact)
    return RatPoly(coeffs)


def _mu_product(composition) -> Fraction:
    prod = Fraction(1)
    for m in composition:
        prod *= mu(m)
    return prod


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
        rows = [[0] * (max_k + 1) for _ in range(max_n + 1)]
        rows[0][0] = 1
        for j in range(1, max_k + 1):
            # Multiply by (1 + y x^j)^g = sum_i C(g, i) y^i x^(j*i).
            new = [[0] * (max_k + 1) for _ in range(max_n + 1)]
            for n in range(self.max_n + 1):
                for i in range(0, min(dim_g, n, max_k // j) + 1):
                    c = comb(dim_g, i)
                    src = rows[n - i]
                    off = j * i
                    for kk in range(max_k + 1 - off):
                        v = src[kk]
                        if v:
                            new[n][kk + off] += c * v
            rows = new
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
