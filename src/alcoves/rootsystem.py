"""Exact root-system data for the simple Lie types A through G.

Roots are stored as integer coordinate vectors in the simple-root basis;
weights as vectors of fundamental-weight coordinates.  There is one inner
product, in integers: `sym` holds the smallest positive integers with
sym_i * a_ij symmetric, and

    pair(x, y) = sum_ij x_i sym_i a_ij y_j

for x, y in simple-root coordinates.  The Killing normalization, in which
every long root has squared length 1/h_dual and in which all Casimir
eigenvalues and wall evaluations are stated, is (x, y)_K = pair(x, y) /
(2 * scale) with scale = h_dual * pair(psi, psi) / 2.  A weight pairs with
a root as (lambda, x) = sum_i lambda_i sym_i x_i in the same units.
Division happens only where a value is reported as a rational.

A root system is built in integers: the symmetrizers by propagation
along the Dynkin diagram, and the inverse Cartan matrix as (adj, den),
cleared by its least common denominator, by fraction-free elimination.
The rational `cartan_inv` is derived from it on first use, so building
a type imports neither `fractions` nor `linalg`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from numbers import Rational  # annotation only; `fractions` loads on use

FAMILIES = "ABCDEFG"

# Number of positive roots per family, as a function of the rank.
_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _valid_type(family: str, rank: int) -> bool:
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(family, False)


def _cartan_matrix(family: str, rank: int):
    """Cartan matrix a[i][j] = <alpha_j, alpha_i^vee> in Bourbaki numbering."""
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in "ABC":
        for i in range(rank - 1):
            bond(i, i + 1)
        if family == "B" and rank >= 2:
            # alpha_rank is short: <alpha_{l-1}, alpha_l^vee> = -2.
            a[rank - 1][rank - 2] = -2
        if family == "C" and rank >= 2:
            a[rank - 2][rank - 1] = -2
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif family == "E":
        # Chain 1-3-4-5-..., with node 2 attached to node 4 (1-indexed).
        chain = [0] + list(range(2, rank))
        for u, v in zip(chain, chain[1:]):
            bond(u, v)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, aij=-1, aji=-2)  # alpha_3, alpha_4 short
        bond(2, 3)
    elif family == "G":
        bond(0, 1, aij=-1, aji=-3)  # alpha_2 short
    return tuple(tuple(row) for row in a)


class FrozenRecord:
    """Fields named in `__slots__`, each set once by keyword; assigning or
    deleting one afterwards raises.  Equality and hashing are by identity:
    every record is built once per key by a cached constructor."""

    __slots__ = ()

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(fields)}")

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class RootSystem(FrozenRecord):
    """Immutable exact data for one simple type, built once per
    (family, rank) by `build_root_system`."""

    __slots__ = (
        "family", "rank", "cartan",
        "inverse",          # (adj, den): den * cartan^-1, den least
        "positive_roots",   # coordinate vectors in the simple-root basis
        "highest_root",     # index of psi in positive_roots
        "sym",              # symmetrizers: sym_i * a_ij is symmetric
        "scale",            # h_dual * pair(psi, psi) / 2
        "h", "h_dual", "exponents", "dim_g",
        "two_rho",          # 2*rho in simple-root coordinates
        "_index",           # positive root -> its index
    )

    def __repr__(self):
        return f"RootSystem({self.label!r})"

    def __reduce__(self):  # unpickling returns the one record of the type
        return build_root_system, (self.family, self.rank)

    # -- basic views ---------------------------------------------------

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def root_index(self, coords) -> int:
        return self._index[tuple(coords)]

    def is_root(self, coords) -> bool:
        c = tuple(coords)
        return c in self._index or tuple(-x for x in c) in self._index

    def root_height(self, idx: int) -> int:
        return sum(self.positive_roots[idx])

    # -- the inner product ---------------------------------------------

    def pair(self, x, y) -> int:
        """sum x_i sym_i a_ij y_j for x, y in simple-root coordinates;
        the Killing pairing is this divided by 2 * scale."""
        return _pair(self.cartan, self.sym, x, y)

    # -- coordinate conversions -----------------------------------------

    @property
    def cartan_inv(self) -> tuple:
        """The inverse Cartan matrix, as Fractions."""
        return _cartan_inv(self)

    def weight_to_root_coords(self, weight) -> tuple:
        inv = self.cartan_inv
        return tuple(sum(inv[i][j] * weight[j] for j in range(self.rank))
                     for i in range(self.rank))

    def root_coords_to_weight(self, coords) -> tuple:
        a = self.cartan
        return tuple(sum(a[i][j] * coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    # -- predicates ------------------------------------------------------

    def is_dominant_integral(self, weight) -> bool:
        return len(weight) == self.rank and \
            all(x == int(x) and x >= 0 for x in weight)


@lru_cache(maxsize=None)
def _cartan_inv(rs: RootSystem) -> tuple:
    from fractions import Fraction

    adj, den = rs.inverse
    return tuple(tuple(Fraction(a, den) for a in row) for row in adj)


def _pair(cartan, sym, x, y) -> int:
    return sum(xi * sym[i] * sum(a * yj for a, yj in zip(cartan[i], y) if yj)
               for i, xi in enumerate(x) if xi)


def _string_start(roots, beta, alpha) -> int:
    """Largest p with beta - p*alpha in `roots`."""
    p = 0
    cur = tuple(b - a for b, a in zip(beta, alpha))
    while cur in roots:
        p += 1
        cur = tuple(c - a for c, a in zip(cur, alpha))
    return p


def _positive_roots_by_closure(cartan, rank):
    """All positive roots, generated from the simple roots by root strings."""
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(units)
    frontier = list(roots)
    while frontier:
        new = []
        for c in frontier:
            for i, unit in enumerate(units):
                pairing = sum(cartan[i][j] * c[j] for j in range(rank))
                # String through c in direction alpha_i: p - q = pairing.
                if _string_start(roots, c, unit) - pairing >= 1:
                    up = list(c)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    return sorted(roots, key=lambda c: (sum(c), c))


def _symmetrizers(cartan, rank) -> tuple:
    """The smallest positive integers sym with sym_i a_ij = sym_j a_ji,
    propagated along the Dynkin diagram: where sym_i a_ij is not a
    multiple of a_ji, every value set so far is scaled by |a_ji| first."""
    sym = [0] * rank
    sym[0] = 1
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if j != i and cartan[i][j] != 0 and not sym[j]:
                if sym[i] * cartan[i][j] % cartan[j][i]:
                    sym = [x * abs(cartan[j][i]) for x in sym]
                sym[j] = sym[i] * cartan[i][j] // cartan[j][i]
                todo.append(j)
    if not all(sym):
        raise AssertionError("Dynkin diagram is not connected")
    g = gcd(*sym)
    return tuple(x // g for x in sym)


def _cleared_inverse(cartan) -> tuple:
    """(adj, den) with adj = den * cartan^-1 in integers and den the least
    common denominator, by fraction-free Gauss-Jordan elimination: after
    step k the leading k x k block is the k-th leading principal minor
    times the identity, and every division is exact.  A finite-type
    Cartan matrix, like the Killing form on the coroots, has positive
    leading principal minors, so no pivoting."""
    n = len(cartan)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(cartan)]
    prev = 1
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            raise AssertionError("matrix is not positive definite")
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev
                           for x, y in zip(rows[i], rows[k])]
        prev = pivot
    # cartan^-1 = adjugate / det; divide both by their common factor.
    g = gcd(prev, *(x for row in rows for x in row[n:]))
    return tuple(tuple(x // g for x in row[n:]) for row in rows), prev // g


def _exponents(heights) -> tuple:
    """Exponents of a root system, as the dual of the partition of its
    positive roots by height (Kostant); reducible systems included."""
    heights = list(heights)
    max_h = max(heights, default=0)
    count_at = [heights.count(j) for j in range(1, max_h + 2)]
    exponents = []
    for j in range(1, max_h + 1):
        exponents.extend([j] * (count_at[j - 1] - count_at[j]))
    return tuple(sorted(exponents))


def build_root_system(family: str, rank: int) -> RootSystem:
    """The full exact root-system record for one simple type, built once:
    every spelling of a type gives the same record."""
    return _build_root_system(family.upper(), rank)


@lru_cache(maxsize=None)
def _build_root_system(family: str, rank: int) -> RootSystem:
    if not _valid_type(family, rank):
        raise ValueError(f"not a valid simple type: {family}{rank}")

    cartan = _cartan_matrix(family, rank)
    positive = _positive_roots_by_closure(cartan, rank)
    expected = _POSITIVE_ROOT_COUNT[family](rank)
    if len(positive) != expected:
        raise AssertionError(
            f"closure produced {len(positive)} positive roots for "
            f"{family}{rank}, expected {expected}")

    index = {c: i for i, c in enumerate(positive)}

    # The highest root is the unique one from which no alpha_i can be added.
    psi_idx = len(positive) - 1
    psi = positive[psi_idx]
    for other in positive:
        diff = tuple(p - o for p, o in zip(psi, other))
        if any(x < 0 for x in diff):
            raise AssertionError("highest root is not maximal")

    sym = _symmetrizers(cartan, rank)
    if any(sym[i] * cartan[i][j] != sym[j] * cartan[j][i]
           for i in range(rank) for j in range(rank)):
        raise AssertionError("symmetrized Cartan matrix is not symmetric")

    def pair(x, y):
        return _pair(cartan, sym, x, y)

    psi_norm = pair(psi, psi)
    two_rho = tuple(sum(c[i] for c in positive) for i in range(rank))

    # h_dual from (2*rho, psi) + (psi, psi) = (psi, psi) * h_dual.
    h_dual, rem = divmod(pair(two_rho, psi), psi_norm)
    if rem:
        raise AssertionError("dual Coxeter number is not an integer")
    h_dual += 1
    h = sum(psi) + 1

    exponents = _exponents(sum(c) for c in positive)
    if sum(exponents) != len(positive) or len(exponents) != rank:
        raise AssertionError("height partition does not give the exponents")

    dim_g = 2 * len(positive) + rank

    return RootSystem(
        family=family, rank=rank, cartan=cartan,
        inverse=_cleared_inverse(cartan),
        positive_roots=tuple(positive), highest_root=psi_idx,
        sym=sym, scale=h_dual * psi_norm // 2,
        h=h, h_dual=h_dual, exponents=exponents, dim_g=dim_g,
        two_rho=two_rho, _index=index)


def parse_label(label: str) -> tuple:
    """(family, rank) of a label like 'A4' or 'E6', without building it."""
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in FAMILIES:
        raise ValueError(f"cannot parse type label {label!r}")
    try:
        return label[0].upper(), int(label[1:])
    except ValueError:
        raise ValueError(f"cannot parse type label {label!r}") from None


def parse_type(label: str) -> RootSystem:
    """Build a root system from a label like 'A4' or 'E6'."""
    return build_root_system(*parse_label(label))


def casimir_eigenvalue(rs: RootSystem, weight) -> Rational:
    """Killing-normalized Casimir scalar (lambda, lambda + 2*rho)_K.

    Requires a dominant integral weight; the highest root always gives 1.
    """
    from fractions import Fraction

    if not rs.is_dominant_integral(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    c = rs.weight_to_root_coords(weight)
    num = sum(w * s * (ci + t) for w, s, ci, t in
              zip(weight, rs.sym, c, rs.two_rho))
    return Fraction(num, 2 * rs.scale)


def _coroot_coords(rs: RootSystem, root_coords) -> tuple:
    """Coordinates of phi^vee in the simple-coroot basis (integers):
    2 c_i sym_i / pair(phi, phi)."""
    norm = rs.pair(root_coords, root_coords)
    out = []
    for c, s in zip(root_coords, rs.sym):
        v, rem = divmod(2 * c * s, norm)
        if rem:
            raise AssertionError("coroot has non-integer coordinates")
        out.append(v)
    return tuple(out)


def _integer_inverse(rs: RootSystem):
    """(adj, den) with adj = den * cartan_inv, all integers."""
    return rs.inverse


def _dominant_weights_with_cas_bound(rs: RootSystem, ceiling: int):
    """All dominant integral weights with Casimir eigenvalue <= ceiling.

    The eigenvalue is monotone in every coordinate, so a coordinate scan
    with early exit is exhaustive.  With `cartan_inv` cleared by its
    common denominator d, d times the numerator of `casimir_eigenvalue`
    is the integer w.Q.w + L.w, compared with d * ceiling * 2 * scale."""
    adj, d = _integer_inverse(rs)
    form = [[s * x for x in row] for s, row in zip(rs.sym, adj)]
    coords = [0] * rs.rank
    out = []

    def rec(i: int, num: int):  # num: d times the numerator of coords[:i]
        if i == rs.rank:
            out.append(tuple(coords))
            return
        step = d * rs.sym[i] * rs.two_rho[i] + sum(
            (form[i][j] + form[j][i]) * coords[j] for j in range(i))
        while num <= d * ceiling * 2 * rs.scale:  # num of coords[:i + 1]
            rec(i + 1, num)
            num += step + form[i][i] * (2 * coords[i] + 1)
            coords[i] += 1
        coords[i] = 0

    rec(0, 0)
    return out


@lru_cache(maxsize=None)
def _parabolic_order(rs: RootSystem, subset: frozenset) -> int:
    """|W_J| for the simple roots J = `subset`: the product of
    (exponent + 1) over the root subsystem they span (Chevalley)."""
    heights = (sum(c) for c in rs.positive_roots
               if all(i in subset for i, x in enumerate(c) if x))
    order = 1
    for e in _exponents(heights):
        order *= e + 1
    return order


def weyl_orbit_size(rs: RootSystem, weight) -> int:
    """Size of the Weyl-group orbit of a dominant weight, |W| / |W_J|:
    its stabilizer is the parabolic subgroup W_J generated by the simple
    reflections of the coordinates where it vanishes."""
    if any(x < 0 for x in weight):
        raise ValueError(f"weight {weight} is not dominant")
    zeros = frozenset(i for i, x in enumerate(weight) if x == 0)
    return _parabolic_order(rs, frozenset(range(rs.rank))) // \
        _parabolic_order(rs, zeros)


@lru_cache(maxsize=None)
def _root_poset(rs: RootSystem) -> tuple:
    """(simple, steps, denominator), one table per root system.

    The first `rank` positive roots in the stored order are the simple
    ones, and `simple[k]` is the index i with positive_roots[k] = alpha_i.
    Each later root alpha, in the stored order, has a step (j, i) with
    alpha = positive_roots[j] + alpha_i and j < its own index (roots are
    stored by height).  `denominator` is the Weyl denominator
    prod_{alpha > 0} (rho, alpha), in the units of `pair`."""
    roots = rs.positive_roots
    simple = tuple(c.index(1) for c in roots[:rs.rank])
    steps = []
    for c in roots[rs.rank:]:
        for i, ci in enumerate(c):
            parent = c[:i] + (ci - 1,) + c[i + 1:]
            if ci and parent in rs._index:
                steps.append((rs._index[parent], i))
                break
    denominator = prod(sum(s * ci for s, ci in zip(rs.sym, c)) for c in roots)
    return simple, tuple(steps), denominator


def _rho_values(rs: RootSystem, weight) -> list:
    """v_alpha = sum_i c_i sym_i (lambda_i + 1) for every positive root
    alpha = sum c_i alpha_i, in the stored order: (lambda + rho, alpha)
    in the units of `pair`, and also alpha evaluated at the point of
    2 (lambda + rho), sym_i (lambda_i + 1) in `alcove`'s units.  One
    addition per root, down the steps of `_root_poset`."""
    simple, steps, _ = _root_poset(rs)
    base = [s * (int(w) + 1) for s, w in zip(rs.sym, weight)]
    values = [base[i] for i in simple]
    for j, i in steps:
        values.append(values[j] + base[i])
    return values


def weyl_dimension(rs: RootSystem, weight) -> int:
    """dim V_lambda = prod_{alpha > 0} (lambda + rho, alpha) / (rho, alpha),
    exactly.  The numerator is the product of `_rho_values`, one addition
    per positive root; the denominator is the same product at lambda = 0,
    built once per root system by `_root_poset`."""
    if not rs.is_dominant_integral(weight):
        raise ValueError(f"weight {weight} is not dominant integral")
    dim, rem = divmod(prod(_rho_values(rs, weight)), _root_poset(rs)[2])
    if rem or dim <= 0:
        raise AssertionError("Weyl dimension product is not a positive integer")
    return dim


def heisenberg_count(rs: RootSystem) -> int:
    """m with 2m + 1 = #{phi > 0 : (psi, phi) > 0}, which is h_dual - 2."""
    psi = rs.positive_roots[rs.highest_root]
    n = sum(1 for c in rs.positive_roots if rs.pair(psi, c) > 0)
    m, odd = divmod(n - 1, 2)
    if odd:
        raise AssertionError("root set pairing positively with psi has even size")
    return m
