"""Structure-constant tables and the exact wedge-power computations."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import add
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcoves.alcove import enumerate_dominant
from alcoves.ideals import dim_Ck, enumerate_abelian_ideals, max_abelian_dimension
from alcoves.limits import Limits
from alcoves.linalg import exact_rank, nullity
from alcoves.rootsystem import (casimir_eigenvalue, parse_type, weyl_dimension,
                                weyl_orbit_size)
from alcoves.series import euler_power
from alcoves.suites import run_suite
from alcoves.wedge import (LieAlgebraTable, _apply_casimir, _dominant_blocks,
                           _dominant_subsets, _highest_weight_multiplicity,
                           _killing_dual, _structure_constants, _theta_single,
                           _verify_casimir_identity, _verify_jacobi,
                           _wedge_replace1, build_chevalley,
                           casimir_eigenspace_dim, dg_ideal_dim,
                           verify_ideal_top_vectors)

TABLE_TYPES = ["A1", "A2", "B2", "C2", "G2"]


def _wedge_normalize(indices):
    """Sort a tuple of basis indices by insertion, kept as the oracle of
    the slot replacements; returns (sign, sorted tuple) or None."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None
    return sign, tuple(idx)


def _weight_of_subset(table, subset):
    out = [0] * table.rs.rank
    for a in subset:
        for i, x in enumerate(table.weights[a]):
            out[i] += x
    return tuple(out)


def weight_blocks(table, k):
    """The full sweep, kept as an oracle: every k-subset of the basis,
    grouped by weight."""
    blocks = {}
    for subset in combinations(range(table.dim), k):
        blocks.setdefault(_weight_of_subset(table, subset), []).append(subset)
    return blocks


def test_exact_rank_and_nullity():
    assert exact_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert exact_rank([{0: 3, 1: 0}, {0: 0, 1: -2}]) == 2
    assert exact_rank([{0: 0, 1: 0}, {}]) == 0
    assert nullity([{0: 1, 1: 1}, {1: 1, 2: 1}], 3) == 1


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
    assert exact_rank([dict(enumerate(row)) for row in rows]) == \
        rational_rank(rows)


def dense_bareiss_rank(rows):
    """The earlier dense rank routine, kept as an oracle: integerized rows,
    first nonzero leading entry as pivot, Bareiss steps with exact
    division by the previous pivot."""
    mat = []
    for r in rows:
        if not any(r):
            continue
        denom = lcm(*(Fraction(x).denominator for x in r))
        ints = [int(x * denom) for x in r]
        content = gcd(*ints)
        mat.append([x // content for x in ints])
    rank = 0
    prev = 1
    while mat:
        i = next((i for i, r in enumerate(mat) if r[0]), None)
        if i is None:
            mat = [r[1:] for r in mat]
            continue
        pivot = mat.pop(i)
        pv = pivot[0]
        tail = pivot[1:]
        mat = [row for row in
               ([(pv * a - r[0] * b) // prev for a, b in zip(r[1:], tail)]
                for r in mat)
               if any(row)]
        prev = pv
        rank += 1
    return rank


@st.composite
def sparse_matrices(draw):
    """0/+-1/+-2 matrices at 10-25 % density, with duplicated rows, rows
    that are combinations of two others, and all-zero rows mixed in."""
    ncols = draw(st.integers(1, 16))
    zeros = draw(st.integers(12, 36))
    entry = st.sampled_from((0,) * zeros + (1, -1, 2, -2))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=16))
    if rows:
        index = st.integers(0, len(rows) - 1)
        rows += [list(rows[i]) for i in draw(st.lists(index, max_size=4))]
        for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
            rows.append([2 * a - b for a, b in zip(rows[i], rows[j])])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows))


@given(sparse_matrices())
def test_sparse_exact_rank_matches_rational_elimination(rows):
    rank = rational_rank(rows)
    assert exact_rank([{j: x for j, x in enumerate(row) if x}
                       for row in rows]) == rank
    assert exact_rank([dict(enumerate(row)) for row in rows]) == rank
    assert dense_bareiss_rank(rows) == rank


@pytest.mark.parametrize("label", TABLE_TYPES + ["B4", "C4", "D5", "F4", "E6",
                                                  "E7"])
def test_build_verifies_itself(label):
    # Build runs the full Jacobi sweep, the Killing nondegeneracy check,
    # and the Casimir identity; reaching here means they all passed.
    rs = parse_type(label)
    table = build_chevalley(rs)
    assert table.dim == rs.dim_g


def _table_copy(table, brackets):
    fields = {name: getattr(table, name) for name in LieAlgebraTable.__slots__}
    return LieAlgebraTable(**dict(fields, brackets=tuple(map(tuple, brackets))))


def dual_rows(table):
    """D times the Killing dual of each basis vector x_j, as sparse rows
    ((index, coefficient), ...): the dual of e_alpha is (D / K_alpha)
    e_-alpha and the other way round, and the coroot rows carry their
    basis offsets 2m + j: the layout that the recorded digests hash."""
    m = table.rs.num_positive
    return tuple([((a + m, d),) for a, d in enumerate(table.root_dual)] +
                 [((a, d),) for a, d in enumerate(table.root_dual)] +
                 [tuple((2 * m + j, x) for j, x in enumerate(row) if x)
                  for row in table.coroot_dual])


@pytest.mark.parametrize("label", ["G2", "B2"])
def test_jacobi_sweep_catches_a_flipped_constant(label):
    """A copy of the table with the first mixed-sign constant N(alpha,
    -beta) negated, in both [x_a, x_b] and [x_b, x_a], fails the sweep;
    the copy without the flip passes.  Mixed-sign pairs are never
    extraspecial, so this sign is no free choice of the convention."""
    table = build_chevalley(parse_type(label))
    m = table.rs.num_positive
    a, b = next((a, b) for a in range(m) for b in range(m, 2 * m)
                if any(i < 2 * m for i, _ in table.brackets[a][b]))

    def copy(flip):
        brackets = [list(row) for row in table.brackets]
        for x, y in ((a, b), (b, a)) if flip else ():
            brackets[x][y] = tuple((i, -c) for i, c in brackets[x][y])
        return _table_copy(table, brackets)

    _verify_jacobi(copy(False))
    with pytest.raises(AssertionError, match="Jacobi fails on triple"):
        _verify_jacobi(copy(True))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_jacobi_sweep_catches_a_nonzero_cartan_bracket(label):
    """A copy with [h1, h2] = h1 for the two simple coroots fails the
    sweep, first on the triple (e_1, f_1, h1): no triple of root vectors
    alone can see it, so the sweep must reach the coroot indices."""
    table = build_chevalley(parse_type(label))
    h1, h2 = table.dim - 2, table.dim - 1
    brackets = [list(row) for row in table.brackets]
    brackets[h1][h2] = ((h1, 1),)
    brackets[h2][h1] = ((h1, -1),)
    m = table.rs.num_positive
    with pytest.raises(AssertionError,
                       match=rf"Jacobi fails on triple \(0, {m}, {h1}\)"):
        _verify_jacobi(_table_copy(table, brackets))


GOLDEN_TABLES = json.loads(
    (Path(__file__).parent / "data" / "chevalley_tables.json").read_text())


@pytest.mark.parametrize("label", sorted(GOLDEN_TABLES))
def test_table_matches_its_recorded_digest(label):
    """The sha256 of repr((brackets, dual, killing_den, weights)) of a
    fresh build is the recorded one, with `dual` the sparse rows that
    `dual_rows` rebuilds: a change of sign convention or basis order shows
    here and has to update the file on purpose."""
    table = build_chevalley.__wrapped__(parse_type(label))
    digest = hashlib.sha256(repr((table.brackets, dual_rows(table),
                                  table.killing_den, table.weights)).encode())
    assert digest.hexdigest() == GOLDEN_TABLES[label]


def test_structure_constants_make_no_fraction(count_fractions):
    """The triple fill and the quadruple sums run in integers, E8 too,
    and reach every ordered pair of roots whose sum is a root."""
    for label in ["G2", "F4", "E6", "E8"]:
        rs = parse_type(label)
        with count_fractions() as created:
            consts = _structure_constants(rs)
        assert not created, (label, created[:3])
        assert all(type(n) is int for _, n in consts.values())
        roots = rs.positive_roots + tuple(tuple(-c for c in r)
                                          for r in rs.positive_roots)
        sums = {(a, b): tuple(map(add, x, y)) for a, x in enumerate(roots)
                for b, y in enumerate(roots)}
        root_set = set(roots)
        assert set(consts) == {key for key, s in sums.items() if s in root_set}


def test_antisymmetry_of_brackets():
    for label in TABLE_TYPES + ["A3"]:
        rs = parse_type(label)
        table = build_chevalley(rs)
        for a in range(table.dim):
            for b in range(table.dim):
                forward = dict(table.brackets[a][b])
                backward = dict(table.brackets[b][a])
                assert forward == {i: -c for i, c in backward.items()}, label


@pytest.mark.parametrize("label,entries", [("A2", 21), ("B2", 28), ("G2", 56),
                                           ("A3", 60)])
def test_build_checks_catch_a_broken_antisymmetry(label, entries):
    """Antisymmetry holds by construction and is not checked on its own:
    negating any one reverse entry [x_b, x_a], b > a, makes the Jacobi
    sweep or the Casimir identity raise."""
    rs = parse_type(label)
    table = build_chevalley(rs)
    reverse = [(b, a) for a in range(table.dim) for b in range(a + 1, table.dim)
               if table.brackets[b][a]]
    assert len(reverse) == entries
    for b, a in reverse:
        brackets = [list(row) for row in table.brackets]
        brackets[b][a] = tuple((i, -c) for i, c in brackets[b][a])
        copy = _table_copy(table, brackets)
        with pytest.raises(AssertionError):
            _verify_jacobi(copy)
            _verify_casimir_identity(copy)


@pytest.mark.parametrize("label", TABLE_TYPES + ["A3", "B3", "C3"])
def test_build_reads_every_stored_dual_entry(monkeypatch, label):
    """Raising any one entry of `root_dual` or `coroot_dual` makes the
    build raise at the Casimir identity: every stored entry is checked."""
    import alcoves.wedge as wedge

    rs = parse_type(label)
    real = wedge._killing_dual
    m, l = rs.num_positive, rs.rank
    for k in range(m + l * l):  # 86 entries over the eight types
        def raised(brackets, m, l):  # entry k of the flattened dual, + 1
            roots, coroots, den = real(brackets, m, l)
            flat = [*roots, *(x for row in coroots for x in row)]
            flat[k] += 1
            return tuple(flat[:m]), tuple(
                tuple(flat[m + i * l:m + i * l + l]) for i in range(l)), den

        monkeypatch.setattr(wedge, "_killing_dual", raised)
        with pytest.raises(AssertionError, match="Casimir does not act"):
            build_chevalley.__wrapped__(rs)


def test_a1_table_by_hand():
    table = build_chevalley(parse_type("A1"))
    e, f, h = 0, 1, 2
    assert dict(table.brackets[e][f]) == {h: 1}
    assert dict(table.brackets[h][e]) == {e: 2}
    assert dict(table.brackets[h][f]) == {f: -2}


def trace_form(table):
    """The dense Killing form K(x_a, x_b) = tr(ad x_a ad x_b), traced from
    dense ad matrices: the earlier route, kept as an oracle."""
    dim = table.dim
    ad = []
    for a in range(dim):
        mat = [[0] * dim for _ in range(dim)]
        for b in range(dim):
            for i, c in table.brackets[a][b]:
                mat[i][b] += c
        ad.append(mat)
    return [[sum(ad[a][i][j] * ad[b][j][i] for i in range(dim)
                 for j in range(dim)) for b in range(dim)] for a in range(dim)]


def killing_inverse(table):
    """The inverse of the trace form over the rationals, read off the
    dual basis, which `test_dual_basis_inverts_the_trace_form` checks."""
    inv = [[Fraction(0)] * table.dim for _ in range(table.dim)]
    for j, terms in enumerate(dual_rows(table)):
        for k, c in terms:
            inv[j][k] = Fraction(c, table.killing_den)
    return inv


@pytest.mark.parametrize("label", TABLE_TYPES + ["A3"])
def test_dual_basis_inverts_the_trace_form(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    killing = trace_form(table)
    assert exact_rank([dict(enumerate(row)) for row in killing]) == table.dim
    for a in range(table.dim):
        for b in range(table.dim):
            opposite = not any(x + y for x, y in
                               zip(table.weights[a], table.weights[b]))
            assert opposite or killing[a][b] == 0
    # The dual rows are den times the inverse, den the least common
    # denominator: dual . killing == den * I, and gcd(den, dual) == 1.
    den = table.killing_den
    dual = [dict(terms) for terms in dual_rows(table)]
    assert all(type(c) is int for row in dual for c in row.values())
    assert [[sum(c * killing[k][b] for k, c in row.items())
             for b in range(table.dim)] for row in dual] == \
        [[den * (a == b) for b in range(table.dim)] for a in range(table.dim)]
    assert gcd(den, *(c for row in dual for c in row.values())) == 1


def casimir_by_definition(table, subset):
    """D theta(Cas) as sum_j theta(x_j) theta(D y_j), with D y_j read off
    the scaled dual rows: the definition, kept as the oracle of the
    weight formula in `_apply_casimir`."""
    out = {}
    for j, terms in enumerate(dual_rows(table)):
        for i, c in terms:
            for key, v in _theta_single(table, i, subset).items():
                for key2, w in _theta_single(table, j, key).items():
                    out[key2] = out.get(key2, 0) + c * v * w
    return {key: v for key, v in out.items() if v != 0}


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "C3"])
def test_casimir_weight_formula_is_the_definition(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    if label == "C3":  # every dominant-block subset up to degree 4
        subsets = [s for k in range(5) for _, block in
                   _dominant_blocks(table, k, Limits.wedge_matrix).values()
                   for s in block]
    else:
        subsets = combinations(range(table.dim), 3)
    for s in subsets:
        assert _apply_casimir(table, s) == casimir_by_definition(table, s), s


def test_one_table_per_root_system():
    rs = parse_type("B2")
    table = build_chevalley(rs)
    assert build_chevalley(parse_type("B2")) is table


def test_degenerate_killing_form_is_an_internal_error(monkeypatch):
    # A root vector that brackets to nothing pairs to zero with its negative.
    with pytest.raises(AssertionError, match="Killing form is degenerate"):
        _killing_dual([[()] * 2] * 2, 1, 0)

    def singular(mat):
        raise AssertionError("matrix is not positive definite")

    monkeypatch.setattr("alcoves.wedge._cleared_inverse", singular)
    with pytest.raises(AssertionError, match="Killing form is degenerate"):
        build_chevalley.__wrapped__(parse_type("A2"))


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
    dual basis y_j = sum_k inv[j][k] x_k from the inverse of the trace
    form."""
    inv = killing_inverse(table)
    acc = {}
    for j in range(table.dim):
        for k in range(table.dim):
            for i, c in table.brackets[k][u]:
                if i != j:
                    key, sign = ((j, i), 1) if j < i else ((i, j), -1)
                    acc[key] = acc.get(key, 0) + \
                        sign * c * inv[j][k] / 2
    return {key: v for key, v in acc.items() if v}


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


def max_casimir_eigenvalue(table, k):
    """Largest Casimir eigenvalue on the k-th wedge power: the oracle for
    Kostant's statement that it is k exactly when an abelian ideal of
    size k exists.

    Eigenvalues are Casimir scalars of the highest weights present; a
    dominant weight is a highest weight exactly when the raising
    operators have a joint kernel on its weight block.
    """
    if k > table.dim:
        raise ValueError(
            f"wedge degree {k} exceeds dim g = {table.dim}: "
            "the wedge power is zero and has no highest weight")
    highest = [weight for weight, (_, block)
               in _dominant_blocks(table, k, Limits.wedge_matrix).items()
               if _highest_weight_multiplicity(table, block)]
    if not highest:
        raise AssertionError("no highest weight found in a nonzero module")
    return max(casimir_eigenvalue(table.rs, weight) for weight in highest)


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "C2", "G2"])
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


def test_max_eigenvalue_refuses_a_zero_wedge_power():
    table = build_chevalley(parse_type("A1"))
    assert max_casimir_eigenvalue(table, 3) == 0
    with pytest.raises(ValueError, match="exceeds dim g = 3"):
        max_casimir_eigenvalue(table, 4)


@pytest.mark.parametrize("label", TABLE_TYPES + ["F4", "E6", "E7"])
def test_ideal_wedges_are_top_eigenvectors(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    res = verify_ideal_top_vectors(table, enumerate_abelian_ideals(rs))
    assert res["ok"]
    assert res["checked"] == 2 ** rs.rank  # Peterson's count


def test_ideal_top_vectors_count_a_generator():
    rs = parse_type("B2")
    table = build_chevalley(rs)
    res = verify_ideal_top_vectors(
        table, (xi for xi in enumerate_abelian_ideals(rs)))
    assert res == {"checked": 2 ** rs.rank, "failures": [], "ok": True}


def test_matrix_ceiling_guard():
    table = build_chevalley(parse_type("G2"))
    with pytest.raises(ValueError, match="wedge_matrix ceiling 100"):
        casimir_eigenspace_dim(table, 7, matrix_ceiling=100)
    # The ceiling bounds the 184 rows of G2's dominant blocks in degree 4,
    # not the 1001 of the whole degree.
    assert casimir_eigenspace_dim(table, 4, matrix_ceiling=184) == 0
    with pytest.raises(ValueError, match="wedge_matrix ceiling 183"):
        dg_ideal_dim(table, 4, matrix_ceiling=183)


def test_row_ceiling_stops_the_sweep(monkeypatch):
    """F4 has 305999 dominant rows among the C(52, 6) = 20358520 subsets
    of degree 6; the walk yields only dominant subsets and stops at the
    first row over the ceiling (a full sweep reaches it 150121 subsets
    in)."""
    table = build_chevalley(parse_type("F4"))
    _dominant_blocks.cache_clear()
    walked = []

    def counted(weights, k):
        for subset, weight in _dominant_subsets(weights, k):
            walked.append(subset)
            yield subset, weight

    monkeypatch.setattr("alcoves.wedge._dominant_subsets", counted)
    with pytest.raises(ValueError, match="wedge_matrix ceiling 3432"):
        casimir_eigenspace_dim(table, 6)
    assert len(walked) == 3433
    assert all(min(_weight_of_subset(table, s)) >= 0 for s in walked)
    # With room for every row, the blocks are the full sweep's dominant ones.
    table = build_chevalley(parse_type("G2"))
    blocks = _dominant_blocks(table, 4, 184)
    assert {w: block for w, (_, block) in blocks.items()} == \
        {w: block for w, block in weight_blocks(table, 4).items()
         if min(w) >= 0}


def test_seven_numbers_walks_each_degree_once(monkeypatch):
    """The eigenspace and coboundary legs of one degree share one kept
    walk, and only the last degree's blocks stay: h_dual + 1 walks on G2,
    one per degree."""
    walks = []

    def counted(weights, k):
        walks.append(k)
        return _dominant_subsets(weights, k)

    _dominant_blocks.cache_clear()
    monkeypatch.setattr("alcoves.wedge._dominant_subsets", counted)
    report = run_suite("seven-numbers", "G2", Limits())
    assert report.failed == 0
    assert walks == [0, 1, 2, 3, 4]
    assert _dominant_blocks.cache_info().currsize == 1


@given(st.integers(1, 3).flatmap(lambda rank: st.lists(
    st.tuples(*[st.integers(-3, 3)] * rank), min_size=1, max_size=10)),
    st.integers(0, 6))
def test_dominant_subsets_are_the_filtered_sweep(weights, k):
    """The pruned walk yields exactly the k-subsets of dominant sum, with
    their sums, in `combinations` order."""
    rank = len(weights[0])
    sums = ((s, tuple(sum(weights[a][i] for a in s) for i in range(rank)))
            for s in combinations(range(len(weights)), k))
    assert list(_dominant_subsets(weights, k)) == \
        [(s, w) for s, w in sums if min(w) >= 0]


@pytest.mark.parametrize("label", TABLE_TYPES + ["A3", "B3", "C3", "D4"])
def test_dominant_blocks_are_the_dominant_part_of_the_sweep(label):
    """Same weights in the same order, orbit sizes counted by reflections,
    and every block the same ordered list as the full sweep's; D4 in its
    top degree only."""
    rs = parse_type(label)
    table = build_chevalley(rs)
    for k in [6] if label == "D4" else range(rs.h_dual + 1):
        got = _dominant_blocks(table, k, comb(rs.dim_g, k))
        expected = [(w, (len(orbit_by_reflections(rs, w)), block))
                    for w, block in weight_blocks(table, k).items()
                    if min(w) >= 0]
        assert list(got.items()) == expected


@pytest.mark.parametrize("label", TABLE_TYPES)
def test_signed_series_equals_eigenspace(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    series = euler_power(rs.dim_g, rs.h_dual)
    for k in range(rs.h_dual + 1):
        assert (-1) ** k * series[k] == casimir_eigenspace_dim(table, k)


def full_eigenspace_dim(table, k):
    """The full sweep, kept as an oracle: nullity of D (Cas - k) on every
    weight block, dense rows, dense Bareiss rank."""
    if k == 0:
        return 1
    shift = k * table.killing_den
    total = 0
    for block in weight_blocks(table, k).values():
        pos = {s: i for i, s in enumerate(block)}
        rows = []
        for s in block:
            row = [0] * len(block)
            for key, v in _apply_casimir(table, s).items():
                row[pos[key]] = v
            row[pos[s]] -= shift
            rows.append(row)
        total += len(block) - dense_bareiss_rank(rows)
    return total


def full_dg_ideal_dim(table, k):
    """The full sweep over the generator route, kept as an oracle: every
    w wedge d(u), with d(u) over the rationals from the Killing dual,
    ranked block by block with dense Bareiss."""
    if k < 2:
        return 0
    images = [rational_coboundary(table, u).items() for u in range(table.dim)]
    gen_blocks = {}
    for w_subset in combinations(range(table.dim), k - 2):
        w_weight = _weight_of_subset(table, w_subset)
        for u in range(table.dim):
            vec = {}
            for (a, b), c in images[u]:
                if a in w_subset or b in w_subset:
                    continue
                sign, key = _wedge_normalize(w_subset + (a, b))
                vec[key] = vec.get(key, 0) + sign * c
            vec = {key: v for key, v in vec.items() if v != 0}
            if vec:
                weight = tuple(x + y for x, y in zip(w_weight, table.weights[u]))
                gen_blocks.setdefault(weight, []).append(vec)
    total = 0
    for vecs in gen_blocks.values():
        cols = sorted({key for vec in vecs for key in vec})
        total += dense_bareiss_rank([[vec.get(key, 0) for key in cols]
                                     for vec in vecs])
    return total


@pytest.mark.parametrize("label", TABLE_TYPES + ["A3", "C3", "B3", "A4"])
def test_dominant_blocks_match_full_sweep(label):
    """Both legs against the full sweeps, for k <= h_dual; C3, B3 and A4
    stop at k = 3, where the dense oracle takes a fraction of a second
    (at k = 4 it takes seconds per type)."""
    rs = parse_type(label)
    table = build_chevalley(rs)
    for k in range((rs.h_dual if rs.dim_g <= 15 else 3) + 1):
        assert casimir_eigenspace_dim(table, k) == full_eigenspace_dim(table, k)
        assert dg_ideal_dim(table, k) == full_dg_ideal_dim(table, k)


@pytest.mark.parametrize("label, kmax", [
    ("A1", 4), ("A2", 5), ("B2", 5), ("G2", 6), ("A3", 6), ("C3", 5),
    ("B3", 5), ("A4", 5)])
def test_boundary_corner_is_the_alcove_sum(label, kmax):
    """Garland-Lepowsky on the corner: C(dim g, k) minus the rank of the
    boundary on Lambda^k(g t^-1) is the sum of dim V(lambda) over the
    dominant alcoves of length k and Casimir k.  kmax is h_dual + 2, or
    the last degree inside the default wedge_matrix ceiling (C3, B3 and
    A4 stop at 5); past the largest abelian ideal both sides are 0."""
    rs = parse_type(label)
    table = build_chevalley(rs)
    doms = enumerate_dominant(rs, kmax)
    for k in range(kmax + 1):
        assert comb(rs.dim_g, k) - dg_ideal_dim(table, k) == \
            sum(weyl_dimension(rs, e.lam) for e in doms
                if e.length == e.cas == k), k


def stacked_highest_weight_vector(table, blocks, weight, block):
    """The earlier highest-weight test, kept as an oracle: one dense
    matrix per simple raising operator, from the block into its target
    block, stacked and ranked by dense Bareiss; returns the dimension of
    their joint kernel."""
    rs = table.rs
    pos = {s: i for i, s in enumerate(block)}
    rows = []
    for simple in range(rs.rank):
        gen = rs.positive_roots.index(
            tuple(int(j == simple) for j in range(rs.rank)))
        target_weight = tuple(w + c for w, c in zip(weight, table.weights[gen]))
        target = blocks.get(target_weight, [])
        tpos = {s: i for i, s in enumerate(target)}
        mat = [[0] * len(block) for _ in target]
        for s in block:
            for key, v in _theta_single(table, gen, s).items():
                mat[tpos[key]][pos[s]] += v
        rows.extend(mat)
    return len(block) - dense_bareiss_rank(rows)


@pytest.mark.parametrize("label", TABLE_TYPES + ["A3"])
def test_highest_weight_test_matches_stacked_oracle(label):
    """The multiplicity of every dominant weight as a highest weight."""
    rs = parse_type(label)
    table = build_chevalley(rs)
    for k in range(rs.h_dual + 1):
        blocks = weight_blocks(table, k)
        dominant = {w: block for w, block in blocks.items() if min(w) >= 0}
        found = {w: _highest_weight_multiplicity(table, block)
                 for w, block in dominant.items()}
        assert found == {w: stacked_highest_weight_vector(table, blocks, w,
                                                          block)
                         for w, block in dominant.items()}
        if k == 1:  # g is irreducible, of highest weight the highest root
            psi = rs.positive_roots[rs.highest_root]
            assert {w: m for w, m in found.items() if m} == \
                {tuple(rs.root_coords_to_weight(psi)): 1}


def orbit_by_reflections(rs, weight):
    """Weyl orbit of a weight by closure under the simple reflections
    s_i(mu) = mu - mu_i alpha_i, in fundamental coordinates (alpha_i is
    column i of the Cartan matrix)."""
    seen = {tuple(weight)}
    todo = [tuple(weight)]
    while todo:
        mu = todo.pop()
        for i in range(rs.rank):
            nu = tuple(m - mu[i] * row[i] for m, row in zip(mu, rs.cartan))
            if nu not in seen:
                seen.add(nu)
                todo.append(nu)
    return seen


@pytest.mark.parametrize("label", TABLE_TYPES + ["A3", "B3"])
def test_dominant_blocks_times_orbits_fill_each_degree(label):
    rs = parse_type(label)
    table = build_chevalley(rs)
    for k in range(rs.h_dual + 1):
        blocks = weight_blocks(table, k)
        dominant = [w for w in blocks if all(x >= 0 for x in w)]
        for w in dominant:
            orbit = orbit_by_reflections(rs, w)
            assert weyl_orbit_size(rs, w) == len(orbit)
            # Weight multiplicities are constant on the orbit.
            assert {len(blocks.get(mu, ())) for mu in orbit} == {len(blocks[w])}
        assert sum(weyl_orbit_size(rs, w) * len(blocks[w]) for w in dominant) \
            == comb(rs.dim_g, k)


@pytest.mark.parametrize("label, order", [("G2", 12), ("A3", 24), ("B3", 48)])
def test_regular_orbit_is_the_whole_group(label, order):
    rs = parse_type(label)
    regular = (1,) * rs.rank
    assert weyl_orbit_size(rs, regular) == order
    assert len(orbit_by_reflections(rs, regular)) == order
    assert weyl_orbit_size(rs, (0,) * rs.rank) == 1


def test_bad_orbit_count_is_an_internal_error(monkeypatch):
    table = build_chevalley(parse_type("G2"))
    _dominant_blocks.cache_clear()
    monkeypatch.setattr("alcoves.wedge.weyl_orbit_size", lambda rs, w: 1)
    with pytest.raises(AssertionError):
        casimir_eigenspace_dim(table, 2)
    with pytest.raises(AssertionError):
        dg_ideal_dim(table, 2)
    with pytest.raises(AssertionError):
        max_casimir_eigenvalue(table, 2)


@pytest.mark.parametrize("label", ["G2", "A3"])
def test_slot_replacement_matches_generic_normalize(label):
    rs = parse_type(label)
    dim = rs.dim_g
    for subset in combinations(range(dim), 3):
        for s in range(3):
            for c in range(dim):
                repl = list(subset)
                repl[s] = c
                assert _wedge_replace1(subset, s, c) == _wedge_normalize(repl)
