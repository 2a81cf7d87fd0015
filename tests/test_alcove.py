"""Dominant alcove enumeration, folding, signs, and wall-count chains."""

import random
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from alcoves.alcove import (apply_element, chi_at_type_rho, counts_by_length,
                            enumerate_casimir_bounded, enumerate_dominant,
                            enumerate_wf2,
                            finite_part_length, ideal_chain, in_wf2,
                            reduce_to_fundamental, reflect_in_wall,
                            two_rho_pairing_killing)
from alcoves.ideals import (_alcove_by_ideal, _pairing_tables, is_abelian,
                            is_ideal)
from alcoves.rootsystem import casimir_eigenvalue, parse_type, weyl_dimension
from alcoves.series import _scaled_fk_rows, bott_series, euler_power
from alcoves.wedge import _apply_casimir, build_chevalley, dg_ideal_dim

SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "C2", "G2", "B3", "C3", "D4",
               "A5", "D5", "F4", "E6"]


def test_length_zero_is_identity_only():
    for label in SMALL_TYPES:
        rs = parse_type(label)
        elements = enumerate_dominant(rs, 0)
        assert len(elements) == 1
        e = elements[0]
        assert e.length == 0 and e.cas == 0
        assert e.lam == (0,) * rs.rank
        assert e.x == rs.sym


def test_a1_single_chain():
    rs = parse_type("A1")
    for e in enumerate_dominant(rs, 5):
        n = e.length
        assert e.n_vec == (n,)
        assert e.lam == (2 * n,)
        assert e.cas == n * (n + 1) // 2
        assert weyl_dimension(rs, e.lam) == 2 * n + 1


def test_a2_counts_by_length():
    rs = parse_type("A2")
    assert counts_by_length(rs, 5) == [1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_counts_match_loop_space_series(label):
    rs = parse_type(label)
    depth = 10
    assert counts_by_length(rs, depth) == bott_series(rs, depth)


@pytest.mark.parametrize("label,rank", [("A1", 1), ("A2", 2), ("A3", 3),
                                        ("B2", 2), ("B3", 3), ("C3", 3),
                                        ("G2", 2)])
def test_dilated_alcove_counts_are_powers(label, rank):
    """k-fold dilation of the fundamental alcove holds exactly k^rank
    alcoves; membership is a highest-root wall count below k."""
    rs = parse_type(label)
    elements = enumerate_dominant(rs, 3 * rs.num_positive)
    for k in (1, 2, 3):
        count = sum(1 for e in elements if e.n_vec[rs.highest_root] <= k - 1)
        assert count == k ** rank


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_element_invariants(label):
    rs = parse_type(label)
    elements = enumerate_dominant(rs, 6)
    seen_weights = set()
    for e in elements:
        assert e.length == sum(e.n_vec)
        # Weight reconstruction from wall counts.
        coords = [0] * rs.rank
        for n, phi in zip(e.n_vec, rs.positive_roots):
            for i, c in enumerate(phi):
                coords[i] += n * c
        assert tuple(rs.root_coords_to_weight(coords)) == e.lam
        assert rs.is_dominant_integral(e.lam)
        assert all(c.denominator == 1 for c in rs.weight_to_root_coords(e.lam))
        assert e.cas == sum(n * (n + 1) // 2 for n in e.n_vec)
        assert casimir_eigenvalue(rs, e.lam) == e.cas
        assert e.cas >= e.length
        assert (e.cas == e.length) == in_wf2(rs, e)
        seen_weights.add(e.lam)
        # The tracked point is the element applied to the base point.
        assert apply_element(rs, e, rs.sym) == e.x
        # Every field is built from plain integers.
        for vec in (e.x, e.n_vec, e.lam) + e.w:
            assert all(type(v) is int for v in vec)
        assert type(e.length) is int and type(e.cas) is int
    assert len(seen_weights) == len(elements)


def _translation_tracking_bfs(rs, max_length):
    """The dominant alcoves by a search that threads the translation:
    sigma(y) = w y + scale * t, where t_j = alpha_j(z) for the coroot
    coordinates z of the translation, solved for every kept alcove.  The
    simple reflections are built from the Cartan matrix by hand.  Returns
    dicts in the order of `enumerate_dominant`."""
    l, scale = rs.rank, rs.scale
    eye = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    psi = rs.positive_roots[rs.highest_root]
    pv = tuple(2 * rs.pair(psi, eye[j]) // rs.pair(psi, psi) for j in range(l))
    gens = [(tuple(tuple(eye[j][k] - (rs.cartan[i][j] if k == i else 0)
                         for k in range(l)) for j in range(l)), (0,) * l)
            for i in range(l)]
    gens.append((tuple(tuple(eye[j][k] - pv[j] * psi[k] for k in range(l))
                       for j in range(l)), pv))

    def mat_vec(m, v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in m)

    def element(w, t, x):
        n_vec = tuple(sum(c * v for c, v in zip(root, x)) // scale
                      for root in rs.positive_roots)
        z = tuple(sum(rs.cartan_inv[j][i] * t[j] for j in range(l))
                  for i in range(l))
        assert all(v.denominator == 1 for v in z)
        return {"x": x, "w": w, "t": t, "z": tuple(int(v) for v in z),
                "n_vec": n_vec, "length": sum(n_vec),
                "lam": tuple(v // s - 1 for v, s in zip(x, rs.sym)),
                "cas": sum(n * (n + 1) // 2 for n in n_vec)}

    frontier = [element(eye, (0,) * l, rs.sym)]
    out = list(frontier)
    seen = {rs.sym}
    for target in range(1, max_length + 1):
        new = []
        for e in frontier:
            for gmat, gt in gens:
                t = tuple(a + b for a, b in zip(mat_vec(e["w"], gt), e["t"]))
                x = tuple(v + scale * c for v, c in
                          zip(mat_vec(e["w"], mat_vec(gmat, rs.sym)), t))
                if min(x) <= 0 or x in seen:
                    continue
                w = tuple(tuple(sum(e["w"][j][i] * gmat[i][k] for i in range(l))
                                for k in range(l)) for j in range(l))
                cand = element(w, t, x)
                if cand["length"] == target:
                    seen.add(x)
                    new.append(cand)
        new.sort(key=lambda e: e["n_vec"])
        out.extend(new)
        frontier = new
    return out


@pytest.mark.parametrize("label", SMALL_TYPES + ["E7", "E8"])
def test_search_matches_translation_tracking_oracle(label):
    """The coroot-image walk finds the alcoves of the search that threads
    the translation, field for field; the oracle's coroot coordinates are
    those of sigma(0) / scale, recovered from (x, w).  A3 runs to the
    depth of the `bott` benchmark job, E7 and E8 each to under a second."""
    rs = parse_type(label)
    depth = {"A3": 30, "F4": 6, "E6": 6, "E7": 32, "E8": 44}.get(label, 8)
    oracle = _translation_tracking_bfs(rs, depth)
    elements = enumerate_dominant(rs, depth)
    assert len(elements) == len(oracle)
    for e, o in zip(elements, oracle):
        for name in ("x", "w", "n_vec", "length", "lam", "cas"):
            assert getattr(e, name) == o[name], name
        origin = apply_element(rs, e, (0,) * rs.rank)
        z = tuple(sum(rs.cartan_inv[j][i] * Fraction(origin[j], rs.scale)
                      for j in range(rs.rank)) for i in range(rs.rank))
        assert z == o["z"]


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_reflect_in_wall_matches_the_matrix_form(label):
    """The rank-one reflection equals the full affine map s(y) = M y +
    scale beta^vee, M = I - beta^vee (x) beta, applied as matrices, with
    alpha_j(beta^vee) = 2 (beta, alpha_j) / (beta, beta) from the form."""
    rs = parse_type(label)
    l = rs.rank
    eye = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    for idx, beta in enumerate(rs.positive_roots):
        coroot = tuple(2 * rs.pair(beta, eye[j]) // rs.pair(beta, beta)
                       for j in range(l))
        mat = tuple(tuple(eye[j][k] - coroot[j] * beta[k] for k in range(l))
                    for j in range(l))
        for e in enumerate_dominant(rs, 4):
            x = tuple(sum(map(mul, row, e.x)) + rs.scale * c
                      for row, c in zip(mat, coroot))
            w = tuple(tuple(sum(row[i] * e.w[i][k] for i in range(l))
                            for k in range(l)) for row in mat)
            n_vec = tuple(sum(map(mul, root, x)) // rs.scale
                          for root in rs.positive_roots)
            assert all(v % s == 0 for v, s in zip(x, rs.sym))
            got = reflect_in_wall(rs, e, idx)
            assert (got.x, got.w, got.n_vec) == (x, w, n_vec)
            assert got.length == sum(n_vec)
            assert got.lam == tuple(v // s - 1 for v, s in zip(x, rs.sym))
            assert got.cas == sum(n * (n + 1) // 2 for n in n_vec)


def test_translation_off_the_coroot_lattice_is_refused(monkeypatch):
    import alcoves.alcove as alcove

    real = alcove._integer_inverse
    # Doubling the denominator halves the solved coroot coordinates, so
    # the translation psi^vee = (1, 1) of the length-one alcove is off it.
    monkeypatch.setattr(alcove, "_integer_inverse",
                        lambda rs: (real(rs)[0], 2 * real(rs)[1]))
    rs = parse_type("A2")
    identity, reflected = enumerate_dominant(rs, 1)
    assert two_rho_pairing_killing(rs, identity) == 0
    with pytest.raises(AssertionError, match="not in the coroot lattice"):
        two_rho_pairing_killing(rs, reflected)


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_parity_identity(label):
    rs = parse_type(label)
    for e in enumerate_dominant(rs, 7):
        pairing = two_rho_pairing_killing(rs, e)
        assert e.length + finite_part_length(rs, e) == pairing
        assert pairing % 2 == 0


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_ordering_contract(label):
    rs = parse_type(label)
    elements = enumerate_dominant(rs, 6)
    key = [(e.length, e.n_vec) for e in elements]
    assert key == sorted(key)
    # Deterministic repeat.
    again = enumerate_dominant(rs, 6)
    assert [e.n_vec for e in again] == [e.n_vec for e in elements]


def test_integer_routes_create_no_fraction(count_fractions):
    """The alcove search, the ideal -> alcove reflections, the character,
    the Weyl dimension, the pairing tables, the Euler powers, the k! f_k
    table, the scaled Casimir action and the boundary ranks run on plain
    integers end to end."""
    for label in ["A3", "B2", "G2"]:
        rs = parse_type(label)
        table = build_chevalley(rs, dim_ceiling=rs.dim_g)
        with count_fractions() as created:
            elements = enumerate_dominant.__wrapped__(rs, 6)
            _alcove_by_ideal.__wrapped__(rs)
            for e in elements:
                chi_at_type_rho(rs, e.lam)
                weyl_dimension(rs, e.lam)
            _pairing_tables.__wrapped__(rs)
            euler_power(rs.dim_g, 60)
            _scaled_fk_rows(30)
            for k in range(4):
                dg_ideal_dim(table, k)
            for subset in combinations(range(table.dim), 3):
                _apply_casimir(table, subset)
        assert not created, (label, created[:3])


@pytest.mark.parametrize("label,ceiling", [
    ("A1", 40), ("A2", 24), ("A3", 20), ("A4", 16), ("B2", 24), ("G2", 24),
    ("E8", 30)])
def test_casimir_bounded_walk_keeps_the_alcoves_under_the_ceiling(label, ceiling):
    """The walk that drops alcoves over the Casimir ceiling returns the
    length walk's alcoves with cas at most the ceiling, in its order."""
    rs = parse_type(label)
    expected = tuple(e for e in enumerate_dominant(rs, ceiling)
                     if e.cas <= ceiling)
    assert enumerate_casimir_bounded.__wrapped__(rs, ceiling) == expected


def test_casimir_bounded_walk_on_a4_at_100():
    """A4 to cas 100: 3672 alcoves, where the length walk to 100 builds
    214776."""
    walk = enumerate_casimir_bounded.__wrapped__(parse_type("A4"), 100)
    assert len(walk) == 3672
    assert max(e.cas for e in walk) == 100
    with pytest.raises(ValueError):
        enumerate_casimir_bounded(parse_type("A4"), -1)


def test_wf2_membership():
    rs = parse_type("A1")
    by_len = {e.length: e for e in enumerate_dominant(rs, 3)}
    assert in_wf2(rs, by_len[0]) and in_wf2(rs, by_len[1])
    assert not in_wf2(rs, by_len[2])
    for label, rank in [("A2", 2), ("B3", 3), ("G2", 2)]:
        rs = parse_type(label)
        assert len(enumerate_wf2(rs, 3 * rs.num_positive)) == 2 ** rank


def test_fold_of_base_point_is_trivial():
    for label in ["A2", "B2", "G2"]:
        rs = parse_type(label)
        folded, parity, regular = reduce_to_fundamental(rs, rs.sym)
        assert folded == rs.sym and parity == 1 and regular


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_fold_recovers_length_parity(label):
    rs = parse_type(label)
    for e in enumerate_dominant(rs, 6):
        folded, parity, regular = reduce_to_fundamental(rs, e.x)
        assert folded == rs.sym
        assert regular
        assert parity == (-1) ** e.length


def test_fold_detects_singular_points():
    rs = parse_type("A1")
    # The highest-root wall: psi evaluates to `scale` in point units.
    folded, _parity, regular = reduce_to_fundamental(rs, (rs.scale,))
    assert not regular
    assert folded == (rs.scale,)


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_character_sign_on_alcove_weights(label):
    rs = parse_type(label)
    for e in enumerate_dominant(rs, 8):
        assert chi_at_type_rho(rs, e.lam) == (-1) ** e.length


ROUTE_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4",
               "B5", "C2", "C3", "C4", "C5", "D4", "D5", "D6", "E6", "E7",
               "E8", "F4", "G2"]


def fold_chi(rs, weight):
    """The character at type rho by folding 2 (lambda + rho) into the
    fundamental alcove wall by wall: the parity of the fold when the
    point lands on the base point, 0 otherwise."""
    p = tuple(s * (int(m) + 1) for s, m in zip(rs.sym, weight))
    folded, parity, regular = reduce_to_fundamental(rs, p)
    if regular and folded == rs.sym:
        return parity
    return 0


@pytest.mark.parametrize("label", ROUTE_TYPES)
def test_character_matches_the_fold(label):
    """chi from the values (lambda + rho, phi) equals the fold on every
    weight of a small box, on random weights with coordinates up to 12,
    and on every alcove weight to length 10 (6 at rank >= 6), where both
    are the length parity."""
    rs = parse_type(label)
    rng = random.Random(label)
    box = range(3 if rs.rank <= 4 else 2)
    weights = list(product(box, repeat=rs.rank))
    weights += [tuple(rng.randint(0, 12) for _ in range(rs.rank))
                for _ in range(200)]
    values = [chi_at_type_rho(rs, w) for w in weights]
    assert values == [fold_chi(rs, w) for w in weights]
    assert 0 in values and {1, -1} & set(values)
    for e in enumerate_dominant(rs, 10 if rs.rank < 6 else 6):
        assert chi_at_type_rho(rs, e.lam) == fold_chi(rs, e.lam) == \
            (-1) ** e.length


def test_character_examples():
    a2 = parse_type("A2")
    assert chi_at_type_rho(a2, (0, 0)) == 1
    assert chi_at_type_rho(a2, (1, 1)) == -1          # highest root
    assert chi_at_type_rho(a2, (1, 0)) == 0           # not in the root lattice
    with pytest.raises(ValueError):
        chi_at_type_rho(a2, (-1, 0))


def test_character_vanishes_off_alcove_weights():
    """Exhaustive over dominant weights of A2 with Casimir at most 6."""
    rs = parse_type("A2")
    alcove_weights = {e.lam for e in enumerate_dominant(rs, 6) if e.cas <= 6}
    checked = 0
    for a in range(12):
        for b in range(12):
            if casimir_eigenvalue(rs, (a, b)) > 6:
                continue
            checked += 1
            chi = chi_at_type_rho(rs, (a, b))
            if (a, b) in alcove_weights:
                assert chi in (-1, 1)
            else:
                assert chi == 0
    assert checked > len(alcove_weights)


def test_naive_translation_formula_fails():
    """sigma(rho) - rho differs from the alcove weight in general: the
    affine action is not linear, so the halved formula is the right one.
    Search the first few alcoves for a concrete counterexample."""
    rs = parse_type("A1")
    # A weight lambda sits at the point sym_i * lambda_i / 2.
    rho_point = tuple(Fraction(s, 2) for s in rs.sym)
    mismatches = []
    for e in enumerate_dominant(rs, 4):
        image = apply_element(rs, e, rho_point)
        naive = tuple(2 * v / s - 1 for v, s in zip(image, rs.sym))
        if naive != e.lam:
            mismatches.append((e.length, naive, e.lam))
    assert mismatches, "expected the naive formula to fail somewhere"
    assert mismatches[0][0] <= 2


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_gap_theorems(label):
    rs = parse_type(label)
    for e in enumerate_dominant(rs, rs.h_dual + 3):
        if not in_wf2(rs, e):
            assert e.length >= rs.h_dual
        if e.cas <= rs.h_dual:
            assert in_wf2(rs, e)
            assert e.cas == e.length


def test_ideal_chain_identity():
    rs = parse_type("A2")
    chain = ideal_chain(rs, enumerate_dominant(rs, 0)[0])
    assert len(chain) == 1
    assert chain[0] == frozenset(range(rs.num_positive))


def test_ideal_chain_a1_length_two():
    rs = parse_type("A1")
    e = [e for e in enumerate_dominant(rs, 2) if e.length == 2][0]
    chain = ideal_chain(rs, e)
    assert chain == (frozenset({0}), frozenset({0}), frozenset({0}))
    assert e.lam == (4,)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_ideal_chain_properties(label):
    rs = parse_type(label)
    for e in enumerate_dominant(rs, 6):
        chain = ideal_chain(rs, e)
        assert len(chain) == e.n_vec[rs.highest_root] + 1
        for i, level in enumerate(chain):
            assert is_ideal(rs, level)
            if i:
                assert level <= chain[i - 1]
        if len(chain) > 1:
            assert is_abelian(rs, chain[-1])
        # Level sums reconstruct the weight.
        coords = [0] * rs.rank
        for level in chain[1:]:
            for idx in level:
                for i, c in enumerate(rs.positive_roots[idx]):
                    coords[i] += c
        assert tuple(rs.root_coords_to_weight(coords)) == e.lam


def test_wf2_chain_is_the_matched_ideal():
    rs = parse_type("B2")
    for e in enumerate_wf2(rs, rs.num_positive):
        if e.length == 0:
            continue
        chain = ideal_chain(rs, e)
        assert len(chain) == 2
        assert chain[1] == frozenset(i for i, n in enumerate(e.n_vec) if n == 1)
