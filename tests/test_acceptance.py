"""Acceptance gate: one test per criterion, each printing a PASS line.

Every criterion states its tolerance inline (all are exact equalities)
and asserts the generous wall-clock budget it must fit in.  Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import io
import json
import time
from contextlib import redirect_stdout
from pathlib import Path

from alcoves.alcove import (chi_at_type_rho, enumerate_dominant,
                            finite_part_length, in_wf2,
                            two_rho_pairing_killing)
from alcoves.cli import _signature, main
from alcoves.ideals import enumerate_abelian_ideals
from alcoves.limits import FIELDS, Limits
from alcoves.report import FAIL, PASS, SKIP
from alcoves.rootsystem import (casimir_eigenvalue, heisenberg_count,
                                parse_type, weyl_dimension)
from alcoves.series import RatPoly, euler_power, f_poly, f_poly_direct
from alcoves.suites import MODULES, load, run_suite
from alcoves.typea import count_null_cores, null_core_count_expected, \
    verify_null_core_bijection
from alcoves.wedge import _verify_jacobi, build_chevalley
from fractions import Fraction


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{verdict}] {self.name} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget"
        return False


def _assert_all_pass(report, what):
    assert report.checks, what
    failed = [c.claim for c in report.checks if c.status != PASS]
    assert not failed, (what, failed)


def test_criterion_01_ramanujan_coefficients():
    with Budget("criterion 1: 24th-power coefficients, two routes, k <= 15", 60):
        assert parse_type("A4").dim_g == 24
        # Each coefficient check passes when the series and alcove routes agree.
        report = run_suite("coeffs", "A4", Limits(), kmax=15)
        _assert_all_pass(report, "coeffs A4 --kmax 15")
        witness = {c.claim: c.witness for c in report.checks}
        assert [witness[f"coefficient-{k}"]["alcove"] for k in range(1, 6)] == \
            [-24, 252, -1472, 4830, -6048]
        # Exact expansion settles the misreported fifth value.
        assert witness["a4-coefficient-4-exact-value"] == \
            {"value": 4830, "rejected_misprint": 4870}


def test_criterion_02_power_of_two_count():
    with Budget("criterion 2: abelian-ideal count is 2^rank (rank <= 6)", 300):
        for label in ["A1", "A2", "A3", "A4", "B2", "C2", "B3", "C3",
                      "D4", "G2", "F4", "A5", "D5", "E6"]:
            rs = parse_type(label)
            assert len(enumerate_abelian_ideals(rs)) == 2 ** rs.rank, label


def test_criterion_02_big_types():
    with Budget("criterion 2: E7/E8 ideal counts", 60):
        for label, rank in [("E7", 7), ("E8", 8)]:
            rs = parse_type(label)
            assert len(enumerate_abelian_ideals(rs)) == 2 ** rank


def test_criterion_03_seven_numbers():
    with Budget("criterion 3: five computations agree for k <= h_dual "
                "on A1 A2 B2 G2 A3 C3 B3 A4", 600):
        for label in ["A1", "A2", "B2", "G2", "A3", "C3", "B3", "A4"]:
            report = run_suite("seven-numbers", label, Limits())
            assert len(report.checks) == parse_type(label).h_dual + 2, label
            _assert_all_pass(report, label)


def test_criterion_04_vanishing_coefficients():
    with Budget("criterion 4: vanishing coefficients at the Malcev gap", 60):
        assert euler_power(3, 2)[2] == 0      # A1
        assert euler_power(8, 3)[3] == 0      # A2
        assert euler_power(14, 4)[4] == 0     # G2


def test_criterion_05_coefficient_polynomials():
    with Budget("criterion 5: closed forms of f2 f3 f4; two routes "
                "agree to k = 12", 30):
        half = Fraction(1, 2)
        assert f_poly(2) == RatPoly([0, -3 * half, half])
        assert f_poly(3) == RatPoly([0, Fraction(-8, 6), Fraction(9, 6),
                                     Fraction(-1, 6)])
        assert f_poly(4) == RatPoly([0, Fraction(-42, 24), Fraction(59, 24),
                                     Fraction(-18, 24), Fraction(1, 24)])
        for k in range(13):
            assert f_poly(k) == f_poly_direct(k)


def test_criterion_05_routes_agree_to_max_order():
    with Budget("criterion 5: recurrence and interpolation routes of f_k "
                "agree to k = 128", 60):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify", "--suite", "roots-f234", "--kmax", "128"]) == 0
        checks = {c["claim"]: c["status"]
                  for c in json.loads(out.getvalue())["checks"]}
        assert checks["recurrence-matches-composition-route"] == PASS


def test_criterion_06_loop_space_counts():
    with Budget("criterion 6: alcove counts match the exponent series to "
                "t^12; ideal counts match below h_dual", 300):
        for label in ["A1", "A2", "A3", "B2", "G2", "C3", "D4"]:
            # One check per length 0..12, then one per ideal size below h_dual.
            report = run_suite("bott", label, Limits(), max_length=12)
            assert len(report.checks) == 13, label
            _assert_all_pass(report, label)
            report = run_suite("betti-ideals", label, Limits())
            assert len(report.checks) == parse_type(label).h_dual, label
            _assert_all_pass(report, label)


def test_criterion_07_subset_norm_bound():
    with Budget("criterion 7: exhaustive k-subset norm bound (every k on "
                "A2 B2 G2 A3, k <= 6 on F4)", 120):
        for label in ["A2", "B2", "G2", "A3"]:
            report = run_suite("subset-bound", label, Limits())
            assert len(report.checks) == parse_type(label).num_positive + 1
            _assert_all_pass(report, label)
        report = run_suite("subset-bound", "F4", Limits(), kmax=6)
        assert len(report.checks) == 7
        _assert_all_pass(report, "F4")


def test_criterion_08_root_partition_bound():
    with Budget("criterion 8: root-partition triangular bound, cost <= 6 "
                "(A1 A2 B2) and cost <= 10 (A4)", 120):
        for label, ceiling in [("A1", 6), ("A2", 6), ("B2", 6), ("A4", 10)]:
            report = run_suite("root-partitions", label, Limits(),
                               cas_ceiling=ceiling)
            assert len(report.checks) == 2
            _assert_all_pass(report, label)


def test_criterion_09_character_signs():
    with Budget("criterion 9: character signs on alcove weights (length "
                "<= 8) and zero elsewhere (A2, Casimir <= 6)", 300):
        for label in ["A1", "A2", "A3", "B2", "G2"]:
            rs = parse_type(label)
            for e in enumerate_dominant(rs, 8):
                assert chi_at_type_rho(rs, e.lam) == (-1) ** e.length
        rs = parse_type("A2")
        alcove_weights = {e.lam for e in enumerate_dominant(rs, 6)
                          if e.cas <= 6}
        for a in range(12):
            for b in range(12):
                if casimir_eigenvalue(rs, (a, b)) > 6:
                    continue
                expected = (a, b) in alcove_weights
                chi = chi_at_type_rho(rs, (a, b))
                assert (chi != 0) == expected, (a, b)


def test_criterion_10_bigraded_euler_characteristic():
    with Budget("criterion 10: bigraded alternating sums equal the "
                "coefficients (k <= 12)", 300):
        for label in ["A1", "A2", "G2", "A4"]:
            # An alternating sum for each k <= 12, then a corner bound for
            # each k <= min(12, h_dual).
            report = run_suite("euler-char", label, Limits(), kmax=12)
            assert len(report.checks) == \
                13 + min(12, parse_type(label).h_dual) + 1, label
            _assert_all_pass(report, label)


def test_criterion_11_null_core_suite():
    with Budget("criterion 11: null-core counts and the alcove-weight map", 120):
        for m in (3, 4, 5, 6):
            for k in (0, 1, 2, 3):
                assert count_null_cores(m, k) == \
                    null_core_count_expected(m, k), (m, k)
        for m in (3, 4, 5):
            assert verify_null_core_bijection(m, 6)["ok"], m


def test_criterion_12_structural_properties():
    with Budget("criterion 12: structural invariant sweep", 300):
        rank6 = [f"A{n}" for n in range(1, 7)] + \
                [f"{f}{n}" for f in "BC" for n in range(2, 7)] + \
                [f"D{n}" for n in range(3, 7)] + ["E6", "F4", "G2"]
        for label in rank6:
            rs = parse_type(label)
            assert heisenberg_count(rs) == rs.h_dual - 2, label
        for label in ["A1", "A2", "A3", "B2", "G2", "C3"]:
            rs = parse_type(label)
            for e in enumerate_dominant(rs, 6):
                assert e.cas >= e.length
                assert (e.cas == e.length) == in_wf2(rs, e)
                pairing = two_rho_pairing_killing(rs, e)
                assert e.length + finite_part_length(rs, e) == pairing
                assert pairing % 2 == 0
                assert all(c.denominator == 1 for c in rs.weight_to_root_coords(e.lam))
                assert weyl_dimension(rs, e.lam) >= 1
        for label in ["A1", "A2", "B2", "C2", "G2"]:
            _verify_jacobi(build_chevalley(parse_type(label)))


def test_criterion_13_probe_at_24():
    with Budget("criterion 13: no zero of f_k at 24 for k <= 50", 30):
        report = run_suite("fk", None, Limits(), kmax=50, lehmer=True)
        _assert_all_pass(report, "fk --kmax 50 --lehmer")
        zeros = next(c.witness["zeros"] for c in report.checks
                     if c.claim == "no-zero-at-24")
        assert zeros == [], f"zeros at {zeros} would be extraordinary"


COVERAGE_MAP = Path(__file__).parent / "data" / "coverage.json"
# The 31 types of rank at most 8, without the isomorphic repeats C2 and D3.
COVERAGE_TYPES = ([f"A{n}" for n in range(1, 9)] +
                  [f"B{n}" for n in range(2, 9)] +
                  [f"C{n}" for n in range(3, 9)] +
                  [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"])


def _ceilings(text: str) -> str:
    """The `Limits` fields a refusal or skip names, or its text if none."""
    return ",".join(f for f in FIELDS if f in text) or text


def coverage_outcome(name: str, label: str | None) -> str:
    """`pass`, `refused: <field>` or `skipped: <count> <field>` for one
    command at its defaults and the default `Limits`."""
    try:
        report = run_suite(name, label, Limits())
    except ValueError as exc:
        return "refused: " + _ceilings(str(exc))
    failed = [c.claim for c in report.checks if c.status == FAIL]
    if failed:
        return "failed: " + ", ".join(failed)
    skipped = [c.detail for c in report.checks if c.status == SKIP]
    if skipped:
        return f"skipped: {len(skipped)} " + _ceilings(" ".join(skipped))
    return PASS


def coverage_map() -> dict:
    """Command -> type label -> outcome, over every command: those that
    take --type on each of `COVERAGE_TYPES`, the others once under the
    label "", as their reports name them."""
    return {name: {label or "": coverage_outcome(name, label)
                   for label in (COVERAGE_TYPES
                                 if "rs" in _signature(load(name))[0]
                                 else [None])}
            for name in sorted(MODULES)}


def test_coverage_map_is_unchanged():
    """A change that lifts a refusal or a skip, or adds one, shows up as an
    edit of `tests/data/coverage.json`; rewrite it with
    `PYTHONPATH=src python tests/test_acceptance.py`.  Measured at 62-64 s
    on a shared 2-vCPU VM: about 12 s of it `seven-numbers`, whose refusals
    at `wedge_matrix` take up to 3 s each (E8), and most of the rest
    `subset-bound`."""
    with Budget("coverage map: every command on every type of rank <= 8 "
                "at the default limits", 240):
        expected = json.loads(COVERAGE_MAP.read_text(encoding="utf-8"))
        found = coverage_map()
        # (command, type, committed, found) for each entry that moved
        moved = [(name, label, expected.get(name, {}).get(label), got)
                 for name, row in found.items() for label, got in row.items()
                 if expected.get(name, {}).get(label) != got]
        assert found == expected, moved


if __name__ == "__main__":
    COVERAGE_MAP.write_text(json.dumps(coverage_map(), indent=2,
                                       sort_keys=True) + "\n", encoding="utf-8")
