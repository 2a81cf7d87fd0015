"""Command-line driver: output determinism, exit codes, wire format."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alcoves.cli import main
from alcoves.limits import Limits, load_limits
from alcoves.suites import SUITES, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_a4_both_methods(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--type", "A4", "--kmax", "6",
                           "--method", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    values = {c["claim"]: c["witness"] for c in doc["checks"]
              if c["claim"].startswith("coefficient-")}
    assert values["coefficient-1"]["series"] == "-24"
    assert values["coefficient-4"]["series"] == "4830"
    assert values["coefficient-5"]["alcove"] == "-6048"
    flagged = [c for c in doc["checks"]
               if c["claim"] == "a4-coefficient-4-exact-value"]
    assert flagged and flagged[0]["status"] == "pass"


def test_coeffs_trivial(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--type", "A1", "--kmax", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["witness"]["series"] == "1"


def test_coeffs_g2_vanishing(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--type", "G2", "--kmax", "4")
    doc = json.loads(out)
    assert code == 0
    values = {c["claim"]: c["witness"] for c in doc["checks"]}
    assert values["coefficient-4"]["series"] == "0"


def test_byte_identical_output(capsys):
    args = ("verify", "--suite", "seven-numbers", "--type", "A2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first.endswith("\n")
    assert "\r" not in first


def arguments(fn) -> tuple:
    return fn.__code__.co_varnames[:fn.__code__.co_argcount]


TYPED_SUITES = sorted(name for name, fn in SUITES.items() if "rs" in arguments(fn))


@given(suite=st.sampled_from(TYPED_SUITES),
       label=st.sampled_from(["A1", "A2", "B2", "G2", "A3"]))
def test_canonical_report_is_deterministic(suite, label):
    first = run_suite(suite, label, Limits()).canonical()
    assert run_suite(suite, label, Limits()).canonical() == first


def test_alcoves_listing(capsys):
    code, out, _ = run_cli(capsys, "alcoves", "--type", "A2",
                           "--max-length", "3")
    assert code == 0
    doc = json.loads(out)
    rows = [c for c in doc["checks"] if c["claim"].startswith("alcove-")]
    assert len(rows) == 6  # 1 + 1 + 2 + 2
    assert rows[0]["witness"]["length"] == "0"


def test_alcoves_wf2_filter(capsys):
    code, out, _ = run_cli(capsys, "alcoves", "--type", "A2",
                           "--max-length", "6", "--wf2-only")
    doc = json.loads(out)
    rows = [c for c in doc["checks"] if c["claim"].startswith("alcove-")]
    assert len(rows) == 4
    assert code == 0


def test_ideals_listing(capsys):
    code, out, _ = run_cli(capsys, "ideals", "--type", "B2")
    assert code == 0
    doc = json.loads(out)
    count = [c for c in doc["checks"] if c["claim"] == "count-is-2^rank"]
    assert count[0]["witness"]["count"] == "4"


def test_fk_with_eval_and_lehmer(capsys):
    code, out, _ = run_cli(capsys, "fk", "--kmax", "6", "--eval", "24",
                           "--lehmer")
    assert code == 0
    doc = json.loads(out)
    byclaim = {c["claim"]: c for c in doc["checks"]}
    assert byclaim["f2"]["witness"]["value"] == "252"
    assert byclaim["no-zero-at-24"]["status"] == "pass"


def test_mcore_command(capsys):
    code, out, _ = run_cli(capsys, "mcore", "--m", "3", "--kmax", "2",
                           "--max-length", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


# The flags of each listing command, from its function's signature.
LISTING_OPTIONS = {
    "coeffs": ("--type", "--kmax", "--method"),
    "alcoves": ("--type", "--max-length", "--wf2-only"),
    "ideals": ("--type",),
    "fk": ("--kmax", "--eval", "--lehmer"),
}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--help"],
                                  ["coeffs", "--type", "A2", "-h"]],
                         ids=["h", "help", "verify-help", "coeffs-h"])
def test_help_lists_every_command_suite_and_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()

    def line_of(name, indent):
        found = [line for line in lines
                 if line.startswith(indent + name + " ") or line == indent + name]
        assert len(found) == 1, (name, found)
        return found[0] + " "

    for command in ("coeffs", "alcoves", "ideals", "fk", "mcore", "verify"):
        line_of(command, "  ")
    for name, flags in [*LISTING_OPTIONS.items(), *SUITE_OPTIONS.items()]:
        line = line_of(name, "  " if name in LISTING_OPTIONS else "    ")
        for flag in flags:
            assert re.search(re.escape(flag) + r"[ =\]]", line), (name, flag)
    assert "--summary" in out and "--allow-big" in out


@pytest.mark.parametrize("spaced,joined", [
    (["verify", "--suite", "roots-f234", "--kmax", "12"],
     ["verify", "--suite=roots-f234", "--kmax=12"]),
    (["coeffs", "--type", "A2", "--kmax", "3", "--method", "series"],
     ["coeffs", "--type=A2", "--kmax=3", "--method=series"]),
])
def test_name_equals_value_is_name_space_value(capsys, spaced, joined):
    first = run_cli(capsys, *spaced)
    assert first[0] == 0
    assert run_cli(capsys, *joined) == first


# Each row: a command line with a usage error, and the words its one
# error line must hold.
USAGE_ERRORS = [
    pytest.param([], ["no command", "coeffs"], id="no-command"),
    pytest.param(["frobnicate", "--type", "A2"],
                 ["unknown command 'frobnicate'", "verify"], id="unknown-command"),
    pytest.param(["coeffs", "--type", "A2", "--frob", "1"],
                 ["does not take --frob", "--kmax"], id="unknown-flag"),
    pytest.param(["coeffs", "--type", "A2", "--kmax"], ["--kmax needs a value"],
                 id="flag-without-value"),
    pytest.param(["coeffs", "--kmax", "--type", "A2"], ["--kmax needs a value"],
                 id="flag-followed-by-flag"),
    pytest.param(["coeffs", "--type", "A2", "--kmax", "x"],
                 ["--kmax takes an integer, not 'x'"], id="kmax-not-an-integer"),
    pytest.param(["coeffs", "--type", "A2", "--method", "foo"],
                 ["--method foo is not one of series, alcove, both"],
                 id="method-not-a-choice"),
    pytest.param(["verify", "--suite", "nonsense"],
                 ["--suite nonsense is not a suite", "peterson"], id="unknown-suite"),
    pytest.param(["verify", "--type", "A2"], ["--suite", "peterson"],
                 id="verify-without-suite"),
    pytest.param(["alcoves", "--type", "A2", "--wf2-only=yes"],
                 ["--wf2-only takes no value"], id="switch-with-value"),
    pytest.param(["ideals", "--type", "A2", "B2"], ["unexpected argument 'B2'"],
                 id="stray-argument"),
    pytest.param(["alcoves", "--type", "A2", "--max", "3"],
                 ["does not take --max;", "--max-length"], id="no-prefix-abbreviation"),
    pytest.param(["coeffs", "--type", "A4", "--type", "B2"],
                 ["--type is given more than once"], id="type-twice"),
    pytest.param(["verify", "--suite", "peterson", "--suite", "bott",
                  "--type", "A2"], ["--suite is given more than once"],
                 id="suite-twice"),
    pytest.param(["coeffs", "--type", "A2", "--kmax", "3", "--kmax=4"],
                 ["--kmax is given more than once"], id="kmax-twice"),
]


@pytest.mark.parametrize("argv,words", USAGE_ERRORS)
def test_usage_errors_exit_two_with_one_line(capsys, argv, words):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err, (word, err)


def test_verify_missing_type_is_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "peterson")
    assert code == 2
    assert "type" in err


def test_scale_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--type", "A2", "--kmax", "9999")
    assert code == 2
    assert "ceiling" in err


# Each row: argv, ALCOVES_LIMITS file ("missing" for an absent one, a JSON
# value to write to one, or None), and the words the error must contain:
# the argument and its limit, or the file and what is wrong in it.
SIZE_ERRORS = [
    pytest.param(["fk", "--kmax", "-2"], None, ["--kmax -2", "minimum 0"],
                 id="fk-negative-kmax"),
    pytest.param(["verify", "--suite", "subset-bound", "--type", "B2",
                  "--kmax", "-1"], None, ["--kmax -1", "minimum 0"],
                 id="subset-bound-negative-kmax"),
    pytest.param(["verify", "--suite", "root-partitions", "--type", "A2",
                  "--cas-ceiling", "-1"], None,
                 ["--cas-ceiling -1", "minimum 0"],
                 id="root-partitions-negative-cas-ceiling"),
    pytest.param(["mcore", "--m", "1"], None, ["--m 1", "minimum 2"],
                 id="mcore-m-below-two"),
    pytest.param(["verify", "--suite", "bott", "--type", "A2",
                  "--max-length", "1000"], None,
                 ["--max-length 1000", "max_length ceiling 64"],
                 id="bott-max-length-unbounded"),
    pytest.param(["verify", "--suite", "sign", "--type", "A2",
                  "--cas-ceiling", "100000"], None,
                 ["--cas-ceiling 100000", "max_length ceiling 64"],
                 id="sign-cas-ceiling-unbounded"),
    pytest.param(["fk", "--kmax", "0", "--lehmer"], None,
                 ["--kmax 0", "minimum 1"], id="fk-lehmer-kmax-zero"),
    pytest.param(["verify", "--suite", "roots-f234", "--kmax", "129"], None,
                 ["--kmax 129", "max_order ceiling 128"],
                 id="roots-f234-kmax-over-max-order"),
    # A default over its ceiling says so: no --max-length was given.
    pytest.param(["verify", "--suite", "bott", "--type", "A2"],
                 {"max_length": 5},
                 ["--max-length 12 (the default) exceeds the max_length ceiling 5"],
                 id="bott-default-max-length-over-ceiling"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"], "missing",
                 ["ALCOVES_LIMITS", "missing.json"],
                 id="missing-limits-file"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A40"], None,
                 ["--type A40", "rank 40", "max_rank ceiling 8"],
                 id="peterson-rank-unbounded"),
    pytest.param(["ideals", "--type", "D9"], None,
                 ["--type D9", "rank 9", "max_rank ceiling 8"],
                 id="ideals-rank-unbounded"),
    # --allow-big leaves max_rank as it is: A9 has 2^9 abelian ideals.
    pytest.param(["ideals", "--type", "A9", "--allow-big"], None,
                 ["--type A9", "rank 9", "max_rank ceiling 8"],
                 id="ideals-allow-big-keeps-max-rank"),
    pytest.param(["mcore", "--m", "40"], None,
                 ["--m 40", "rank 39", "max_rank ceiling 8"],
                 id="mcore-m-rank-unbounded"),
    pytest.param(["verify", "--suite", "mcore", "--m", "10"], None,
                 ["--m 10", "rank 9", "max_rank ceiling 8"],
                 id="verify-mcore-m-rank-unbounded"),
    # D4's dominant blocks pass the default wedge_matrix at degree 5.
    pytest.param(["verify", "--suite", "seven-numbers", "--type", "D4"], None,
                 ["degree 5", "dominant-block rows", "wedge_matrix ceiling 3432"],
                 id="seven-numbers-d4-over-wedge-matrix"),
    # G2's dominant blocks hold 184 rows at wedge degree 4.
    pytest.param(["verify", "--suite", "seven-numbers", "--type", "G2"],
                 {"wedge_matrix": 100},
                 ["degree 4", "dominant-block rows", "wedge_matrix ceiling 100"],
                 id="seven-numbers-over-wedge-matrix"),
    # A2 has 26 positive-root partitions of triangular cost <= 6.
    pytest.param(["verify", "--suite", "root-partitions", "--type", "A2",
                  "--cas-ceiling", "6"], {"max_candidates": 3},
                 ["partitions exceed", "max_candidates ceiling 3"],
                 id="root-partitions-over-partition-candidates"),
    # A2 has 28 dominant weights with Casimir eigenvalue at most 6.
    pytest.param(["verify", "--suite", "sign", "--type", "A2",
                  "--cas-ceiling", "6"], {"max_candidates": 27},
                 ["dominant weights of Casimir <= 6",
                  "max_candidates ceiling 27"],
                 id="sign-over-partition-candidates"),
    # Size 9, the largest, has five partitions with at most two parts.
    pytest.param(["mcore", "--m", "3", "--kmax", "3"],
                 {"max_candidates": 2},
                 ["partition enumeration", "max_candidates ceiling 2"],
                 id="mcore-over-partition-candidates"),
    # Sizes 0 and 3 pass; the coverage total at size 6 has four candidates.
    pytest.param(["mcore", "--m", "3", "--kmax", "1", "--max-length", "6"],
                 {"max_candidates": 3},
                 ["partition enumeration", "max_candidates ceiling 3"],
                 id="mcore-coverage-over-partition-candidates"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"],
                 {"max_length": 2.9},
                 ["limits.json", "'max_length'", "non-negative integer"],
                 id="limits-file-fractional-value"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"],
                 {"max_order": True},
                 ["limits.json", "'max_order'", "non-negative integer"],
                 id="limits-file-boolean-value"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"],
                 {"wedge_matrix": -3},
                 ["limits.json", "'wedge_matrix'", "non-negative integer"],
                 id="limits-file-negative-value"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"],
                 [["max_length", 3]],
                 ["limits.json", "holds a list", "JSON object"],
                 id="limits-file-not-an-object"),
    # A name that is not a field of `Limits` is refused.
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"],
                 {"subset_candidates": 1}, ["limits.json", "unknown limit fields"],
                 id="limits-file-old-subset-field"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"],
                 {"partition_candidates": 1}, ["limits.json", "unknown limit fields"],
                 id="limits-file-old-partition-field"),
]


@pytest.mark.parametrize("argv,limits_file,words", SIZE_ERRORS)
def test_size_errors_exit_two_naming_the_limit(capsys, monkeypatch, tmp_path,
                                               argv, limits_file, words):
    if limits_file == "missing":
        monkeypatch.setenv("ALCOVES_LIMITS", str(tmp_path / "missing.json"))
    elif limits_file is not None:
        path = tmp_path / "limits.json"
        path.write_text(json.dumps(limits_file))
        monkeypatch.setenv("ALCOVES_LIMITS", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    for word in words:
        assert word in err, (word, err)


def test_every_limits_field_has_a_size_error():
    """Each ceiling is named, as `<field> ceiling`, by at least one exit-2
    case of `SIZE_ERRORS`, so a ceiling that no refusal tests fails here."""
    from alcoves.limits import FIELDS

    words = {word for case in SIZE_ERRORS for word in case.values[2]}
    for field in FIELDS:
        assert any(f"{field} ceiling" in word for word in words), field


def test_sign_scan_on_a8_at_64_exits_two_before_any_walk(capsys, monkeypatch):
    """A8 has about 20M dominant weights with Casimir eigenvalue at most
    64.  At the default limits the streamed scan stops at the 2M of
    `max_candidates` (about 2 s and 15 MiB peak RSS as a fresh process on
    a 2-vCPU VM) and refuses before any alcove walk starts."""
    import alcoves.alcove as alcove

    def walk(*args):
        raise AssertionError("the alcove walk ran before the weight scan")

    monkeypatch.delenv("ALCOVES_LIMITS", raising=False)
    monkeypatch.setattr(alcove, "enumerate_dominant", walk)
    monkeypatch.setattr(alcove, "enumerate_casimir_bounded", walk)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "sign", "--type",
                             "A8", "--cas-ceiling", "64")
    assert time.perf_counter() - start < 20
    assert (code, out) == (2, "")
    assert f"max_candidates ceiling {Limits.max_candidates}" in err


def test_every_range_ceiling_is_a_limits_field():
    """Every integer argument of every command has a range in `_ranges`,
    under every `--method` and with or without `--lehmer`, and each
    maximum it can set is a field of `Limits`, so no scale ceiling lives
    outside it."""
    from alcoves.cli import _ranges
    from alcoves.limits import FIELDS

    assert len(SUITES) == 19
    # `--eval` is the point f_k is evaluated at, not a size.
    sizes = {a for fn in SUITES.values() for a in arguments(fn)
             if fn.__annotations__[a] in ("int", "int | None")} - {"eval"}
    for method in ("series", "alcove", "both"):
        for lehmer in (False, True):
            ranges = _ranges({"method": method, "lehmer": lehmer}, Limits())
            assert set(ranges) == sizes
            ceilings = {ceiling for _, _, ceiling in ranges.values() if ceiling}
            assert ceilings <= set(FIELDS), (method, lehmer, ceilings)


# Each command, run with its defaults (and --type A2) under a
# lowered max_length and max_order: the field its default is over, or
# None where every default fits.  gap's default, h_dual + 3 = 6 on A2, is
# worked out from the type.
LOWERED = {"max_length": 5, "max_order": 4}
DEFAULT_OVER = {
    "coeffs": "max_order", "alcoves": "max_length", "ideals": None,
    "fk": "max_order", "peterson": None, "seven-numbers": None,
    "bott": "max_length", "betti-ideals": None, "subset-bound": None,
    "root-partitions": "max_length", "ideal-chains": "max_length",
    "parity": "max_length", "gap": "max_length", "euler-char": "max_order",
    "roots-f234": "max_order", "interpolation": None, "mcore": "max_length",
    "sign": "max_length", "bijection": None,
}


@pytest.mark.parametrize("name,field", sorted(DEFAULT_OVER.items()))
def test_defaults_are_checked_against_the_limits(capsys, monkeypatch, tmp_path,
                                                 name, field):
    assert set(DEFAULT_OVER) == set(SUITES)
    path = tmp_path / "limits.json"
    path.write_text(json.dumps(LOWERED))
    monkeypatch.setenv("ALCOVES_LIMITS", str(path))
    argv = ["verify", "--suite", name]
    if "rs" in arguments(SUITES[name]):
        argv += ["--type", "A2"]
    if field is not None:
        def no_work(*args):
            raise AssertionError(f"work started: {args}")

        # gap needs the root system for its default, and nothing more.
        monkeypatch.setattr("alcoves.alcove.enumerate_dominant" if name == "gap"
                            else "alcoves.rootsystem.parse_type", no_work)
    code, out, err = run_cli(capsys, *argv)
    if field is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert f"{field} ceiling {LOWERED[field]}" in err, err


def test_run_suite_binds_like_the_command_line():
    with pytest.raises(ValueError, match=r"--max-length 6 \(the default\) "
                                         "exceeds the max_length ceiling 5"):
        run_suite("gap", "A2", Limits(max_length=5))
    with pytest.raises(ValueError, match="--max-length 7 exceeds the "
                                         "max_length ceiling 5"):
        run_suite("gap", "A2", Limits(max_length=5), max_length=7)
    with pytest.raises(ValueError, match="suite 'peterson' does not take --kmax"):
        run_suite("peterson", "A2", Limits(), kmax=3)


# The flags each command takes: one per argument its function names, with
# `rs` as --type and `limits` and `rep` not flags.
SUITE_OPTIONS = {
    **LISTING_OPTIONS,
    "peterson": ("--type",),
    "seven-numbers": ("--type",),
    "bott": ("--type", "--max-length"),
    "betti-ideals": ("--type",),
    "subset-bound": ("--type", "--kmax"),
    "root-partitions": ("--type", "--cas-ceiling"),
    "ideal-chains": ("--type", "--max-length"),
    "parity": ("--type", "--max-length"),
    "gap": ("--type", "--max-length"),
    "euler-char": ("--type", "--kmax"),
    "roots-f234": ("--kmax",),
    "interpolation": (),
    "mcore": ("--m", "--kmax", "--max-length"),
    "sign": ("--type", "--max-length", "--cas-ceiling"),
    "bijection": ("--type",),
}
# A value in range and one out of range for each flag of `verify`.
FLAG_VALUES = {"--type": ("A2", "A40"), "--max-length": ("2", "1000"),
               "--kmax": ("2", "9999"), "--cas-ceiling": ("2", "-1"),
               "--m": ("3", "1")}
UNTAKEN = [(suite, flag) for suite, flags in SUITE_OPTIONS.items()
           for flag in FLAG_VALUES if flag not in flags]


def test_suite_options_are_the_suite_signatures():
    flags = {name: tuple("--type" if a == "rs" else "--" + a.replace("_", "-")
                         for a in arguments(fn) if a not in ("limits", "rep"))
             for name, fn in SUITES.items()}
    assert flags == SUITE_OPTIONS
    assert sum(map(len, SUITE_OPTIONS.values())) == 35
    assert len(UNTAKEN) == 64
    assert sorted(name for name, fn in SUITES.items()
                  if "limits" in arguments(fn)) == \
        ["mcore", "root-partitions", "seven-numbers", "sign", "subset-bound"]


# The defaults that are worked out from A2: h_dual + 3, and the number of
# positive roots, to which subset-bound clamps its --kmax.
DERIVED_ON_A2 = {("gap", "max_length"): 6, ("subset-bound", "kmax"): 3}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_binder_writes_every_header(name):
    """Each command's report is headed by its name, the type label and
    one param per option its function names, None written as ""."""
    fn = SUITES[name]
    typed = "rs" in arguments(fn)
    rep = run_suite(name, "A2" if typed else None, Limits())
    assert (rep.suite, rep.type_label) == (name, "A2" if typed else "")
    assert set(rep.params) == set(arguments(fn)) - {"rs", "limits", "rep"}
    defaults = dict(zip(reversed(arguments(fn)), reversed(fn.__defaults__ or ())))
    assert rep.params == {a: DERIVED_ON_A2.get((name, a), "" if d is None else d)
                          for a, d in defaults.items()}


@pytest.mark.parametrize("in_range", [True, False], ids=["in-range", "out-of-range"])
@pytest.mark.parametrize("suite,flag", UNTAKEN)
def test_untaken_option_exits_two_before_any_work(capsys, monkeypatch, suite,
                                                  flag, in_range):
    def no_root_system(label):
        raise AssertionError(f"root system {label} built")

    monkeypatch.setattr("alcoves.rootsystem.parse_type", no_root_system)
    typed = "--type" in SUITE_OPTIONS[suite]
    value = FLAG_VALUES[flag][0 if in_range else 1]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value,
                             *(["--type", "A2"] if typed else []))
    assert (code, out) == (2, "")
    assert f"suite {suite!r} does not take {flag};" in err, err


@pytest.mark.parametrize("flags", [(), ("--m", "3"), ("--m", "2", "--kmax", "2"),
                                   ("--kmax", "2", "--max-length", "4")])
def test_mcore_is_verify_suite_mcore_with_or_without_m(capsys, flags):
    direct = run_cli(capsys, "mcore", *flags)
    assert direct[0] == 0
    assert run_cli(capsys, "verify", "--suite", "mcore", *flags) == direct


def test_mcore_command_is_the_mcore_suite(capsys):
    flags = ("--m", "4", "--kmax", "4", "--max-length", "10")
    direct = run_cli(capsys, "mcore", *flags)
    assert direct[0] == 0
    assert run_cli(capsys, "verify", "--suite", "mcore", *flags) == direct


def test_seven_numbers_ignores_max_candidates(capsys, monkeypatch, tmp_path):
    # The wedge blocks come from a pruned walk, not a C(dim g, k) sweep,
    # so the candidate ceiling does not bound them.
    code, expected, _ = run_cli(capsys, "verify", "--suite", "seven-numbers",
                                "--type", "G2")
    path = tmp_path / "limits.json"
    path.write_text(json.dumps({"max_candidates": 1}))
    monkeypatch.setenv("ALCOVES_LIMITS", str(path))
    assert run_cli(capsys, "verify", "--suite", "seven-numbers",
                   "--type", "G2") == (0, expected, "")


def test_mcore_refuses_before_any_core(capsys, monkeypatch):
    import alcoves.typea

    def no_core(*args, **kwargs):
        raise AssertionError("an m-core was taken")

    monkeypatch.setattr(alcoves.typea, "m_core", no_core)
    # Size 270 has 805240304 partitions with at most eight parts.
    code, out, err = run_cli(capsys, "mcore", "--m", "9", "--kmax", "30")
    assert (code, out) == (2, "")
    assert "805240304 partitions" in err
    assert "max_candidates ceiling 2000000" in err


def test_skipped_degree_names_the_limit(capsys, monkeypatch, tmp_path):
    # B2 has C(4, 2) = 6 subsets of two positive roots.
    path = tmp_path / "limits.json"
    path.write_text(json.dumps({"max_candidates": 5}))
    monkeypatch.setenv("ALCOVES_LIMITS", str(path))
    code, out, _ = run_cli(capsys, "verify", "--suite", "subset-bound",
                           "--type", "B2", "--kmax", "2")
    assert code == 0
    checks = {c["claim"]: c for c in json.loads(out)["checks"]}
    assert checks["subset-bound-k1"]["status"] == "pass"
    assert checks["subset-bound-k2"]["status"] == "skipped"
    assert checks["subset-bound-k2"]["detail"] == \
        "6 subsets exceed the max_candidates ceiling 5"


def test_every_check_skipped_exits_two(capsys, monkeypatch, tmp_path):
    # B2 has at least one subset of positive roots in every degree.
    path = tmp_path / "limits.json"
    path.write_text(json.dumps({"max_candidates": 0}))
    monkeypatch.setenv("ALCOVES_LIMITS", str(path))
    code, out, err = run_cli(capsys, "verify", "--suite", "subset-bound",
                             "--type", "B2")
    assert code == 2
    doc = json.loads(out)
    assert doc["overall"] == "skipped"
    assert {c["status"] for c in doc["checks"]} == {"skipped"}
    assert err == ("error: no check ran: 1 subsets exceed the "
                   "max_candidates ceiling 0\n")


# Strings that JSON escapes, or keeps although a stricter writer would not.
AWKWARD = ['say "hi"', "back\\slash", "".join(map(chr, range(0x20))),
           "\x7f", "\u2028\u2029", "Casimir \u2264 h\u2228, \u00e9\u00df \U0001d53c", ""]


def as_json(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def test_canonical_is_the_json_of_the_report():
    from alcoves.report import Report

    empty = Report(suite="")
    assert empty.canonical() == as_json(empty)
    rep = Report(suite="demo\n", type_label="A2\t", params={})
    rep.add("no-witness", True)
    rep.add("empty-witness", False, {}, detail="")
    rep.skip("skipped", detail="over a ceiling")
    rep.add("nested", True, {"rows": [[1, 2], [3, [4, 5]]], "pair": (0, -1),
                             "empty": [], "big": 10 ** 40})
    for i, text in enumerate(AWKWARD):
        rep.add(text, i % 2 == 0, {text: text, "k": i}, detail=text)
    assert rep.canonical() == as_json(rep)
    with_params = Report(suite="s", params={text: [text] for text in AWKWARD})
    assert with_params.canonical() == as_json(with_params)
    assert "\\u001f" in rep.canonical() and "\u2028" in rep.canonical()


@given(texts=st.lists(st.text(), min_size=1, max_size=4),
       statuses=st.lists(st.booleans(), max_size=3))
def test_canonical_matches_json_on_any_text(texts, statuses):
    from alcoves.report import Report

    rep = Report(suite=texts[0], type_label=texts[-1],
                 params={t: t for t in texts})
    for ok in statuses:
        rep.add(texts[0], ok, {t: [t, texts] for t in texts}, detail=texts[-1])
    assert rep.canonical() == as_json(rep)


def test_report_exit_code_reads_passes_skips_and_failures():
    from alcoves.report import Report

    rep = Report(suite="demo")
    assert (rep.overall, rep.exit_code()) == ("pass", 0)
    rep.skip("skipped-claim", detail="over a ceiling")
    assert (rep.overall, rep.exit_code()) == ("skipped", 2)
    rep.add("passed-claim", True)
    assert (rep.overall, rep.exit_code()) == ("pass", 0)
    rep.add("failed-claim", False)
    assert (rep.overall, rep.exit_code()) == ("fail", 1)


# Each row: the module attribute replaced by a function that fails an
# internal invariant check, and the command that reaches it.  Commands
# import what they use when they run, so the defining module is patched.
INTERNAL_ERRORS = [
    pytest.param("alcoves.series.euler_power",
                 ["coeffs", "--type", "A2", "--kmax", "3", "--method", "series"],
                 id="series-divisibility"),
    pytest.param("alcoves.wedge.build_chevalley",
                 ["verify", "--suite", "seven-numbers", "--type", "A1"],
                 id="chevalley-jacobi"),
]


@pytest.mark.parametrize("target,argv", INTERNAL_ERRORS)
def test_internal_errors_exit_three(capsys, monkeypatch, target, argv):
    def broken(*args, **kwargs):
        raise AssertionError("invariant broken on purpose")

    monkeypatch.setattr(target, broken)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "internal error: invariant broken on purpose\n"


def test_degenerate_killing_form_exits_three(capsys, monkeypatch):
    import alcoves.wedge as wedge

    def singular(mat):
        raise AssertionError("matrix is not positive definite")

    monkeypatch.setattr(wedge, "_cleared_inverse", singular)
    # Build afresh: the cached table of A1 was verified with the real inverse.
    monkeypatch.setattr(wedge, "build_chevalley", wedge.build_chevalley.__wrapped__)
    code, out, err = run_cli(capsys, "verify", "--suite", "seven-numbers",
                             "--type", "A1")
    assert code == 3
    assert out == ""
    assert err == "internal error: Killing form is degenerate\n"


def test_casimir_off_the_identity_exits_three(capsys, monkeypatch):
    import alcoves.wedge as wedge

    real = wedge._killing_dual

    def doubled(brackets, m, l):  # twice D / K_alpha of the first root
        root_dual, coroot_dual, den = real(brackets, m, l)
        return (2 * root_dual[0], *root_dual[1:]), coroot_dual, den

    monkeypatch.setattr(wedge, "_killing_dual", doubled)
    monkeypatch.setattr(wedge, "build_chevalley", wedge.build_chevalley.__wrapped__)
    code, out, err = run_cli(capsys, "verify", "--suite", "seven-numbers",
                             "--type", "A2")
    assert (code, out) == (3, "")
    assert err == "internal error: Casimir does not act as the identity on the algebra\n"


def test_translation_off_the_coroot_lattice_exits_three(capsys, monkeypatch):
    import alcoves.alcove as alcove

    real = alcove._integer_inverse
    # Doubling the denominator halves the solved coroot coordinates.
    monkeypatch.setattr(alcove, "_integer_inverse",
                        lambda rs: (real(rs)[0], 2 * real(rs)[1]))
    code, out, err = run_cli(capsys, "verify", "--suite", "parity",
                             "--type", "A2")
    assert (code, out) == (3, "")
    assert err == "internal error: translation part is not in the coroot lattice\n"


def test_summary_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "peterson",
                           "--type", "A2", "--summary")
    assert code == 0
    assert "overall: pass" in out
    assert not out.lstrip().startswith("{")


def test_exit_code_one_on_failure(capsys, monkeypatch):
    # Sabotage one suite to confirm the failure path propagates.  The
    # command line reads the suite from its layer's module, and the binder
    # writes the header of the report it is given.
    def broken(rep, rs):
        rep.add("forced-failure", False)
        return rep

    monkeypatch.setattr("alcoves.suites.ideals.suite_peterson", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "peterson",
                           "--type", "A1")
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


def test_heisenberg_count_is_a_claim(capsys, monkeypatch):
    # A wrong count fails the peterson claim (exit 1); it is not an
    # internal error (exit 3).
    monkeypatch.setattr("alcoves.rootsystem.heisenberg_count", lambda rs: 7)
    code, out, _ = run_cli(capsys, "verify", "--suite", "peterson",
                           "--type", "A3")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if c["status"] != "pass"]
    assert [(c["claim"], c["witness"]) for c in failed] == [
        ("heisenberg-count-is-h-dual-minus-2", {"count": "7", "expected": "2"})]


def test_all_suites_pass(capsys):
    cases = [
        ("peterson", ["--type", "B3"]),
        ("seven-numbers", ["--type", "A1"]),
        ("bott", ["--type", "C3", "--max-length", "8"]),
        ("betti-ideals", ["--type", "D4"]),
        ("subset-bound", ["--type", "B2"]),
        ("root-partitions", ["--type", "A2"]),
        ("ideal-chains", ["--type", "B2"]),
        ("parity", ["--type", "B2"]),
        ("gap", ["--type", "A2"]),
        ("euler-char", ["--type", "A2", "--kmax", "8"]),
        ("roots-f234", ["--kmax", "8"]),
        ("interpolation", []),
        ("mcore", ["--m", "4", "--kmax", "2"]),
        ("sign", ["--type", "B2", "--max-length", "6"]),
        ("bijection", ["--type", "F4"]),
    ]
    for suite, extra in cases:
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, *extra)
        assert code == 0, (suite, out)
        assert json.loads(out)["overall"] == "pass"


GOLDEN = [
    ("seven_numbers_A2.json", ["verify", "--suite", "seven-numbers",
                               "--type", "A2"]),
    ("coeffs_A4_k6.json", ["coeffs", "--type", "A4", "--kmax", "6",
                           "--method", "both"]),
    ("mcore_m3.json", ["verify", "--suite", "mcore", "--m", "3",
                       "--kmax", "3", "--max-length", "6"]),
    # The mcore command's defaults are the suite's own.
    ("mcore_m3.json", ["mcore", "--m", "3"]),
]


@pytest.mark.parametrize("filename,argv", GOLDEN)
def test_golden_documents(capsys, filename, argv):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / filename
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == golden.read_text()


def test_limits_loading(tmp_path, monkeypatch):
    assert vars(load_limits()) == {}
    config = tmp_path / "limits.json"
    config.write_text('{"max_length": 10}')
    monkeypatch.setenv("ALCOVES_LIMITS", str(config))
    assert load_limits().max_length == 10
    assert vars(load_limits()) == {"max_length": 10}
    config.write_text('{"bogus": 1}')
    with pytest.raises(ValueError, match="unknown limit fields"):
        load_limits()


def test_limits_defaults_are_class_attributes():
    assert Limits.max_length == Limits().max_length == 64
    assert Limits(max_length=10).max_order == Limits.max_order
    big = Limits(max_rank=3).embiggen()
    assert (big.max_rank, big.wedge_matrix) == (3, 343200)
    with pytest.raises(TypeError):
        Limits(bogus=1)


def test_value_records_refuse_assignment():
    from alcoves.alcove import enumerate_dominant
    from alcoves.ideals import enumerate_abelian_ideals
    from alcoves.rootsystem import parse_type
    from alcoves.wedge import build_chevalley

    rs = parse_type("A2")
    records = [(enumerate_dominant(rs, 2)[-1], "cas"),
               (enumerate_abelian_ideals(rs)[-1], "lam"),
               (Limits(), "max_length"), (rs, "rank"),
               (build_chevalley(rs), "dim")]
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == before


def test_allow_big_escape_hatch(capsys):
    code, _, _ = run_cli(capsys, "coeffs", "--type", "A2", "--kmax", "70",
                         "--allow-big", "--method", "series")
    assert code == 0


def loaded_modules(code: str, also=()) -> set:
    """The alcoves modules, and those of the names in `also` that are
    loaded, after running `code` in a fresh interpreter."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules " \
        f"if m == 'alcoves' or m.startswith('alcoves.') or m in {set(also)!r})))"
    import alcoves
    src = str(Path(alcoves.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=env)
    return set(proc.stdout.split())


def run_commands(*argvs) -> str:
    """Probe code that runs each argv through the CLI, asserting exit 0."""
    return "import contextlib, io\nfrom alcoves.cli import main\n" + "".join(
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n" for argv in argvs)


def test_importing_the_cli_loads_no_library_module():
    assert loaded_modules("import alcoves.cli") == {"alcoves", "alcoves.cli"}


def benchmark_jobs() -> list:
    import runpy
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] /
                                   "bench" / "workloads.py"))
    return [argv for argvs in workloads["CLI_JOBS"].values() for argv in argvs]


def test_no_benchmark_job_loads_dataclasses_or_inspect():
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
    execs the methods of each class it decorates, at every start-up."""
    jobs = benchmark_jobs()
    assert len(jobs) == 13
    loaded = loaded_modules(run_commands(*jobs), also=("dataclasses", "inspect"))
    assert {"alcoves.alcove", "alcoves.wedge"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_no_benchmark_job_loads_argparse_or_json():
    """The flags come from the signatures and the report writes its own
    JSON, so no job pays for argparse (with gettext and locale) or json."""
    heavy = ("argparse", "gettext", "locale", "json")
    loaded = loaded_modules(run_commands(*benchmark_jobs()), also=heavy)
    assert {"alcoves.alcove", "alcoves.wedge", "alcoves.series"} <= loaded
    assert not loaded & set(heavy)


def test_integer_jobs_load_no_fraction():
    """Root systems are built in integers, so the jobs that never use a
    rational load neither `fractions` nor `linalg`."""
    jobs = [argv for argv in benchmark_jobs()
            if argv[0] in ("ideals", "alcoves", "mcore")
            or argv[2] in ("subset-bound", "root-partitions")]
    assert [argv[argv.index("--type") + 1] for argv in jobs if "--type" in argv] \
        == ["E6", "A4", "F4", "A4"] and len(jobs) == 5
    loaded = loaded_modules(run_commands(*jobs), also=("fractions",))
    assert {"alcoves.ideals", "alcoves.typea"} <= loaded
    assert not loaded & {"fractions", "alcoves.linalg"}


@pytest.mark.parametrize("argv", benchmark_jobs(), ids=" ".join)
def test_verify_job_loads_one_suite_module(argv):
    from alcoves.suites import MODULES

    suite = argv[argv.index("--suite") + 1] if argv[0] == "verify" else argv[0]
    loaded = loaded_modules(run_commands(argv))
    assert {m for m in loaded if m.startswith("alcoves.suites.")} == \
        {f"alcoves.suites.{MODULES[suite]}"}


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "roots-f234", "--kmax", "12"),
    ("verify", "--suite", "euler-char", "--type", "E8", "--kmax", "12"),
])
def test_series_suites_load_no_alcove_or_ideal_module(argv):
    loaded = loaded_modules(run_commands(argv))
    assert "alcoves.series" in loaded
    assert not loaded & {"alcoves.alcove", "alcoves.ideals"}


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "interpolation"),
    ("verify", "--suite", "subset-bound", "--type", "F4", "--kmax", "6"),
])
def test_ideal_sums_and_sweeps_load_no_alcove_module(argv):
    """`dim_Ck` and the subset sweep read no alcove, so `ideals` imports
    `alcove` only inside the functions that do."""
    loaded = loaded_modules(run_commands(argv))
    assert "alcoves.ideals" in loaded
    assert "alcoves.alcove" not in loaded


def test_ideals_command_loads_only_what_it_runs():
    loaded = loaded_modules(run_commands(("ideals", "--type", "E6")))
    assert "alcoves.ideals" in loaded
    assert {m for m in loaded if m.startswith("alcoves.suites.")} == \
        {"alcoves.suites.ideals"}
    assert not loaded & {"alcoves.wedge", "alcoves.series", "alcoves.typea"}


def test_star_import_binds_every_export():
    names = {}
    exec("from alcoves import *", names)
    import alcoves
    assert set(alcoves.__all__) <= set(names)
    for name in alcoves.__all__:
        assert names[name] is getattr(alcoves, name)
        assert vars(alcoves)[name] is names[name]     # cached on first use
        assert getattr(sys.modules[names[name].__module__], name) is names[name]
    with pytest.raises(AttributeError):
        alcoves.no_such_name  # noqa: B018


def test_every_export_has_resolvable_type_hints():
    import typing

    import alcoves
    for name in alcoves.__all__:
        typing.get_type_hints(getattr(alcoves, name))


# Exports that no library route reads yet, each with the ROADMAP item
# that gives it a reader.
UNREAD_EXPORTS = {
    "partition_to_weight": "item 8: carries each null m-core to its weight",
}


def library_tops():
    """(name, node) for each top-level statement of `src/alcoves`, with
    the name of a def or class, else None."""
    import ast

    import alcoves
    for path in Path(alcoves.__file__).parent.rglob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            yield getattr(top, "name", None), top


def test_every_export_is_read_by_the_library():
    """An exported name stays only if `src/alcoves` reads it outside its
    own definition; an oracle that only tests read lives in its test."""
    import ast

    import alcoves
    read = set()
    for own, top in library_tops():  # a def or class is not its own reader
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name != own:
                read.add(name)
    assert sorted(set(alcoves.__all__) - read) == sorted(UNREAD_EXPORTS)


def test_every_record_field_is_read_by_the_library():
    """Each slot of `RootSystem` and `LieAlgebraTable`, each field of
    `AffineElement` and `AbelianIdeal`, and each `Limits` field is read as
    an attribute in `src/alcoves` outside the class that defines it: a
    field that no code reads is state to remove."""
    import ast

    from alcoves.alcove import AffineElement
    from alcoves.ideals import AbelianIdeal
    from alcoves.limits import FIELDS
    from alcoves.rootsystem import RootSystem
    from alcoves.wedge import LieAlgebraTable

    unread = {"RootSystem": set(RootSystem.__slots__),
              "LieAlgebraTable": set(LieAlgebraTable.__slots__),
              "AffineElement": set(AffineElement._fields),
              "AbelianIdeal": set(AbelianIdeal._fields),
              "Limits": set(FIELDS)}
    for own, top in library_tops():
        read = {node.attr for node in ast.walk(top)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)}
        for record, fields in unread.items():
            if record != own:
                fields -= read
    assert unread == dict.fromkeys(unread, set())


def test_ideals_e8_runs_no_alcove_search(capsys, monkeypatch):
    import alcoves.alcove
    import alcoves.ideals
    real = alcoves.alcove.enumerate_dominant

    def guarded(rs, max_length):
        if max_length > 0:
            raise AssertionError(f"alcove search to length {max_length}")
        return real(rs, max_length)

    monkeypatch.setattr(alcoves.alcove, "enumerate_dominant", guarded)
    alcoves.ideals._alcove_by_ideal.cache_clear()
    try:
        code, out, err = run_cli(capsys, "ideals", "--type", "E8")
    finally:
        alcoves.ideals._alcove_by_ideal.cache_clear()
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] == "pass"


def test_reflection_wall_count_mismatch_exits_three(capsys, monkeypatch):
    import alcoves.alcove
    import alcoves.ideals
    # Skipping the reflection leaves the parent ideal's wall counts.
    monkeypatch.setattr(alcoves.alcove, "reflect_in_wall", lambda rs, e, idx: e)
    alcoves.ideals._alcove_by_ideal.cache_clear()
    try:
        code, out, err = run_cli(capsys, "ideals", "--type", "B2")
    finally:
        alcoves.ideals._alcove_by_ideal.cache_clear()
    assert (code, out) == (3, "")
    assert err.startswith("internal error: reflected alcove has wall counts")
