"""Command-line driver: output determinism, exit codes, wire format."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from alcoves.cli import SUITE_NAMES, main
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


TYPED_SUITES = sorted(name for name, (_, typed) in SUITES.items() if typed)


@given(suite=st.sampled_from(TYPED_SUITES),
       label=st.sampled_from(["A1", "A2", "B2", "G2", "A3"]))
def test_canonical_report_is_deterministic(suite, label):
    # A3 (dim 15) is over the default Chevalley ceiling.
    assume((suite, label) != ("seven-numbers", "A3"))
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


def test_suite_choices_are_the_suite_table():
    assert SUITE_NAMES == tuple(sorted(SUITES))


def test_verify_missing_type_is_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "peterson")
    assert code == 2
    assert "type" in err


def test_scale_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--type", "A2", "--kmax", "9999")
    assert code == 2
    assert "ceiling" in err


# Each row: argv, ALCOVES_LIMITS file ("missing" for an absent one, a dict
# of fields to write to one, or None), and the words the error must
# contain: the argument and its limit.
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
    pytest.param(["verify", "--suite", "roots-f234", "--kmax", "30"], None,
                 ["--kmax 30", "composition-route ceiling 20"],
                 id="roots-f234-kmax-over-composition-cap"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A2"], "missing",
                 ["ALCOVES_LIMITS", "missing.json"],
                 id="missing-limits-file"),
    pytest.param(["verify", "--suite", "peterson", "--type", "A40"], None,
                 ["--type A40", "rank 40", "max_rank ceiling 8"],
                 id="peterson-rank-unbounded"),
    pytest.param(["ideals", "--type", "D9"], None,
                 ["--type D9", "rank 9", "max_rank ceiling 8"],
                 id="ideals-rank-unbounded"),
    pytest.param(["mcore", "--m", "40"], None,
                 ["--m 40", "rank 39", "max_rank ceiling 8"],
                 id="mcore-m-rank-unbounded"),
    pytest.param(["verify", "--suite", "mcore", "--m", "10"], None,
                 ["--m 10", "rank 9", "max_rank ceiling 8"],
                 id="verify-mcore-m-rank-unbounded"),
    pytest.param(["verify", "--suite", "seven-numbers", "--type", "A3"], None,
                 ["dim 15", "chevalley_dim ceiling 14"],
                 id="seven-numbers-over-chevalley-dim"),
    # G2's dominant blocks hold 184 rows at wedge degree 4.
    pytest.param(["verify", "--suite", "seven-numbers", "--type", "G2"],
                 {"wedge_matrix": 100},
                 ["degree 4", "dominant-block rows", "wedge_matrix ceiling 100"],
                 id="seven-numbers-over-wedge-matrix"),
    # B3's wedge degree 4 spans C(21, 4) = 5985 subsets.
    pytest.param(["verify", "--suite", "seven-numbers", "--type", "B3"],
                 {"chevalley_dim": 21, "subset_candidates": 5000},
                 ["degree 4", "5985 subsets", "subset_candidates ceiling 5000"],
                 id="seven-numbers-over-subset-candidates"),
    # A2 has 26 positive-root partitions of triangular cost <= 6.
    pytest.param(["verify", "--suite", "root-partitions", "--type", "A2",
                  "--cas-ceiling", "6"], {"partition_candidates": 3},
                 ["partitions exceed", "partition_candidates ceiling 3"],
                 id="root-partitions-over-partition-candidates"),
    # Size 9, the largest, has five partitions with at most two parts.
    pytest.param(["mcore", "--m", "3", "--kmax", "3"],
                 {"partition_candidates": 2},
                 ["partition enumeration", "partition_candidates ceiling 2"],
                 id="mcore-over-partition-candidates"),
    # Sizes 0 and 3 pass; the coverage total at size 6 has four candidates.
    pytest.param(["mcore", "--m", "3", "--kmax", "1", "--max-length", "6"],
                 {"partition_candidates": 3},
                 ["partition enumeration", "partition_candidates ceiling 3"],
                 id="mcore-coverage-over-partition-candidates"),
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


def test_mcore_refuses_before_any_core(capsys, monkeypatch):
    import alcoves.typea

    def no_core(*args, **kwargs):
        raise AssertionError("an m-core was taken")

    monkeypatch.setattr(alcoves.typea, "m_core", no_core)
    # Size 270 has 805240304 partitions with at most eight parts.
    code, out, err = run_cli(capsys, "mcore", "--m", "9", "--kmax", "30")
    assert (code, out) == (2, "")
    assert "805240304 partitions" in err
    assert "partition_candidates ceiling 2000000" in err


def test_skipped_degree_names_the_limit(capsys, monkeypatch, tmp_path):
    # B2 has C(4, 2) = 6 subsets of two positive roots.
    path = tmp_path / "limits.json"
    path.write_text(json.dumps({"subset_candidates": 5}))
    monkeypatch.setenv("ALCOVES_LIMITS", str(path))
    code, out, _ = run_cli(capsys, "verify", "--suite", "subset-bound",
                           "--type", "B2", "--kmax", "2")
    assert code == 0
    checks = {c["claim"]: c for c in json.loads(out)["checks"]}
    assert checks["subset-bound-k1"]["status"] == "pass"
    assert checks["subset-bound-k2"]["status"] == "skipped"
    assert checks["subset-bound-k2"]["detail"] == \
        "6 subsets exceed the subset_candidates ceiling 5"


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
        raise ValueError("matrix is singular")

    monkeypatch.setattr(wedge, "invert_rational", singular)
    # Build afresh: the cached table of A1 was verified with the real inverse.
    monkeypatch.setattr(wedge, "_chevalley_table", wedge._chevalley_table.__wrapped__)
    code, out, err = run_cli(capsys, "verify", "--suite", "seven-numbers",
                             "--type", "A1")
    assert code == 3
    assert out == ""
    assert err == "internal error: Killing form is degenerate\n"


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
    # Sabotage one suite to confirm the failure path propagates.
    import alcoves.suites as suites

    def broken(rs, limits, **_):
        from alcoves.report import Report
        rep = Report(suite="peterson", type_label=rs.label)
        rep.add("forced-failure", False)
        return rep

    monkeypatch.setitem(suites.SUITES, "peterson", (broken, True))
    code, out, _ = run_cli(capsys, "verify", "--suite", "peterson",
                           "--type", "A1")
    assert code == 1
    assert json.loads(out)["overall"] == "fail"


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
]


@pytest.mark.parametrize("filename,argv", GOLDEN)
def test_golden_documents(capsys, filename, argv):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / filename
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == golden.read_text()


def test_limits_loading(tmp_path, monkeypatch):
    assert load_limits() == Limits()
    config = tmp_path / "limits.json"
    config.write_text('{"max_length": 10}')
    monkeypatch.setenv("ALCOVES_LIMITS", str(config))
    assert load_limits().max_length == 10
    config.write_text('{"bogus": 1}')
    with pytest.raises(ValueError):
        load_limits()


def test_allow_big_escape_hatch(capsys):
    code, _, _ = run_cli(capsys, "coeffs", "--type", "A2", "--kmax", "70",
                         "--allow-big", "--method", "series")
    assert code == 0


def loaded_modules(code: str) -> set:
    """The alcoves modules loaded after running `code` in a fresh
    interpreter."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules " \
        "if m == 'alcoves' or m.startswith('alcoves.'))))"
    import alcoves
    src = str(Path(alcoves.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=env)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_library_module():
    assert loaded_modules("import alcoves.cli") == {"alcoves", "alcoves.cli"}


def test_ideals_command_loads_only_what_it_runs():
    loaded = loaded_modules(
        "import contextlib, io\nfrom alcoves.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['ideals', '--type', 'E6']) == 0")
    assert "alcoves.ideals" in loaded
    assert not loaded & {"alcoves.wedge", "alcoves.series", "alcoves.suites",
                         "alcoves.typea"}


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


def test_ideals_e8_runs_no_alcove_search(capsys, monkeypatch):
    import alcoves.alcove
    import alcoves.ideals
    real = alcoves.alcove.enumerate_dominant

    def guarded(rs, max_length):
        if max_length > 0:
            raise AssertionError(f"alcove search to length {max_length}")
        return real(rs, max_length)

    monkeypatch.setattr(alcoves.alcove, "enumerate_dominant", guarded)
    monkeypatch.setattr(alcoves.ideals, "enumerate_dominant", guarded)
    alcoves.ideals._alcove_by_ideal.cache_clear()
    try:
        code, out, err = run_cli(capsys, "ideals", "--type", "E8")
    finally:
        alcoves.ideals._alcove_by_ideal.cache_clear()
    assert (code, err) == (0, "")
    assert json.loads(out)["overall"] == "pass"


def test_reflection_wall_count_mismatch_exits_three(capsys, monkeypatch):
    import alcoves.ideals
    # Skipping the reflection leaves the parent ideal's wall counts.
    monkeypatch.setattr(alcoves.ideals, "reflect_in_wall", lambda rs, e, idx: e)
    alcoves.ideals._alcove_by_ideal.cache_clear()
    try:
        code, out, err = run_cli(capsys, "ideals", "--type", "B2")
    finally:
        alcoves.ideals._alcove_by_ideal.cache_clear()
    assert (code, out) == (3, "")
    assert err.startswith("internal error: reflected alcove has wall counts")
