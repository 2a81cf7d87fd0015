"""Command-line driver.

Every invocation prints one canonical key-sorted JSON document (or a
human table with --summary) and exits 0 when all checks passed, 1 when
any failed, 2 on usage or scale errors (a report whose every check was
skipped over a ceiling is one), and 3 when an internal invariant check
fails (a Jacobi, structure-constant, Casimir-identity or series
divisibility check, reported as "internal error: ..." on stderr).  Output
is byte-identical across repeated identical invocations: fixed ordering,
decimal-string integers, no timestamps.

Every command runs a function of its named options, whose defaults are
in its signature: `cmd_*` below for the listings, `suites.SUITES` for
`verify` and `mcore`.  One binder, `bind`, calls each of them: it
refuses an option the function does not take, fills in the defaults,
checks every numeric value, given or default, and the rank behind --type
and --m against `Limits`, parses --type once, and passes `limits` only
to a function that names it; all before any work starts.
"""

from __future__ import annotations

import argparse
import sys

# The package modules are imported inside the function that uses them, so
# that a command compiles only what it runs.

# The names of `suites.SUITES`, sorted, kept here so that building the
# parser imports no suite.
SUITE_NAMES = ("betti-ideals", "bijection", "bott", "euler-char", "gap",
               "ideal-chains", "interpolation", "mcore", "parity", "peterson",
               "root-partitions", "roots-f234", "seven-numbers", "sign",
               "subset-bound")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--summary", action="store_true",
                        help="print a human-readable table instead of JSON")
    common.add_argument("--allow-big", action="store_true",
                        help="multiply all scale ceilings by 100")
    parser = argparse.ArgumentParser(
        prog="alcoves",
        description="Exact Euler-product coefficients via dominant alcoves, "
                    "abelian Borel ideals, and exterior-algebra checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    # No defaults here: the function that runs the command has them.
    p = add_parser("coeffs", help="Euler-product power coefficients")
    p.add_argument("--type", required=True, dest="rs")
    p.add_argument("--kmax", type=int)
    p.add_argument("--method", choices=("series", "alcove", "both"))

    p = add_parser("alcoves", help="list dominant alcoves by length")
    p.add_argument("--type", required=True, dest="rs")
    p.add_argument("--max-length", type=int)
    p.add_argument("--wf2-only", action="store_true")

    p = add_parser("ideals", help="list abelian ideals of the Borel")
    p.add_argument("--type", required=True, dest="rs")

    p = add_parser("fk", help="coefficient polynomials of arbitrary powers")
    p.add_argument("--kmax", type=int)
    p.add_argument("--eval", type=int, dest="eval_at")
    p.add_argument("--lehmer", action="store_true",
                   help="probe f_k(24) for zeros up to kmax")

    p = add_parser("mcore", help="null-core counts and the weight map")
    p.set_defaults(suite="mcore")  # `verify --suite mcore` with --m required
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=int)
    p.add_argument("--max-length", type=int)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--type", dest="rs")
    p.add_argument("--max-length", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--cas-ceiling", type=int)
    p.add_argument("--m", type=int)
    return parser


def _ranges(values: dict, limits: Limits) -> dict:
    """Allowed range of each numeric argument: name -> (minimum, maximum,
    name of the ceiling behind the maximum)."""
    kmax = (limits.max_order, "max_order")
    if values.get("method", "series") != "series":
        # The alcove route enumerates alcoves up to length kmax.
        kmax = min(kmax, (limits.max_length, "max_length"))
    return {
        # The Lehmer probe reads f_1(24) onwards.
        "kmax": (1 if values.get("lehmer") else 0, *kmax),
        "max_length": (0, limits.max_length, "max_length"),
        # The Casimir ceiling is also the alcove length searched.
        "cas_ceiling": (0, limits.max_length, "max_length"),
        "m": (2, None, None),
    }


def _flag(name: str) -> str:
    return "--type" if name == "rs" else "--" + name.replace("_", "-")


def _check_ranges(values: dict, limits: Limits) -> None:
    for name, (low, high, ceiling) in _ranges(values, limits).items():
        value = values.get(name)
        if type(value) is not int:  # not given, or worked out from the type
            continue
        if value < low:
            raise ValueError(f"{_flag(name)} {value} is below the minimum {low}")
        if high is not None and value > high:
            raise ValueError(
                f"{_flag(name)} {value} exceeds the {ceiling} ceiling {high}")


def _check_rank(option: str, rank: int, limits: Limits) -> None:
    if rank > limits.max_rank:
        raise ValueError(f"{option} needs rank {rank}, over the max_rank "
                         f"ceiling {limits.max_rank}")


def bind(what: str, fn, limits: Limits, **options) -> dict:
    """The keyword arguments that run `fn`, the function of command or
    suite `what`, from the options given (those not None).  A default that
    is a function of the root system is worked out, and checked, once the
    type is parsed; `limits` is passed only if `fn` names it."""
    code = fn.__code__
    takes = code.co_varnames[:code.co_argcount]
    given = {name: v for name, v in options.items() if v is not None}
    extra = [_flag(name) for name in given if name not in takes]
    if extra:
        flags = ", ".join(_flag(name) for name in takes if name != "limits")
        raise ValueError(f"{what} does not take {', '.join(extra)}; "
                         f"it takes {flags or 'no options'}")
    if "rs" in takes and "rs" not in given:
        raise ValueError(f"{what} requires a type label")
    defaults = fn.__defaults__ or ()
    values = dict(zip(takes[len(takes) - len(defaults):], defaults), **given)
    _check_ranges(values, limits)
    if "m" in values:  # the m-core suite builds A_{m-1}
        _check_rank(f"--m {values['m']}", values["m"] - 1, limits)
    if "rs" in values:
        from .rootsystem import parse_label, parse_type
        label = values["rs"]
        _check_rank(f"--type {label}", parse_label(label)[1], limits)
        rs = values["rs"] = parse_type(label)
        values = {name: v(rs) if callable(v) else v for name, v in values.items()}
        _check_ranges(values, limits)
    if "limits" in takes:
        values["limits"] = limits
    return values


def cmd_coeffs(rs: RootSystem, kmax: int = 10, method: str = "both") -> Report:
    from .report import Report
    from .series import alcove_coefficient_series, euler_power

    rep = Report(suite="coeffs", type_label=rs.label,
                 params={"kmax": kmax, "method": method})
    series = euler_power(rs.dim_g, kmax) if method != "alcove" else None
    alcove = alcove_coefficient_series(rs, kmax) if method != "series" else None
    base = series or alcove
    for k in range(kmax + 1):
        witness = {"k": k}
        if series is not None:
            witness["series"] = series[k]
        if alcove is not None:
            witness["alcove"] = alcove[k]
        ok = series is None or alcove is None or series[k] == alcove[k]
        rep.add(f"coefficient-{k}", ok, witness)
    if rs.label == "A4" and kmax >= 4 and base is not None:
        rep.add("a4-coefficient-4-exact-value", base[4] == 4830,
                {"value": base[4], "rejected_misprint": 4870},
                detail="the exact expansion gives 4830; 4870 appearing in "
                       "some accounts is a misprint")
    return rep


def cmd_alcoves(rs: RootSystem, max_length: int = 6,
                wf2_only: bool = False) -> Report:
    from .alcove import enumerate_dominant, in_wf2
    from .report import Report
    from .rootsystem import weyl_dimension

    rep = Report(suite="alcoves", type_label=rs.label,
                 params={"max_length": max_length, "wf2_only": wf2_only})
    for i, e in enumerate(enumerate_dominant(rs, max_length)):
        if wf2_only and not in_wf2(rs, e):
            continue
        rep.add(f"alcove-{i:04d}", True, {
            "n_vec": e.n_vec, "length": e.length, "weight": e.lam,
            "casimir": e.cas, "dim": weyl_dimension(rs, e.lam),
            "sign": (-1) ** e.length, "wf2": in_wf2(rs, e)})
    return rep


def cmd_ideals(rs: RootSystem) -> Report:
    from .alcove import chi_at_type_rho
    from .ideals import enumerate_abelian_ideals, ideal_to_sigma
    from .report import Report

    rep = Report(suite="ideals", type_label=rs.label)
    ideals = enumerate_abelian_ideals(rs)
    for i, xi in enumerate(ideals):
        e = ideal_to_sigma(rs, xi)
        rep.add(f"ideal-{i:04d}", e.lam == xi.lam, {
            "k": xi.k, "weight": xi.lam,
            "roots": sorted(rs.positive_roots[j] for j in xi.roots),
            "alcove_length": e.length,
            "sign": chi_at_type_rho(rs, xi.lam)})
    rep.add("count-is-2^rank", len(ideals) == 2 ** rs.rank,
            {"count": len(ideals), "expected": 2 ** rs.rank})
    return rep


def cmd_fk(kmax: int = 8, eval_at: int | None = None,
           lehmer: bool = False) -> Report:
    from .report import Report
    from .series import f_poly, lehmer_probe

    rep = Report(suite="fk", params={"kmax": kmax,
                                     "eval": eval_at if eval_at is not None else "",
                                     "lehmer": lehmer})
    for k in range(kmax + 1):
        poly = f_poly(k)
        witness = {"coeffs": [str(c) for c in poly.coeffs], "degree": poly.degree}
        if eval_at is not None:
            witness["value"] = poly(eval_at)
        rep.add(f"f{k}", poly.degree == k or k == 0, witness)
    if lehmer:
        probe = lehmer_probe(kmax)
        rep.add("no-zero-at-24", not probe["zeros"],
                {"zeros": probe["zeros"],
                 "values": [probe["values"][k] for k in range(1, min(kmax, 10) + 1)]},
                detail="a zero here would be a spectacular counterexample; "
                       "report it prominently")
    return rep


# The commands that are not suites; `verify` and `mcore` run `suites.SUITES`.
LISTINGS = {"coeffs": cmd_coeffs, "alcoves": cmd_alcoves, "ideals": cmd_ideals,
            "fk": cmd_fk}


def main(argv=None) -> int:
    try:
        options = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command, suite = options.pop("command"), options.pop("suite", None)
    summary, allow_big = options.pop("summary"), options.pop("allow_big")
    try:
        from .limits import load_limits
        limits = load_limits()
        if allow_big:
            limits = limits.embiggen()
        if suite is None:
            fn, what = LISTINGS[command], f"command {command!r}"
        else:
            from .suites import SUITES
            fn, what = SUITES[suite], f"suite {suite!r}"
        report = fn(**bind(what, fn, limits, **options))
    except (ValueError, KeyError, LookupError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    sys.stdout.write(report.summary() if summary else report.canonical())
    code = report.exit_code()
    if code == 2:  # every check was skipped; the first says which ceiling
        sys.stderr.write(f"error: no check ran: {report.checks[0].detail}\n")
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
