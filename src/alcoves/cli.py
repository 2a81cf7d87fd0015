"""Command-line driver.

Every invocation prints one canonical key-sorted JSON document (or a
human table with --summary) and exits 0 when all checks passed, 1 when
any failed, 2 on usage or scale errors (a report whose every check was
skipped over a ceiling is one), and 3 when an internal invariant check
fails (a Jacobi, structure-constant, Casimir-identity or series
divisibility check, reported as "internal error: ..." on stderr).  Every
numeric argument, and the rank behind --type and --m, is checked against
its range in one place, before any work starts; a suite receives exactly
the arguments it names, and any other option is refused first.  Output
is byte-identical across repeated identical invocations: fixed ordering,
decimal-string integers, no timestamps.
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

    p = add_parser("coeffs", help="Euler-product power coefficients")
    p.add_argument("--type", required=True, dest="type_label")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--method", choices=("series", "alcove", "both"),
                   default="both")

    p = add_parser("alcoves", help="list dominant alcoves by length")
    p.add_argument("--type", required=True, dest="type_label")
    p.add_argument("--max-length", type=int, default=6)
    p.add_argument("--wf2-only", action="store_true")

    p = add_parser("ideals", help="list abelian ideals of the Borel")
    p.add_argument("--type", required=True, dest="type_label")

    p = add_parser("fk", help="coefficient polynomials of arbitrary powers")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--eval", type=int, dest="eval_at", default=None)
    p.add_argument("--lehmer", action="store_true",
                   help="probe f_k(24) for zeros up to kmax")

    p = add_parser("mcore", help="null-core counts and the weight map")
    p.set_defaults(suite="mcore")  # `verify --suite mcore` with --m required
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=int)
    p.add_argument("--max-length", type=int)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--type", dest="type_label", default=None)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--cas-ceiling", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    return parser


def _ranges(args, limits: Limits) -> dict:
    """Allowed range of each numeric argument: dest -> (minimum, maximum,
    name of the ceiling behind the maximum)."""
    kmax = (limits.max_order, "max_order")
    if getattr(args, "method", "series") != "series":
        # The alcove route enumerates alcoves up to length kmax.
        kmax = min(kmax, (limits.max_length, "max_length"))
    return {
        "kmax": (0, *kmax),
        "max_length": (0, limits.max_length, "max_length"),
        # The Casimir ceiling is also the alcove length searched.
        "cas_ceiling": (0, limits.max_length, "max_length"),
        "m": (2, None, None),
    }


def check_sizes(args, limits: Limits) -> None:
    """Refuse any option the suite does not take, then any numeric
    argument out of range or type rank over `max_rank`, naming the limit."""
    if hasattr(args, "suite"):
        from .suites import bind_arguments
        bind_arguments(args.suite, limits=limits, **_suite_options(args))
    for dest, (low, high, ceiling) in _ranges(args, limits).items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if value < low:
            raise ValueError(f"{flag} {value} is below the minimum {low}")
        if high is not None and value > high:
            raise ValueError(
                f"{flag} {value} exceeds the {ceiling} ceiling {high}")
    ranks = []
    if getattr(args, "type_label", None):
        from .rootsystem import parse_label
        ranks.append((f"--type {args.type_label}", parse_label(args.type_label)[1]))
    if getattr(args, "m", None) is not None:
        # The m-core suite builds A_{m-1}.
        ranks.append((f"--m {args.m}", args.m - 1))
    for what, rank in ranks:
        if rank > limits.max_rank:
            raise ValueError(f"{what} needs rank {rank}, over the max_rank "
                             f"ceiling {limits.max_rank}")


def cmd_coeffs(args, limits: Limits) -> Report:
    from .report import Report
    from .rootsystem import parse_type
    from .series import alcove_coefficient_series, euler_power

    rs = parse_type(args.type_label)
    kmax = args.kmax
    rep = Report(suite="coeffs", type_label=rs.label,
                 params={"kmax": kmax, "method": args.method})
    series = euler_power(rs.dim_g, kmax) if args.method in ("series", "both") else None
    alcove = None
    if args.method in ("alcove", "both"):
        alcove = alcove_coefficient_series(rs, kmax)
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


def cmd_alcoves(args, limits: Limits) -> Report:
    from .alcove import enumerate_dominant, in_wf2
    from .report import Report
    from .rootsystem import parse_type, weyl_dimension

    rs = parse_type(args.type_label)
    rep = Report(suite="alcoves", type_label=rs.label,
                 params={"max_length": args.max_length,
                         "wf2_only": args.wf2_only})
    for i, e in enumerate(enumerate_dominant(rs, args.max_length)):
        if args.wf2_only and not in_wf2(rs, e):
            continue
        rep.add(f"alcove-{i:04d}", True, {
            "n_vec": e.n_vec, "length": e.length, "weight": e.lam,
            "casimir": e.cas, "dim": weyl_dimension(rs, e.lam),
            "sign": (-1) ** e.length, "wf2": in_wf2(rs, e)})
    return rep


def cmd_ideals(args, limits: Limits) -> Report:
    from .alcove import chi_at_type_rho
    from .ideals import enumerate_abelian_ideals, ideal_to_sigma
    from .report import Report
    from .rootsystem import parse_type

    rs = parse_type(args.type_label)
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


def cmd_fk(args, limits: Limits) -> Report:
    from .report import Report
    from .series import f_poly, lehmer_probe

    kmax = args.kmax
    rep = Report(suite="fk", params={"kmax": kmax,
                                     "eval": args.eval_at if args.eval_at is not None else "",
                                     "lehmer": args.lehmer})
    for k in range(kmax + 1):
        poly = f_poly(k)
        witness = {"coeffs": [str(c) for c in poly.coeffs], "degree": poly.degree}
        if args.eval_at is not None:
            witness["value"] = poly(args.eval_at)
        rep.add(f"f{k}", poly.degree == k or k == 0, witness)
    if args.lehmer:
        probe = lehmer_probe(kmax)
        rep.add("no-zero-at-24", not probe["zeros"],
                {"zeros": probe["zeros"],
                 "values": [probe["values"][k] for k in range(1, min(kmax, 10) + 1)]},
                detail="a zero here would be a spectacular counterexample; "
                       "report it prominently")
    return rep


def _suite_options(args) -> dict:
    """The suite options of `verify` and `mcore`, None where not given."""
    return {dest: vars(args).get(dest) for dest in
            ("type_label", "max_length", "kmax", "cas_ceiling", "m")}


def cmd_verify(args, limits: Limits) -> Report:
    from .suites import run_suite

    return run_suite(args.suite, limits=limits, **_suite_options(args))


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "alcoves": cmd_alcoves,
    "ideals": cmd_ideals,
    "fk": cmd_fk,
    "mcore": cmd_verify,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        from .limits import load_limits
        limits = load_limits()
        if args.allow_big:
            limits = limits.embiggen()
        check_sizes(args, limits)
        report = _COMMANDS[args.command](args, limits)
    except (ValueError, KeyError, LookupError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    sys.stdout.write(report.summary() if args.summary else report.canonical())
    code = report.exit_code()
    if code == 2:  # every check was skipped; the first says which ceiling
        sys.stderr.write(f"error: no check ran: {report.checks[0].detail}\n")
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
