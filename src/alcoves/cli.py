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
in its signature: `cmd_*` below for the listings, the suite that
--suite names for `verify` (`mcore` is `verify --suite mcore`).  The
flags of a command are read straight off that signature: the argument
`max_length` is --max-length, `rs` is --type and `eval_at` is --eval; an
`int` annotation converts the value, a `bool` one makes a bare switch,
and a value is given as `--name value` or `--name=value`.  -h and --help
print the flags of every command from the signatures.  A usage error
exits 2 with one line naming the flag.  One binder, `bind`, then calls
the function: it fills in the defaults, checks every numeric value,
given or default, and the rank behind --type and --m against `Limits`,
parses --type once, and passes `limits` only to a function that names
it; all before any work starts.
"""

from __future__ import annotations

import sys

# The package modules are imported inside the function that uses them, so
# that a command compiles only what it runs.

# Arguments whose flag is not their name with dashes.
_RENAMED = {"rs": "--type", "eval_at": "--eval"}
# Switches every command takes, besides the arguments of its function.
SWITCHES = {"summary": "print a human-readable table instead of JSON",
            "allow_big": "multiply all scale ceilings by 100"}
# The values a string argument may take.
CHOICES = {"method": ("series", "alcove", "both")}


def _flag(name: str) -> str:
    return _RENAMED.get(name) or "--" + name.replace("_", "-")


def _signature(fn) -> tuple:
    """The names of the arguments of `fn`, and their defaults."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    return names, dict(zip(names[len(names) - len(defaults):], defaults))


def _untaken(what: str, flags, takes) -> ValueError:
    return ValueError(f"{what} does not take {', '.join(flags)}; it takes "
                      f"{', '.join(map(_flag, takes)) or 'no options'}")


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


def _check_values(values: dict, given, limits: Limits) -> None:
    for name, allowed in CHOICES.items():
        if name in values and values[name] not in allowed:
            raise ValueError(f"{_flag(name)} {values[name]} is not one of "
                             f"{', '.join(allowed)}")
    for name, (low, high, ceiling) in _ranges(values, limits).items():
        value = values.get(name)
        if type(value) is not int:  # not taken, or worked out from the type
            continue
        shown = f"{_flag(name)} {value}" + ("" if name in given else " (the default)")
        if value < low:
            raise ValueError(f"{shown} is below the minimum {low}")
        if high is not None and value > high:
            raise ValueError(f"{shown} exceeds the {ceiling} ceiling {high}")


def _check_rank(option: str, rank: int, limits: Limits) -> None:
    if rank > limits.max_rank:
        raise ValueError(f"{option} needs rank {rank}, over the max_rank "
                         f"ceiling {limits.max_rank}")


def bind(what: str, fn, limits: Limits, **given) -> dict:
    """The keyword arguments that run `fn`, the function of command or
    suite `what`, from the options given.  A default that is a function of
    the root system is worked out, and checked, once the type is parsed;
    `limits` is passed only if `fn` names it."""
    names, defaults = _signature(fn)
    takes = [name for name in names if name != "limits"]
    extra = [_flag(name) for name in given if name not in takes]
    if extra:
        raise _untaken(what, extra, takes)
    if "rs" in takes and "rs" not in given:
        raise ValueError(f"{what} requires a type label")
    values = dict(defaults, **given)
    _check_values(values, given, limits)
    if "m" in values:  # the m-core suite builds A_{m-1}
        _check_rank(f"--m {values['m']}", values["m"] - 1, limits)
    if "rs" in values:
        from .rootsystem import parse_label, parse_type
        label = values["rs"]
        _check_rank(f"--type {label}", parse_label(label)[1], limits)
        rs = values["rs"] = parse_type(label)
        values = {name: v(rs) if callable(v) else v for name, v in values.items()}
        _check_values(values, given, limits)
    if "limits" in names:
        values["limits"] = limits
    return values


def cmd_coeffs(rs: RootSystem, kmax: int = 10, method: str = "both") -> Report:
    """Euler-product power coefficients."""
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
    """Dominant alcoves by length."""
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
    """Abelian ideals of the Borel."""
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
    """Coefficient polynomials f_k; --lehmer looks for a zero at 24."""
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


# The commands that are not suites.  `verify` runs the suite --suite
# names; `mcore` is `verify --suite mcore`.
LISTINGS = {"coeffs": cmd_coeffs, "alcoves": cmd_alcoves, "ideals": cmd_ideals,
            "fk": cmd_fk}
COMMANDS = (*LISTINGS, "mcore", "verify")


def _tokens(args) -> dict:
    """Flag -> its value, or None for a flag given bare."""
    options = {}
    i = 0
    while i < len(args):
        flag, eq, value = args[i].partition("=")
        if not flag.startswith("--"):
            raise ValueError(f"unexpected argument {args[i]!r}")
        if not eq:
            value = None
            if i + 1 < len(args) and not args[i + 1].startswith("--"):
                i += 1
                value = args[i]
        options[flag] = value
        i += 1
    return options


def parse(argv) -> tuple:
    """(what, fn, options) for a command line: the function that runs it,
    what to call it in an error, and the options given by argument name,
    each converted by its annotation."""
    command = argv[0] if argv else ""
    options = _tokens(argv[1:])
    if command in LISTINGS:
        fn, what = LISTINGS[command], f"command {command!r}"
    elif command in ("mcore", "verify"):
        from .suites import MODULES, load
        name = options.pop("--suite", None) if command == "verify" else "mcore"
        if name not in MODULES:
            problem = f"--suite {name} is not a suite" if name else \
                "verify requires --suite NAME"
            raise ValueError(f"{problem}; choose from {', '.join(MODULES)}")
        fn, what = load(name), f"suite {name!r}"
    else:
        problem = f"unknown command {command!r}" if command else "no command"
        raise ValueError(f"{problem}; choose from {', '.join(COMMANDS)}")
    names, _ = _signature(fn)
    by_flag = {_flag(name): name for name in (*names, *SWITCHES) if name != "limits"}
    extra = [flag for flag in options if flag not in by_flag]
    if extra:
        raise _untaken(what, extra, [name for name in names if name != "limits"])
    given = {}
    for flag, value in options.items():
        name = by_flag[flag]
        kind = "bool" if name in SWITCHES else fn.__annotations__.get(name, "str")
        if kind == "bool":
            if value is not None:
                raise ValueError(f"{flag} takes no value, not {value!r}")
            value = True
        elif value is None:
            raise ValueError(f"{flag} needs a value")
        elif kind.startswith("int"):
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{flag} takes an integer, not {value!r}") from None
        given[name] = value
    return what, fn, given


def _synopsis(fn) -> str:
    """The flags of `fn`, from its signature: [--name VALUE=default]."""
    names, defaults = _signature(fn)
    words = []
    for name in names:
        if name == "limits":
            continue
        if fn.__annotations__.get(name) == "bool":
            words.append(f"[{_flag(name)}]")
            continue
        value = "|".join(CHOICES[name]) if name in CHOICES else \
            "LABEL" if name == "rs" else "N"
        if name not in defaults:
            words.append(f"{_flag(name)} {value}")
            continue
        default = defaults[name]
        shown = "=type-dependent" if callable(default) else \
            "" if default is None else f"={default}"
        words.append(f"[{_flag(name)} {value}{shown}]")
    return " ".join(words)


def usage() -> str:
    """The help text: every command and suite with its flags."""
    from .suites import SUITES

    lines = """\
usage: alcoves COMMAND [--flag VALUE | --flag=VALUE | --switch]...

Exact Euler-product coefficients via dominant alcoves, abelian Borel ideals,
and exterior-algebra checks.  The flags of a command are the arguments of
the function that runs it; a bracketed flag shows its default.

commands:""".split("\n")
    for name, fn in LISTINGS.items():
        lines += [f"  {name:<9}{_synopsis(fn)}",
                  f"  {'':<9}{' '.join(fn.__doc__.split())}"]
    lines += ["  mcore    the same as verify --suite mcore",
              "  verify   --suite NAME, and the flags of that suite:"]
    lines += [f"    {name:<17}{_synopsis(fn)}".rstrip()
              for name, fn in SUITES.items()]
    lines += ["", "every command also takes:"]
    lines += [f"  {_flag(name):<13}{text}" for name, text in SWITCHES.items()]
    lines += [f"  {'-h, --help':<13}print this help", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage())
        return 0
    try:
        what, fn, options = parse(argv)
        summary = options.pop("summary", False)
        from .limits import load_limits
        limits = load_limits()
        if options.pop("allow_big", False):
            limits = limits.embiggen()
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
