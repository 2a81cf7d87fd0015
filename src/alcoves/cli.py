"""Command-line driver.

Every invocation prints one canonical key-sorted JSON document (or a
human table with --summary) and exits 0 when all checks passed, 1 when
any failed, 2 on usage or scale errors (a report whose every check was
skipped over a ceiling is one), and 3 when an internal invariant check
fails (a Jacobi, structure-constant, Casimir-identity or series
divisibility check, reported as "internal error: ..." on stderr).  Output
is byte-identical across repeated identical invocations: fixed ordering,
decimal-string integers, no timestamps.

Every command is a function in the one table `suites.MODULES`, of its
named options, with its defaults in its signature: `verify --suite NAME`
runs the function of NAME, and `alcoves NAME` is the same for each name
in `COMMANDS`.  The flags of a command are read straight off that
signature: the argument `max_length` is --max-length and `rs` is --type;
an `int` annotation converts the value, a `bool` one makes a bare
switch, and a value is given once, as `--name value` or `--name=value`.
-h and --help print the flags of every command from the signatures.  A
usage error exits 2 with one line naming the flag.  One binder, `bind`,
then calls the function: it fills in the defaults, checks every numeric
value, given or default, and the rank behind --type and --m against
`Limits`, and parses --type once, all before any work starts.  It also
writes the report's header, the command's name, type label and bound
options, and passes that report as `rep` and the ceilings as `limits`
to a function that names them.
"""

from __future__ import annotations

import sys

# The package modules are imported inside the function that uses them, so
# that a command compiles only what it runs.

# The commands run by name: `alcoves NAME ...` is `verify --suite NAME ...`.
COMMANDS = ("coeffs", "alcoves", "ideals", "fk", "mcore")
# Arguments whose flag is not their name with dashes.
_RENAMED = {"rs": "--type"}
# Arguments the runner supplies, never flags: the ceilings, and the report
# whose header names the command, its type and its options.
SUPPLIED = ("limits", "rep")
# Switches every command takes, besides the arguments of its function.
SWITCHES = {"summary": "print a human-readable table instead of JSON",
            "allow_big": "multiply every work ceiling by 100; max_rank stays"}
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


def _untaken(name: str, flags, takes) -> ValueError:
    return ValueError(f"suite {name!r} does not take {', '.join(flags)}; "
                      f"it takes {', '.join(map(_flag, takes)) or 'no options'}")


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


def bind(name: str, fn, limits: Limits, **given) -> dict:
    """The keyword arguments that run `fn`, the function of command `name`,
    from the options given.  A default that is a function of the root
    system is worked out, and checked, once the type is parsed.  `limits`
    and `rep`, a report headed by `name`, the type label and every option
    bound (None written as ""), are passed if `fn` names them."""
    names, defaults = _signature(fn)
    takes = [arg for arg in names if arg not in SUPPLIED]
    extra = [_flag(arg) for arg in given if arg not in takes]
    if extra:
        raise _untaken(name, extra, takes)
    if "rs" in takes and "rs" not in given:
        raise ValueError(f"suite {name!r} requires a type label")
    values = dict(defaults, **given)
    _check_values(values, given, limits)
    if "m" in values:  # the m-core suite builds A_{m-1}
        _check_rank(f"--m {values['m']}", values["m"] - 1, limits)
    if "rs" in values:
        from .rootsystem import parse_label, parse_type
        label = values["rs"]
        _check_rank(f"--type {label}", parse_label(label)[1], limits)
        rs = values["rs"] = parse_type(label)
        values = {arg: v(rs) if callable(v) else v for arg, v in values.items()}
        _check_values(values, given, limits)
    from .report import Report
    rep = Report(name, values["rs"].label if "rs" in values else "",
                 {arg: "" if v is None else v
                  for arg, v in values.items() if arg != "rs"})
    supplied = {"limits": limits, "rep": rep}
    values.update((arg, supplied[arg]) for arg in SUPPLIED if arg in names)
    return values


def _tokens(args) -> dict:
    """Flag -> its value, or None for a flag given bare; each flag once."""
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
        if flag in options:
            raise ValueError(f"{flag} is given more than once")
        options[flag] = value
        i += 1
    return options


def parse(argv) -> tuple:
    """(name, fn, options) for a command line: the command, the function
    that runs it, and the options given by argument name, each converted
    by its annotation.  `alcoves NAME ...` is `verify --suite NAME ...`."""
    command = argv[0] if argv else ""
    options = _tokens(argv[1:])
    if command == "verify":
        name = options.pop("--suite", None)
    elif command in COMMANDS:
        name = command
    else:
        problem = f"unknown command {command!r}" if command else "no command"
        raise ValueError(f"{problem}; choose from {', '.join(COMMANDS)}, verify")
    from .suites import MODULES, load
    if name not in MODULES:
        problem = f"--suite {name} is not a suite" if name else \
            "verify requires --suite NAME"
        raise ValueError(f"{problem}; choose from {', '.join(MODULES)}")
    fn = load(name)
    names, _ = _signature(fn)
    takes = [arg for arg in names if arg not in SUPPLIED]
    by_flag = {_flag(arg): arg for arg in (*takes, *SWITCHES)}
    extra = [flag for flag in options if flag not in by_flag]
    if extra:
        raise _untaken(name, extra, takes)
    given = {}
    for flag, value in options.items():
        arg = by_flag[flag]
        kind = "bool" if arg in SWITCHES else fn.__annotations__.get(arg, "str")
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
        given[arg] = value
    return name, fn, given


def _synopsis(fn) -> str:
    """The flags of `fn`, from its signature: [--name VALUE=default]."""
    names, defaults = _signature(fn)
    words = []
    for name in names:
        if name in SUPPLIED:
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
    for name in COMMANDS:
        fn = SUITES[name]
        lines += [f"  {name:<9}{_synopsis(fn)}",
                  f"  {'':<9}{' '.join(fn.__doc__.split())}"]
    lines += ["  verify   --suite NAME, and the flags of that command:"]
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
        name, fn, options = parse(argv)
        summary = options.pop("summary", False)
        from .limits import load_limits
        limits = load_limits()
        if options.pop("allow_big", False):
            limits = limits.embiggen()
        report = fn(**bind(name, fn, limits, **options))
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
