"""Verification suites behind the command-line driver.

Each suite cross-checks one identity through at least two independently
implemented routes and returns a deterministic Report.  Claims carry the
values they compared as decimal-string witnesses.

The suites live one module per layer they check (`alcove`, `ideals`,
`series`, `typea`, `wedge` under this package), and `MODULES` maps each
suite name to its module.  `load` imports only that module, and each
suite imports the library modules it uses when it runs, so a `verify`
job compiles one suite module and what that suite runs: the series
suites `roots-f234` and `euler-char` never compile `alcove` or `ideals`.
`SUITES`, every suite by name, loads every layer on first use.

A suite is a function of the options it names (`rs` for `--type`,
`limits` if it reads a ceiling, `max_length` for `--max-length`, ...),
with its defaults in its signature.  The command line and `run_suite`
bind it through the one binder, `cli.bind`, which checks every numeric
value, given or default, against `Limits` before the suite starts.
"""

from __future__ import annotations

from importlib import import_module

# Suite `x-y` is the function `suite_x_y` of the module named here.
MODULES = {
    "betti-ideals": "ideals", "bijection": "ideals", "bott": "alcove",
    "euler-char": "series", "gap": "alcove", "ideal-chains": "alcove",
    "interpolation": "series", "mcore": "typea", "parity": "alcove",
    "peterson": "ideals", "root-partitions": "ideals",
    "roots-f234": "series", "seven-numbers": "wedge", "sign": "alcove",
    "subset-bound": "ideals",
}


def load(name: str):
    """The function of suite `name`, importing only its module."""
    module = import_module(f".{MODULES[name]}", __name__)
    return getattr(module, "suite_" + name.replace("-", "_"))


def run_suite(name: str, type_label: str | None, limits: Limits,
              **options) -> Report:
    from ..cli import bind

    fn = load(name)
    given = {k: v for k, v in dict(options, rs=type_label).items()
             if v is not None}
    return fn(**bind(f"suite {name!r}", fn, limits, **given))


def __getattr__(name):
    if name != "SUITES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    suites = globals()["SUITES"] = {suite: load(suite) for suite in MODULES}
    return suites
