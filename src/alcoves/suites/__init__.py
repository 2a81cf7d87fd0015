"""Every command of the command-line driver, one table of them.

Each suite cross-checks one identity through at least two independently
implemented routes; the listings `coeffs`, `alcoves`, `ideals` and `fk`
print what they compute, one check per row.  Claims carry the values
they compared as decimal-string witnesses.

The commands live one module per layer they check (`alcove`, `ideals`,
`series`, `typea`, `wedge` under this package), and `MODULES` maps each
name to its module: it is the one table of commands.  `load` imports
only that module, and each command imports the library modules it uses
when it runs, so a job compiles one module of this package and what its
command runs: the series suites `roots-f234` and `euler-char` never
compile `alcove` or `ideals`.  `SUITES`, every command by name, loads
every layer on first use.

A command is a function of the options it names (`rs` for `--type`,
`max_length` for `--max-length`, ...), with its defaults in its
signature, and of the arguments the binder supplies: `rep`, the report
whose header (the name, the type label and every option bound) the
binder has written, and `limits` if it reads a ceiling.  The command
line and `run_suite` bind it through the one binder, `cli.bind`, which
checks every numeric value, given or default, against `Limits` before
the command starts.
"""

from __future__ import annotations

from importlib import import_module

# Command `x-y` is the function `suite_x_y` of the module named here.
MODULES = {
    "alcoves": "alcove", "betti-ideals": "ideals", "bijection": "ideals",
    "bott": "alcove", "coeffs": "series", "euler-char": "series",
    "fk": "series", "gap": "alcove", "ideal-chains": "alcove",
    "ideals": "ideals", "interpolation": "series", "mcore": "typea",
    "parity": "alcove", "peterson": "ideals", "root-partitions": "ideals",
    "roots-f234": "series", "seven-numbers": "wedge", "sign": "alcove",
    "subset-bound": "ideals",
}


def load(name: str):
    """The function of command `name`, importing only its module."""
    module = import_module(f".{MODULES[name]}", __name__)
    return getattr(module, "suite_" + name.replace("-", "_"))


def run_suite(name: str, type_label: str | None, limits: Limits,
              **options) -> Report:
    from ..cli import bind

    fn = load(name)
    given = {k: v for k, v in dict(options, rs=type_label).items()
             if v is not None}
    return fn(**bind(name, fn, limits, **given))


def __getattr__(name):
    if name != "SUITES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    suites = globals()["SUITES"] = {suite: load(suite) for suite in MODULES}
    return suites
