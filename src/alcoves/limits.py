"""Scale ceilings for the brute-force sweeps, in one place.

Defaults keep every CLI invocation at desk scale.  A JSON file named by
the ALCOVES_LIMITS environment variable overrides individual fields, and
--allow-big multiplies every ceiling but max_rank by 100 for one run.
"""

from __future__ import annotations

import os

ENV_VAR = "ALCOVES_LIMITS"
BIG_FACTOR = 100  # --allow-big multiplies every ceiling but max_rank by this


class Limits:
    """An immutable set of ceilings, each a non-negative integer.  The
    defaults are class attributes, so that a default argument can read
    `Limits.<field>`; an instance stores only the fields given by keyword.
    No two fields bound the same work: `max_candidates` bounds every
    candidate sweep, `max_rank` the Chevalley table and the 2^rank abelian
    ideals of a type, and `wedge_matrix` the wedge oracles."""

    max_candidates: int = 2_000_000         # root subsets and partitions, weights
    wedge_matrix: int = 3432                # dominant-block rows per wedge degree
    max_length: int = 64                    # alcove enumeration depth
    max_order: int = 128                    # series truncation order
    max_rank: int = 8                       # rank of --type, and m - 1 for --m

    def __init__(self, **fields):
        unknown = set(fields) - set(FIELDS)
        if unknown:
            raise TypeError(f"unknown limit fields {sorted(unknown)}")
        for name, value in fields.items():
            if type(value) is not int or value < 0:
                raise ValueError(f"field {name!r} must be a non-negative "
                                 f"integer, not {value!r}")
        vars(self).update(fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Limits is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def embiggen(self) -> "Limits":  # not max_rank: a type has 2^rank ideals
        return Limits(**{name: getattr(self, name) * (
            1 if name == "max_rank" else BIG_FACTOR) for name in FIELDS})


FIELDS = tuple(Limits.__annotations__)


def load_limits(path: str | None = None) -> Limits:
    """Defaults, overridden by a JSON file from the environment or `path`."""
    path = path or os.environ.get(ENV_VAR)
    if not path:
        return Limits()
    import json  # only when a limits file is named

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"holds a {type(data).__name__}, not a JSON "
                             "object of limit fields")
        return Limits(**data)
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{ENV_VAR} file {path}: {exc}") from None
