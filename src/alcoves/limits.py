"""Scale ceilings for the brute-force sweeps, in one place.

Defaults keep every CLI invocation at desk scale.  A JSON file named by
the ALCOVES_LIMITS environment variable overrides individual fields, and
--allow-big multiplies every ceiling by 100 for one invocation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

ENV_VAR = "ALCOVES_LIMITS"
BIG_FACTOR = 100  # --allow-big multiplies every ceiling by this


@dataclass(frozen=True)
class Limits:
    subset_candidates: int = 2_000_000      # k-subset sweeps (roots, wedge bases)
    partition_candidates: int = 2_000_000   # root-partition and core sweeps
    chevalley_dim: int = 14                 # largest algebra built as a table
    wedge_matrix: int = 3432                # dominant-block rows per wedge degree
    max_length: int = 64                    # alcove enumeration depth
    max_order: int = 128                    # series truncation order
    max_rank: int = 8                       # rank of --type, and m - 1 for --m

    def embiggen(self) -> "Limits":
        return Limits(**{f.name: getattr(self, f.name) * BIG_FACTOR
                         for f in fields(Limits)})


def load_limits(path: str | None = None) -> Limits:
    """Defaults, overridden by a JSON file from the environment or `path`."""
    limits = Limits()
    path = path or os.environ.get(ENV_VAR)
    if not path:
        return limits
    try:
        with open(path, encoding="utf-8") as fh:
            data = dict(json.load(fh))
        unknown = set(data) - {f.name for f in fields(Limits)}
        if unknown:
            raise ValueError(f"unknown limit fields {sorted(unknown)}")
        return replace(limits, **{k: int(v) for k, v in data.items()})
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"{ENV_VAR} file {path}: {exc}") from None
