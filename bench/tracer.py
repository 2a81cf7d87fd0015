"""Outside-in tracer for the alcoves package.

The tracer changes nothing under src/.  It wraps the entry points of each
layer (one layer per module) after the package is imported, and rebinds
every alias of a wrapped function across the alcoves.* modules: a
`from .alcove import enumerate_dominant` copies the reference into the
importing module, so patching only the defining module would miss the
callers in suites, cli and ideals.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the spans it directly contains, and a layer's self time
is the sum over its spans.  Counts are read at the layer boundary, from
arguments and return values only.  Totals stay in memory; `snapshot()`
returns them once the traced work is done.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "rootsystem", "alcove", "ideals", "series", "wedge",
          "linalg", "typea", "report")

# Entry points wrapped per layer.  Hot helpers that are called only from
# inside their own layer (evaluate_root, mu, _wedge_normalize, ...) are
# left alone: they cross no layer boundary, and a wrapper would cost more
# than their body.  Generator functions are skipped because a wrapper
# would time only the creation of the generator.
ENTRY_POINTS = {
    "cli": ("main",),
    "rootsystem": ("build_root_system", "parse_type", "casimir_eigenvalue",
                   "weyl_dimension", "heisenberg_count"),
    "alcove": ("enumerate_dominant", "enumerate_wf2", "counts_by_length",
               "chi_at_type_rho", "ideal_chain", "finite_part_length",
               "two_rho_pairing_killing"),
    "ideals": ("enumerate_abelian_ideals", "max_abelian_dimension",
               "ideal_to_sigma", "sigma_to_ideal", "dim_Ck", "is_ideal",
               "is_abelian", "verify_subset_bound",
               "verify_root_partition_bound"),
    "series": ("euler_power", "alcove_coefficient_series", "bott_series",
               "f_poly", "f_poly_direct", "bigraded_dims", "lehmer_probe"),
    "wedge": ("build_chevalley", "casimir_eigenspace_dim", "dg_ideal_dim",
              "max_casimir_eigenvalue", "verify_ideal_top_vectors"),
    "linalg": ("exact_rank", "nullity", "invert_rational"),
    "typea": ("weight_to_partition", "partition_to_weight", "m_core",
              "has_null_core", "count_null_cores",
              "verify_null_core_bijection"),
}
REPORT_METHODS = ("canonical", "summary")

# Time metrics: inclusive time of the outermost calls to these entry points.
TIME_METRICS = {
    "series.fk_s": ("series.f_poly",),
    "series.euler_power_s": ("series.euler_power",),
    "series.direct_s": ("series.f_poly_direct",),
    "series.bigraded_s": ("series.bigraded_dims",),
    "alcove.bfs_s": ("alcove.enumerate_dominant",),
    "alcove.chi_s": ("alcove.chi_at_type_rho",),
    "ideals.dfs_s": ("ideals.enumerate_abelian_ideals",),
    "ideals.bijection_s": ("ideals.ideal_to_sigma", "ideals.sigma_to_ideal"),
    "ideals.sweep_s": ("ideals.verify_subset_bound",
                       "ideals.verify_root_partition_bound"),
    "report.serialize_s": ("report.canonical", "report.summary"),
    "wedge.chevalley_s": ("wedge.build_chevalley",),
    "wedge.eigenspace_s": ("wedge.casimir_eigenspace_dim",),
    "wedge.dg_ideal_s": ("wedge.dg_ideal_dim",),
    "linalg.rank_s": ("linalg.exact_rank",),
    "rootsystem.build_s": ("rootsystem.build_root_system",),
    "rootsystem.query_s": ("rootsystem.casimir_eigenvalue",
                           "rootsystem.weyl_dimension",
                           "rootsystem.heisenberg_count"),
}
CALL_METRICS = {
    "series.fk_calls": ("series.f_poly",),
    "alcove.chi_calls": ("alcove.chi_at_type_rho",),
    "linalg.rank_calls": ("linalg.exact_rank",),
    "rootsystem.query_calls": TIME_METRICS["rootsystem.query_s"],
    "typea.mcore_calls": ("typea.m_core",),
}
COUNT_METRICS = ("series.order", "alcove.alcoves", "ideals.ideals",
                 "ideals.candidates", "report.bytes", "report.checks",
                 "wedge.blocks", "linalg.rows", "linalg.cells",
                 "linalg.nonzeros")


class Tracer:
    """Span stack, per-layer self times and boundary counts."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s = {}        # per entry point, outermost calls only
        self.layer_incl_s = dict.fromkeys(LAYERS, 0.0)  # outermost spans per layer
        self.calls = {}
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.missing = []
        self.trace_s = 0.0      # wrapper bookkeeping outside every span
        self._stack = []        # [layer, child_seconds] per open span
        self._depth = {}        # open spans per entry point
        self._layer_depth = dict.fromkeys(LAYERS, 0)
        self._seen = set()      # ids of cached results already counted
        self._keep = []         # keeps counted results alive, so ids stay unique
        self._pre_counts = {"linalg.exact_rank": self._count_rank,
                            "linalg.nullity": self._count_block}
        self._post_counts = {
            "series.euler_power": self._count_order,
            "alcove.enumerate_dominant": self._count_cached("alcove.alcoves"),
            "ideals.enumerate_abelian_ideals": self._count_cached("ideals.ideals"),
            "ideals.verify_subset_bound": self._count_candidates("subsets"),
            "ideals.verify_root_partition_bound": self._count_candidates("partitions"),
            "report.canonical": self._count_report,
            "report.summary": self._count_report}

    def install(self) -> None:
        """Wrap the entry points of every layer in the imported package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "alcoves" or name.startswith("alcoves."))]
        for layer, names in ENTRY_POINTS.items():
            mod = sys.modules.get(f"alcoves.{layer}")
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None or inspect.isgeneratorfunction(orig):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
        report_cls = getattr(sys.modules.get("alcoves.report"), "Report", None)
        for name in REPORT_METHODS:
            orig = getattr(report_cls, name, None)
            if orig is None:
                self.missing.append(f"report.{name}")
                continue
            setattr(report_cls, name, self._wrap("report", f"report.{name}", orig))

    def _wrap(self, layer, key, fn):
        stack = self._stack
        depth = self._depth
        layer_depth = self._layer_depth
        layer_incl = self.layer_incl_s
        incl = self.incl_s
        calls = self.calls
        self_s = self.self_s
        pre = self._pre_counts.get(key)
        post = self._post_counts.get(key)
        depth[key] = 0
        incl[key] = 0.0
        calls[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            depth[key] += 1
            layer_depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                depth[key] -= 1
                layer_depth[layer] -= 1
                self_s[layer] += dur - frame[1]
                calls[key] += 1
                if depth[key] == 0:
                    incl[key] += dur
                if layer_depth[layer] == 0:
                    layer_incl[layer] += dur
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(args, kwargs, result)
            # The caller's self time excludes the wrapper's bookkeeping,
            # which is reported as tracer time.
            book = perf_counter() - enter - dur
            self.trace_s += book
            if stack:
                stack[-1][1] += book
            return result

        return wrapper

    def _count_block(self, args, kwargs):
        # One linalg call straight from wedge is one weight block.
        if self._stack and self._stack[-1][0] == "wedge":
            self.counts["wedge.blocks"] += 1
        return args, kwargs

    def _count_rank(self, args, kwargs):
        self._count_block(args, kwargs)
        rows = _arg(args, kwargs, 0, "rows")
        if not isinstance(rows, (list, tuple)):
            # Counting must not consume a one-shot iterable.
            rows = list(rows)
            args, kwargs = (rows,) + args[1:], {k: v for k, v in kwargs.items() if k != "rows"}
        c = self.counts
        c["linalg.rows"] += len(rows)
        c["linalg.cells"] += sum(len(r) for r in rows)
        c["linalg.nonzeros"] += sum(1 for r in rows for x in r if x)
        return args, kwargs

    def _count_order(self, args, kwargs, result):
        self.counts["series.order"] += _arg(args, kwargs, 1, "order")

    def _count_cached(self, name):
        def count(args, kwargs, result):
            # The function is cached: a repeated call returns the same
            # tuple, which is not new work.
            if id(result) not in self._seen:
                self._seen.add(id(result))
                self._keep.append(result)
                self.counts[name] += len(result)
        return count

    def _count_candidates(self, field):
        def count(args, kwargs, result):
            self.counts["ideals.candidates"] += result[field]
        return count

    def _count_report(self, args, kwargs, result):
        self.counts["report.bytes"] += len(result.encode("utf-8"))
        self.counts["report.checks"] += len(args[0].checks)

    def snapshot(self) -> dict:
        """Plain totals, ready for JSON."""
        return {"self_s": dict(self.self_s, trace=self.trace_s),
                "incl_s": dict(self.incl_s),
                "layer_incl_s": dict(self.layer_incl_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "missing": list(self.missing)}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def per_layer_metrics(snap: dict) -> dict:
    """Named per-layer metrics from one snapshot (or a sum of snapshots)."""
    incl, calls, counts = snap["incl_s"], snap["calls"], snap["counts"]
    out = {}
    for name, keys in TIME_METRICS.items():
        out[name] = sum(incl.get(k, 0.0) for k in keys)
    for name, keys in CALL_METRICS.items():
        out[name] = sum(calls.get(k, 0) for k in keys)
    for name in COUNT_METRICS:
        if name != "linalg.cells":
            out[name] = counts.get(name, 0)
    out["typea.s"] = snap["layer_incl_s"].get("typea", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = snap["self_s"].get(layer, 0.0)
    out["alcove.alcoves_per_s"] = _rate(out["alcove.alcoves"], out["alcove.bfs_s"])
    out["ideals.candidates_per_s"] = _rate(out["ideals.candidates"], out["ideals.sweep_s"])
    cells = counts.get("linalg.cells", 0)
    out["linalg.density"] = counts.get("linalg.nonzeros", 0) / cells if cells else 0.0
    return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def add_snapshots(snaps) -> dict:
    """Sum several snapshots field by field."""
    fields = ("self_s", "incl_s", "layer_incl_s", "calls", "counts")
    total = {field: {} for field in fields}
    total["missing"] = []
    for snap in snaps:
        for field in fields:
            for k, v in snap[field].items():
                total[field][k] = total[field].get(k, 0) + v
        total["missing"] = sorted(set(total["missing"]) | set(snap["missing"]))
    return total
