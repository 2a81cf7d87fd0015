"""Benchmark of the alcoves package, measured from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding src/alcoves and
BENCHMARK.json).  CLI workloads run each job in a fresh interpreter, one at
a time; lib-queries runs library calls in one warm child process.  Nothing
under src/ is changed or imported into this process.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is
a separate run that reports the per-layer metrics: every job runs once
untraced and once through the tracer, and the difference is the tracing
overhead.  Either way the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics, and the exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import (ALCOVE_LENGTH, BLOCK, MAX_COORD, MCORE_M, MCORE_SIZE,
                   QUERY_TYPES, percentile)
from tracer import LAYERS, add_snapshots, per_layer_metrics
from workloads import CLI_JOBS, PREDICTIONS, QUERY_WORKLOAD, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
CLEARED_ENV = ("ALCOVES_LIMITS", "ALCOVES_BIG_TYPES")
SETUP_SAMPLES = 2           # fresh `import alcoves.cli` interpreters per pass
QUERY_CHILDREN = 8          # lib-queries set-ups per run; each serves 1/8 of it
TRACED_QUERIES = 2000       # queries in one traced lib-queries pass
JOB_TIMEOUT = 60.0          # seconds for one child process
RUN_BUDGET = 150.0          # no new pass starts after this many seconds


class Run:
    """What one benchmark invocation measured and checked."""

    def __init__(self, root: Path, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.env = child_env(root)
        self.digests = json.loads((BENCH_DIR / "digests.json").read_text())["stdout_sha256"]
        self.attempted = 0
        self.failed = 0         # requests (jobs or queries) that failed
        self.problems = []      # what went wrong, failed requests included
        self.started = time.monotonic()

    def fail(self, what: str, requests: int = 1) -> None:
        self.failed += requests
        self.problems.append(what)

    def over_budget(self) -> bool:
        return time.monotonic() - self.started > RUN_BUDGET

    def spawn(self, cmd, timeout: float = JOB_TIMEOUT):
        """Run one child to completion; returns (wall, cpu, proc, t_spawn)."""
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, env=self.env,
                                  cwd=self.root, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.monotonic() - t_spawn
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        return wall, cpu, proc, t_spawn

    def cli_job(self, job, traced: bool):
        """One CLI job, checked against its recorded stdout digest."""
        key = " ".join(job)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli", *job] if traced \
            else [sys.executable, "-m", "alcoves", *job]
        wall, cpu, proc, t_spawn = self.spawn(cmd)
        self.attempted += 1
        trace = None
        if proc is None:
            self.fail(f"{key}: timed out after {JOB_TIMEOUT:.0f} s")
            return wall, cpu, trace
        if traced:
            lines = proc.stderr.decode(errors="replace").splitlines()
            if lines and lines[-1].startswith("TRACE "):
                trace = json.loads(lines[-1][len("TRACE "):])
                trace["t_spawn"] = t_spawn
        problem = check_cli_output(proc, self.digests.get(key))
        if problem or (traced and trace is None):
            self.fail(f"{key}{' (traced)' if traced else ''}: {problem or 'no trace'}")
        return wall, cpu, trace

    def setup_samples(self):
        cmd = [sys.executable, "-c", "import alcoves.cli"]
        walls = []
        for _ in range(SETUP_SAMPLES):
            wall, _, proc, _ = self.spawn(cmd)
            if proc is None or proc.returncode != 0:
                self.fail("import alcoves.cli failed", requests=0)
            walls.append(wall)
        return walls

    def queries_child(self, index: int, *extra, seconds: float = 0.0):
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "queries",
               "--seed", str(self.seed), "--index", str(index), *extra]
        wall, cpu, proc, t_spawn = self.spawn(cmd, timeout=seconds + JOB_TIMEOUT)
        out = None
        if proc is None:
            self.fail(f"lib-queries child {index}: timed out", requests=0)
        else:
            lines = proc.stdout.decode(errors="replace").splitlines()
            try:
                out = json.loads(lines[-1])
            except (IndexError, ValueError):
                self.fail(f"lib-queries child {index}: exit {proc.returncode}, "
                          f"{proc.stderr.decode(errors='replace')[-300:]}", requests=0)
        if out is not None:
            self.attempted += out["queries"]
            if out["failed"]:
                self.fail(f"lib-queries child {index}: {out['failed']} wrong answers, "
                          f"first {out['failures']}", requests=out["failed"])
            elif proc.returncode != 0:
                self.fail(f"lib-queries child {index}: exit {proc.returncode}", requests=0)
            out["setup"] = out["t_ready"] - t_spawn
        return wall, cpu, out


def child_env(root: Path) -> dict:
    """The children's environment: this tree's src/ only, and no outer
    setting that could change the work."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def check_cli_output(proc, digest) -> str:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
    try:
        overall = json.loads(proc.stdout).get("overall")
    except ValueError:
        return "stdout is not JSON"
    if overall != "pass":
        return f'"overall" is {overall!r}'
    got = hashlib.sha256(proc.stdout).hexdigest()
    if got != digest:
        return f"stdout sha256 {got[:16]} differs from the recorded {str(digest)[:16]}"
    return ""


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux: the largest child reaped so far.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------- untraced
#
# Every time below is the median over many short repeats spread over the
# run: each CLI job once per pass, and lib-queries in passes of BLOCK calls.

def repeat_passes(run: Run, one_pass) -> list:
    """Whole passes, one after another, until the next one would end after
    --seconds; at least one."""
    results = []
    t0 = time.monotonic()
    while True:
        p0 = time.monotonic()
        results.append(one_pass())
        last = time.monotonic() - p0
        if time.monotonic() - t0 + last > run.seconds or run.over_budget():
            return results


def measure_cli(run: Run, jobs) -> tuple:
    order = list(jobs)
    rng = random.Random(run.seed)

    def one_pass():
        setup = run.setup_samples()
        rng.shuffle(order)
        return setup, {job: run.cli_job(job, traced=False)[:2] for job in order}

    passes = repeat_passes(run, one_pass)
    job_wall = {job: statistics.median(p[1][job][0] for p in passes) for job in jobs}
    job_cpu = {job: statistics.median(p[1][job][1] for p in passes) for job in jobs}
    wall_s = sum(job_wall.values())
    setup = [s for p in passes for s in p[0]]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "cpu_s": sum(job_cpu.values()),
        "peak_rss_mib": peak_rss_mib(),
        "request_p50_ms": percentile(job_wall.values(), 50) * 1000,
        "request_p99_ms": percentile(job_wall.values(), 99) * 1000,
        "requests_per_s": len(jobs) / wall_s,
    }
    lines = [f"passes {len(passes)}, set-ups {len(setup)}; per job, median wall "
             f"and cpu, fastest wall:"]
    lines += [f"  {job_wall[j]:8.4f} s  cpu {job_cpu[j]:8.4f} s  "
              f"{min(p[1][j][0] for p in passes):8.4f} s  alcoves {' '.join(j)}" for j in jobs]
    return metrics, lines


def measure_queries(run: Run) -> tuple:
    outs = []
    share = run.seconds / QUERY_CHILDREN
    for index in range(QUERY_CHILDREN):
        _, _, out = run.queries_child(index, "--seconds", str(share), seconds=share)
        if out is None:
            raise SystemExit("lib-queries child failed; see the lines above")
        outs.append(out)
    blocks = {key: [v for out in outs for v in out[key]]
              for key in ("block_wall", "block_cpu", "block_p50", "block_p99")}
    med = {key: statistics.median(v) for key, v in blocks.items()}
    metrics = {
        "setup_s": statistics.median(out["setup"] for out in outs),
        "wall_s": med["block_wall"],
        "cpu_s": med["block_cpu"],
        "peak_rss_mib": peak_rss_mib(),
        "request_p50_ms": med["block_p50"] / 1e6,
        "request_p99_ms": med["block_p99"] / 1e6,
        "requests_per_s": BLOCK / med["block_wall"],
    }
    lines = [f"{sum(out['queries'] for out in outs)} queries in "
             f"{len(blocks['block_wall'])} passes of {BLOCK} (p99 has "
             f"{BLOCK // 100} samples above it) in {QUERY_CHILDREN} warm "
             f"processes; each metric is its median over the passes"]
    return metrics, lines


# ------------------------------------------------------------------ traced

def traced_pass_cli(run: Run, jobs) -> dict:
    snaps, wall, untraced, startup = [], 0.0, 0.0, 0.0
    for job in jobs:
        untraced += run.cli_job(job, traced=False)[0]
        w, _, trace = run.cli_job(job, traced=True)
        wall += w
        if trace is not None:
            snaps.append(trace["trace"])
            startup += trace["t_imported"] - trace["t_spawn"]
    return {"snap": add_snapshots(snaps), "wall": wall, "traced_wall": wall,
            "untraced": untraced, "startup": startup}


def traced_pass_queries(run: Run) -> dict:
    count = ("--count", str(TRACED_QUERIES))
    untraced, _, _ = run.queries_child(0, *count)
    traced, _, out = run.queries_child(0, *count, "--trace")
    if out is None:
        raise SystemExit("traced lib-queries child failed; see the lines above")
    # The job here is the library work, warm-up plus the timed calls,
    # not the child process around it.
    return {"snap": out["trace"], "wall": out["call_wall"], "traced_wall": traced,
            "untraced": untraced, "startup": 0.0}


def measure_traced(run: Run, workload: str) -> tuple:
    if workload == QUERY_WORKLOAD:
        passes = repeat_passes(run, lambda: traced_pass_queries(run))
    else:
        passes = repeat_passes(run, lambda: traced_pass_cli(run, CLI_JOBS[workload]))
    per_pass = [per_layer_metrics(p["snap"]) for p in passes]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                run.fail(f"count {name} differs between traced passes: {values}",
                         requests=0)
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.coverage"] = statistics.median(
        (p["startup"] + sum(p["snap"]["self_s"].values())) / p["wall"] for p in passes)
    metrics["trace.overhead_s"] = statistics.median(p["traced_wall"] for p in passes) - \
        statistics.median(p["untraced"] for p in passes)
    return metrics, passes


# ------------------------------------------------------------------ output

def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "alcoves").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def header(root: Path, spec: dict, args) -> list:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    lines = [f"workload {args.workload}: {why.get(args.workload, '')}",
             f"seed {args.seed}, {args.seconds} s, trace {args.trace}; "
             f"python {platform.python_version()}, nproc {os.cpu_count()}, "
             f"git {git_sha(root)}, src sha256 {source_digest(root)}",
             f"children: PYTHONPATH=src, PYTHONHASHSEED=0, unset {', '.join(CLEARED_ENV)}"]
    if args.workload in CLI_JOBS:
        lines += ["jobs (closed loop, one client, one child at a time):"]
        lines += [f"  alcoves {' '.join(job)}" for job in CLI_JOBS[args.workload]]
    else:
        lines += [f"queries (closed loop, one client): types {' '.join(QUERY_TYPES)}; "
                  f"alcove weights to length {ALCOVE_LENGTH}, random coordinates "
                  f"0..{MAX_COORD}; m_core with m in {MCORE_M}, sizes to {MCORE_SIZE}"]
    return lines


def share_lines(passes) -> list:
    """Per-layer share of job wall time, summed over the traced passes."""
    wall = sum(p["wall"] for p in passes)
    snap = add_snapshots([p["snap"] for p in passes])
    startup = sum(p["startup"] for p in passes)
    parts = [("startup", startup)] + [(layer, snap["self_s"].get(layer, 0.0))
                                      for layer in LAYERS]
    parts.append(("trace", snap["self_s"].get("trace", 0.0)))
    parts.append(("unaccounted", wall - sum(v for _, v in parts)))
    return ["per-layer self time, share of job wall time:"] + [
        f"  {name:<12} {v:9.4f} s  {100 * v / wall:6.2f} %" for name, v in parts]


def prediction_lines(workload: str) -> list:
    lines = ["predictions (layer metrics -> end-to-end metrics it should move):"]
    for layer_metrics, e2e, where in PREDICTIONS:
        if workload in where:
            lines.append(f"  {', '.join(layer_metrics)} -> {', '.join(e2e)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "alcoves" / "cli.py").is_file():
        sys.stderr.write("error: run from the root of the alcoves source tree "
                         "(src/alcoves/cli.py not found)\n")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run = Run(root, args.seed, args.seconds)
    print("\n".join(header(root, spec, args)), flush=True)

    if args.trace:
        wanted = spec["per_layer"]
        metrics, passes = measure_traced(run, args.workload)
        lines = share_lines(passes) + prediction_lines(args.workload)
        lines.append(f"traced passes {len(passes)}; trace.coverage "
                     f"{metrics['trace.coverage']:.4f}")
        missing = passes[0]["snap"]["missing"]
        if missing:
            lines.append(f"entry points not found, their metrics read 0: {', '.join(missing)}")
    else:
        wanted = spec["end_to_end"]
        if args.workload == QUERY_WORKLOAD:
            metrics, lines = measure_queries(run)
        else:
            metrics, lines = measure_cli(run, CLI_JOBS[args.workload])
    lines += [f"metrics ({run.attempted} attempted, {run.failed} failed, "
              f"fail_ratio {run.failed / max(run.attempted, 1):.6f}):"]
    lines += [f"  {m['name']:<28} {metrics[m['name']]:>16.6f} {m['unit']}" for m in wanted]
    listed = {m["name"] for m in wanted}
    extra = [name for name in metrics if name not in listed]
    if extra:
        # Request latency percentiles are single-job times on the CLI
        # workloads, too noisy on a shared host to carry a bound.
        lines += ["not bounded:"] + [f"  {name:<28} {metrics[name]:>16.6f} ms" for name in extra]
    lines += [f"FAILED: {f}" for f in run.problems[:20]]
    print("\n".join(lines))
    result = {"correct": not run.problems, "attempted": max(run.attempted, 1),
              "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result), flush=True)
    return 0 if not run.problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
