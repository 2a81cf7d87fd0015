"""Child processes of the benchmark, one fresh interpreter each.

    python3 bench/child.py cli ARGV...
        Runs one CLI job through alcoves.cli.main(ARGV) with the tracer
        installed.  The job's stdout is untouched; the trace goes to the
        last line of stderr, prefixed with "TRACE ".

    python3 bench/child.py queries --seed N --index I (--seconds T | --count Q) [--trace]
        The lib-queries workload: one warm process that builds its pools
        (warm-up), then answers a seeded stream of point queries, for T
        seconds or for exactly Q queries.  Prints one JSON object.

Both modes need the package on PYTHONPATH; bench/run.py sets it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from tracer import Tracer

QUERY_TYPES = ("A4", "B3", "C4", "D5", "E6", "F4", "G2")
ALCOVE_LENGTH = 8       # alcove weights sampled from lengths 0..8
MAX_COORD = 6           # random weights have coordinates 0..6
MCORE_M = (2, 6)        # m_core moduli
MCORE_SIZE = 40         # partitions of at most this size
BLOCK = 1000            # queries per block; a block is one lib-queries pass


def run_cli(argv) -> int:
    import alcoves.cli

    t_imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    t_ready = time.monotonic()
    code = alcoves.cli.main(argv)
    sys.stdout.flush()
    snap = tracer.snapshot()
    snap["self_s"]["trace"] += t_ready - t_imported
    sys.stderr.write("TRACE " + json.dumps({"t_imported": t_imported, "trace": snap}) + "\n")
    return code


def percentile(values, q: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -int(-len(ordered) * q // 100)) - 1]


def _hook_content_dim(weight) -> int:
    """dim of the SL(n) irreducible with this highest weight, n = rank + 1,
    by the hook-content formula: an independent route for type A."""
    n = len(weight) + 1
    parts = [sum(weight[i:]) for i in range(len(weight))]
    parts = [p for p in parts if p > 0]
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    num = den = 1
    for i, p in enumerate(parts):
        for j in range(p):
            num *= n + j - i
            den *= (p - j - 1) + (conj[j] - i - 1) + 1
    return num // den if num % den == 0 else -1


class QueryStream:
    """The seeded lib-queries stream and the checks on its answers.

    Half of the weight queries use alcove weights, whose answers the
    alcove enumeration predicts; the other half use random dominant
    weights.  Checks run outside the timed call and use the library
    functions as they were before any tracer was installed.
    """

    def __init__(self, seed: int, index: int):
        from alcoves import alcove, rootsystem, typea

        self.rng = random.Random(f"lib-queries:{seed}:{index}")
        self.rootsystem, self.alcove, self.typea = rootsystem, alcove, typea
        self.check_m_core = typea.m_core
        self.pools = {}

    def warm_up(self) -> None:
        """Builds every root system and the alcove pools, filling the
        library's caches the way a long-lived caller would."""
        for label in QUERY_TYPES:
            rs = self.rootsystem.parse_type(label)
            self.pools[label] = (rs, [(e.lam, e.length, e.cas) for e in
                                      self.alcove.enumerate_dominant(rs, ALCOVE_LENGTH)])

    def next_query(self):
        rng = self.rng
        label = rng.choice(QUERY_TYPES)
        rs, pool = self.pools[label]
        op = rng.randrange(4)
        if op == 3:
            m = rng.randint(*MCORE_M)
            left = rng.randint(0, MCORE_SIZE)
            parts = []
            while left:
                parts.append(rng.randint(1, left))
                left -= parts[-1]
            order_seed = rng.getrandbits(32)
            return ("m_core", (tuple(sorted(parts, reverse=True)), m),
                    (order_seed,))
        name = ("weyl_dimension", "casimir_eigenvalue", "chi_at_type_rho")[op]
        if rng.random() < 0.5:
            lam, length, cas = rng.choice(pool)
            return (name, (rs, lam), (label, length, cas))
        lam = tuple(rng.randint(0, MAX_COORD) for _ in range(rs.rank))
        return (name, (rs, lam), (label, None, None))

    def function(self, name):
        module = self.typea if name == "m_core" else \
            self.alcove if name == "chi_at_type_rho" else self.rootsystem
        return getattr(module, name)

    def check(self, name, args, extra, result) -> bool:
        if name == "m_core":
            order = random.Random(extra[0])
            other = self.check_m_core(*args, choose=lambda movable: order.choice(movable))
            return other == result
        label, length, cas = extra
        if name == "weyl_dimension":
            if not isinstance(result, int) or result < 1:
                return False
            return label != "A4" or result == _hook_content_dim(args[1])
        if name == "casimir_eigenvalue":
            return isinstance(result, Fraction) and result >= 0 and \
                (cas is None or result == cas)
        if length is not None:
            return result == (-1) ** length
        return result in (-1, 0, 1)


def run_queries(args) -> dict:
    import alcoves.cli  # noqa: F401  (set-up is import alcoves.cli plus warm-up)

    stream = QueryStream(args.seed, args.index)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t0 = time.monotonic()
    stream.warm_up()
    t_ready = time.monotonic()
    call_wall = t_ready - t0
    lat_ns, failures = [], []
    blocks = {"block_wall": [], "block_cpu": [], "block_p50": [], "block_p99": []}
    deadline = t_ready + args.seconds if args.seconds is not None else None
    done = 0
    while True:
        if args.count is not None and done >= args.count:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        n = BLOCK if args.count is None else min(BLOCK, args.count - done)
        first = len(lat_ns)
        cpu_ns = 0
        for _ in range(n):
            name, qargs, extra = stream.next_query()
            fn = stream.function(name)
            c = time.process_time_ns()
            s = time.perf_counter_ns()
            try:
                result = fn(*qargs)
            except (ValueError, ArithmeticError, LookupError, AssertionError) as exc:
                result = exc
            lat_ns.append(time.perf_counter_ns() - s)
            cpu_ns += time.process_time_ns() - c
            if isinstance(result, Exception) or not stream.check(name, qargs, extra, result):
                failures.append(f"{name}{qargs[1:]!r}: {result!r}")
        # A block's times are those of its library calls only: generating
        # and checking the queries is not the workload.
        blocks["block_wall"].append(sum(lat_ns[first:]) / 1e9)
        blocks["block_cpu"].append(cpu_ns / 1e9)
        blocks["block_p50"].append(percentile(lat_ns[first:], 50))
        blocks["block_p99"].append(percentile(lat_ns[first:], 99))
        done += n
    call_wall += sum(lat_ns) / 1e9
    out = {"t_ready": t_ready, "queries": done,
           "failed": len(failures), "failures": failures[:5],
           "call_wall": call_wall, "trace": None, **blocks}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "cli":
        return run_cli(sys.argv[2:])
    parser = argparse.ArgumentParser(prog="child.py queries")
    parser.add_argument("mode", choices=("queries",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if (args.seconds is None) == (args.count is None):
        parser.error("give exactly one of --seconds and --count")
    out = run_queries(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 1 if out["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
