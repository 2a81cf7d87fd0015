"""The benchmark's workloads and what each layer metric is predicted to
move.  Why each workload was chosen is its `why` in BENCHMARK.json.

Every CLI workload is a fixed list of jobs run closed loop by one client:
the next job starts only after the previous one has exited, and only one
child process runs at a time.  Sizes are kept so that one pass of each
list takes a few seconds and no job much more than one, so that one run
repeats every job many times and its medians rest on many samples.  The
larger jobs left out on purpose are named in the workload's `why`.
"""

CLI_JOBS = {
    "cli-series-wedge": (
        ("fk", "--kmax", "28", "--eval", "24", "--lehmer"),
        ("coeffs", "--type", "A4", "--kmax", "250", "--method", "series", "--allow-big"),
        ("verify", "--suite", "euler-char", "--type", "E8", "--kmax", "48"),
        ("verify", "--suite", "roots-f234", "--kmax", "12"),
        ("verify", "--suite", "interpolation"),
        ("verify", "--suite", "seven-numbers", "--type", "G2"),
        ("verify", "--suite", "seven-numbers", "--type", "A3", "--allow-big"),
    ),
    "cli-alcove": (
        ("ideals", "--type", "E6"),
        ("alcoves", "--type", "A4", "--max-length", "16"),
        ("verify", "--suite", "bott", "--type", "A3", "--max-length", "30"),
        ("verify", "--suite", "subset-bound", "--type", "F4", "--kmax", "6"),
        ("verify", "--suite", "root-partitions", "--type", "A4", "--cas-ceiling", "10"),
        ("mcore", "--m", "4", "--kmax", "4", "--max-length", "10"),
    ),
}
QUERY_WORKLOAD = "lib-queries"
WORKLOADS = tuple(CLI_JOBS) + (QUERY_WORKLOAD,)

# Layer metric -> end-to-end metrics it should move, on which workload.
PREDICTIONS = (
    (("series.fk_s", "series.fk_calls", "series.euler_power_s", "series.order",
      "series.direct_s", "series.bigraded_s"),
     ("wall_s", "cpu_s"), ("cli-series-wedge",)),
    (("alcove.bfs_s", "alcove.alcoves", "alcove.alcoves_per_s", "ideals.dfs_s",
      "ideals.ideals", "ideals.bijection_s", "ideals.sweep_s",
      "ideals.candidates", "ideals.candidates_per_s", "report.serialize_s",
      "report.bytes", "report.checks"),
     ("wall_s",), ("cli-alcove",)),
    (("alcove.bfs_s",), ("setup_s",), ("lib-queries",)),
    (("wedge.chevalley_s", "wedge.eigenspace_s", "wedge.dg_ideal_s",
      "wedge.blocks", "linalg.rank_s", "linalg.rank_calls", "linalg.rows",
      "linalg.nonzeros", "linalg.density"),
     ("wall_s", "cpu_s", "peak_rss_mib"), ("cli-series-wedge",)),
    (("rootsystem.query_s", "rootsystem.query_calls"),
     ("request_p50_ms", "requests_per_s"), ("lib-queries",)),
    (("rootsystem.query_s", "rootsystem.query_calls"),
     ("wall_s",), ("cli-alcove",)),
    (("alcove.chi_s", "alcove.chi_calls"), ("request_p99_ms",), ("lib-queries",)),
    (("typea.s", "typea.mcore_calls"), ("requests_per_s",), ("lib-queries",)),
    (("rootsystem.build_s", "cli.self_s"), ("setup_s", "wall_s"), WORKLOADS),
)
