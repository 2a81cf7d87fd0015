"""Every benchmark job replayed in process: its stdout must hash to the
digest recorded in bench/digests.json, and the lib-queries stream must
pass its own checks, so output drift shows here before the benchmark
runs.  Only reads bench/."""

import hashlib
import json
from pathlib import Path

import pytest

from alcoves.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text())["stdout_sha256"]


@pytest.mark.parametrize("job", sorted(DIGESTS))
def test_bench_job_stdout_matches_its_digest(capsys, monkeypatch, job):
    monkeypatch.delenv("ALCOVES_LIMITS", raising=False)
    code = main(job.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[job]


def test_lib_queries_stream_passes_its_checks(monkeypatch):
    """3000 queries of one seeded lib-queries stream, answered after its
    warm-up: every answer of weyl_dimension, casimir_eigenvalue,
    chi_at_type_rho and m_core must pass the benchmark's own check."""
    monkeypatch.syspath_prepend(str(BENCH))
    from child import QueryStream

    stream = QueryStream(1301, 0)
    stream.warm_up()
    names = set()
    for _ in range(3000):
        name, args, extra = stream.next_query()
        result = stream.function(name)(*args)
        assert stream.check(name, args, extra, result), (name, args[1:], result)
        names.add(name)
    assert names == {"weyl_dimension", "casimir_eigenvalue",
                     "chi_at_type_rho", "m_core"}
