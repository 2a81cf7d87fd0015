"""Every benchmark job replayed in process: its stdout must hash to the
digest recorded in bench/digests.json, so output drift shows here before
the benchmark runs.  Only reads bench/."""

import hashlib
import json
from pathlib import Path

import pytest

from alcoves.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" /
                      "digests.json").read_text())["stdout_sha256"]


@pytest.mark.parametrize("job", sorted(DIGESTS))
def test_bench_job_stdout_matches_its_digest(capsys, monkeypatch, job):
    monkeypatch.delenv("ALCOVES_LIMITS", raising=False)
    code = main(job.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[job]
