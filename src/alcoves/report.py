"""Deterministic, machine-readable check reports.

A report is a list of check records plus identifying metadata.  The
canonical serialization is key-sorted JSON with LF line endings and all
numeric witness values rendered as decimal strings, so identical
invocations produce byte-identical documents and no consumer ever has
to parse a big integer.
"""

from __future__ import annotations

import json

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


def _stringify(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_stringify(v) for v in value) + "]"
    return str(value)


class Check:
    __slots__ = ("claim", "status", "witness", "detail")

    def __init__(self, claim: str, status: str, witness: dict | None = None,
                 detail: str = ""):
        self.claim = claim
        self.status = status
        self.witness = {} if witness is None else witness
        self.detail = detail

    def as_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "status": self.status,
            "witness": {k: _stringify(v) for k, v in sorted(self.witness.items())},
        }
        if self.detail:
            out["detail"] = self.detail
        return out


class Report:
    def __init__(self, suite: str, type_label: str = "",
                 params: dict | None = None):
        self.suite = suite
        self.type_label = type_label
        self.params = {} if params is None else params
        self.checks = []

    def add(self, claim: str, ok: bool, witness: dict | None = None,
            detail: str = "") -> Check:
        check = Check(claim, PASS if ok else FAIL, witness, detail)
        self.checks.append(check)
        return check

    def skip(self, claim: str, detail: str = "") -> Check:
        check = Check(claim, SKIP, detail=detail)
        self.checks.append(check)
        return check

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    @property
    def overall(self) -> str:
        """fail if any check failed; skipped if every check was skipped."""
        if self.failed:
            return FAIL
        return SKIP if {c.status for c in self.checks} == {SKIP} else PASS

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, SKIP: 2}[self.overall]

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "type": self.type_label,
            "params": {k: _stringify(v) for k, v in sorted(self.params.items())},
            "checks": [c.as_dict() for c in self.checks],
            "overall": self.overall,
        }

    def canonical(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"

    def summary(self) -> str:
        """Human-readable table: one line per check."""
        width = max((len(c.claim) for c in self.checks), default=10)
        lines = [f"suite: {self.suite}"
                 + (f"  type: {self.type_label}" if self.type_label else "")]
        if self.params:
            lines.append("params: " + ", ".join(
                f"{k}={_stringify(v)}" for k, v in sorted(self.params.items())))
        for c in self.checks:
            mark = {PASS: "ok", FAIL: "FAIL", SKIP: "skip"}[c.status]
            extras = "  ".join(f"{k}={v}" for k, v in sorted(
                {k: _stringify(v) for k, v in c.witness.items()}.items()))
            lines.append(f"  [{mark:4}] {c.claim:<{width}}  {extras}".rstrip())
            if c.detail:
                lines.append(f"         {c.detail}")
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"
