"""Deterministic, machine-readable check reports.

A report is a list of check records plus identifying metadata.  The
canonical serialization is key-sorted JSON with LF line endings and all
numeric witness values rendered as decimal strings, so identical
invocations produce byte-identical documents and no consumer ever has
to parse a big integer.  Since every leaf is a string, `canonical`
writes the fixed schema itself, byte for byte what `json.dumps(as_dict(),
sort_keys=True, indent=2, ensure_ascii=False)` would, without loading
`json`.
"""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"

# JSON string escapes with ensure_ascii=False: the quote, the backslash
# and the C0 controls; everything else, U+007F and U+2028 too, is kept.
_ESCAPES = str.maketrans({
    **{chr(i): f"\\u{i:04x}" for i in range(0x20)},
    "\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r",
    '"': '\\"', "\\": "\\\\"})


def _quote(text: str) -> str:
    # A printable string holds no control character; most need no escape.
    if text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + text.translate(_ESCAPES) + '"'


def _block(items: list, pad: str, brackets: str = "{}") -> str:
    """A JSON object or array of rendered items, indented by `pad`."""
    if not items:
        return brackets
    inner = f",\n{pad}  ".join(items)
    return f"{brackets[0]}\n{pad}  {inner}\n{pad}{brackets[1]}"


def _strings(mapping: dict, pad: str) -> str:
    """A JSON object of `mapping`'s values as strings, keys sorted."""
    return _block([f"{_quote(k)}: {_quote(_stringify(v))}"
                   for k, v in sorted(mapping.items())], pad)


def _stringify(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([_stringify(v) for v in value]) + "]"
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
        checks = [_block([f'"claim": {_quote(c.claim)}',
                          *([f'"detail": {_quote(c.detail)}'] if c.detail else []),
                          f'"status": {_quote(c.status)}',
                          f'"witness": {_strings(c.witness, "      ")}'], "    ")
                  for c in self.checks]
        return _block([f'"checks": {_block(checks, "  ", "[]")}',
                       f'"overall": {_quote(self.overall)}',
                       f'"params": {_strings(self.params, "  ")}',
                       f'"suite": {_quote(self.suite)}',
                       f'"type": {_quote(self.type_label)}'], "") + "\n"

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
