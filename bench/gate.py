"""Correctness gate for `congame solve --format json --verify` reports.

Every job must exit with a code in its expected class (0 for exact or
eps-approx, 2 for capped) and print a report whose witness strategy passed
``--verify``.  On the default seed each job's exit code, status and exact
values must also equal the recorded reference; a changed witness or
tie-break is not a failure, so the strategy is not compared.

Outcomes:

* ``ok``;
* ``digit_limit``: exit 1 with CPython's "Exceeds the limit (4300 digits)
  for integer string conversion".  This is a known defect of the program on
  valid inputs whose exact values grow past 4300 decimal digits; the
  benchmark runs the program in its own process and leaves the limit alone.
  On the default seed an exit code other than the recorded one is a
  ``mismatch`` instead;
* ``error``: any other exit 1, a refusal of a valid input;
* ``exception``: an exception escaped ``cli.main``;
* ``unverified``: the report has a witness strategy but not
  ``verified: true``;
* ``mismatch``: an exit code other than the reference's or outside the
  expected class, an unreadable report, a difference from the reference, or
  a repeated job whose report bytes changed.

All but ``ok`` count as failed.  All but ``ok`` and ``digit_limit`` are a
wrong output and make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

WRONG = frozenset({"error", "exception", "unverified", "mismatch"})
DIGIT_LIMIT_TEXT = "integer string conversion"


def values_digest(values: dict) -> str:
    exact = {state: cell["exact"] for state, cell in values.items()}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()[:16]


def signature(code: int, report: dict) -> str:
    """What the reference records for one job: exit code, status and a
    digest of the exact values."""
    return f"{code}:{report['status']}:{values_digest(report['values'])}"


def bits_max(report: dict) -> int:
    """Largest numerator or denominator bit length among reported values."""
    best = 0
    for cell in report["values"].values():
        value = Fraction(cell["exact"])
        best = max(best, value.numerator.bit_length(), value.denominator.bit_length())
    return best


def verified(report: dict) -> bool:
    """``--verify`` passed, or there was no witness to verify: value
    iteration stopped by its cap may have no value-achieving selector."""
    if "verified" in report:
        return report["verified"] is True
    return report.get("strategy") is None and "verify_note" in report


class Gate:
    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.report_sha: dict[str, str] = {}

    def check(self, job, code, out: str, err: str) -> tuple[str, dict | None, str]:
        """Classify one finished job; returns (outcome, report, sha256)."""
        sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if not isinstance(code, int):
            return "exception", None, sha
        expected = self.reference.get(job.id) if self.reference is not None else None
        if expected is not None and int(expected.split(":")[0]) != code:
            return "mismatch", None, sha
        if code == 1:
            return ("digit_limit" if DIGIT_LIMIT_TEXT in err else "error"), None, sha
        if code not in job.expect_codes:
            return "mismatch", None, sha
        try:
            report = json.loads(out)
            sig = signature(code, report)
        except (ValueError, KeyError, TypeError):
            return "mismatch", None, sha
        if not verified(report):
            return "unverified", report, sha
        if expected is not None and expected != sig:
            return "mismatch", report, sha
        first = self.report_sha.setdefault(job.id, sha)
        if first != sha:
            return "mismatch", report, sha
        return "ok", report, sha
