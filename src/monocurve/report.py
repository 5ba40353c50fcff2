"""Structured pass/fail records produced by the verification routines.

A report only records: the CLI turns it into output and an exit code,
and a caller that wants the failed checks filters report.checks on
CheckResult.passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    """Outcome of a single named check, with a witness when it failed."""

    name: str
    passed: bool
    detail: str = ""
    witness: dict | None = None

    def to_record(self, params) -> dict:
        rec = {
            "check": self.name,
            "params": params.to_dict(),
            "status": "pass" if self.passed else "fail",
        }
        if self.detail:
            rec["detail"] = self.detail
        if self.witness is not None:
            rec["witness"] = self.witness
        return rec


@dataclass
class VerificationReport:
    """All checks run against one parameter set."""

    params: object
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, detail="", witness=None):
        self.checks.append(CheckResult(name, passed, detail, witness))

    def to_records(self) -> list[dict]:
        return [c.to_record(self.params) for c in self.checks]
