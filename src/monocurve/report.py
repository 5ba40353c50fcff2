"""Structured pass/fail records produced by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


class VerificationFailure(Exception):
    """Raised by VerificationReport.require() when a check failed."""

    def __init__(self, record: dict):
        super().__init__(f"{record['check']}: fail")
        self.record = record


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

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_records(self) -> list[dict]:
        return [c.to_record(self.params) for c in self.checks]

    def require(self):
        """Raise VerificationFailure on the first failed check, if any."""
        for c in self.checks:
            if not c.passed:
                raise VerificationFailure(c.to_record(self.params))
