"""Correctness gate for CLI outputs, independent of the code under test.

Everything expected here is derived from the paper's closed forms and
plain integer arithmetic; nothing is imported from ``monocurve``.  Each
``check_*`` function returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import json
from math import gcd

# The bundle's checks in emission order; "no-redundant-generator" is the
# deep minimality check that --shallow leaves out.
VERIFY_CHECKS = (
    "mp-minimal-multiple",
    "m0-minimal-multiple",
    "leading-term-set",
    "s-polynomials-reduce",
    "buchberger-lt-ideal",
    "leading-terms-incomparable",
    "no-redundant-generator",
    "cardinalities-match",
    "classical-set-reduces",
    "closed-form-set-reduces",
    "rewriting-identities",
    "standard-monomial-shape",
    "standard-monomials-eta-distinct",
    "members-are-relations",
    "leading-term-shape",
    "s-vectors-reduce",
    "harvested-relations-reduce",
    "module-leading-terms-incomparable",
    "excluded-forms-stay-excluded",
    "projection-matches-image-lead",
)
SHALLOW_SKIPS = "no-redundant-generator"


def expected_params(m0: int, d: int, p: int) -> dict:
    """The parameter record: m0 = a*p + b with 1 <= b <= p, m_i = m0 + i*d."""
    a, r = divmod(m0 - 1, p)
    return {"p": p, "m0": m0, "d": d, "a": a, "b": r + 1,
            "generators": [m0 + i * d for i in range(p + 1)]}


def expected_counts(p: int, b: int) -> dict:
    """Closed-form sizes of the generator set and of the A/B/L syzygy families."""
    syz = {"A": p * (p - b), "B": p * (p - 1) // 2,
           "L": sum(j * (j - 1) for j in range(2, p))}
    syz["total"] = syz["A"] + syz["B"] + syz["L"]
    return {"generators": p * (p - 1) // 2 + p - b + 1, "syzygies": syz}


def _load(text: str, rc: int) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit code {rc}, expected 0"]
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_verify(text: str, rc: int, triple: tuple[int, int, int], shallow: bool = False) -> list[str]:
    """Problems with one ``verify --format json`` output for triple (m0, d, p)."""
    payload, problems = _load(text, rc)
    if payload is None:
        return problems
    params = expected_params(*triple)
    if payload.get("params") != params:
        problems.append(f"params {payload.get('params')} != {params}")
    if payload.get("passed") is not True:
        problems.append(f"passed is {payload.get('passed')!r}")
    names = [n for n in VERIFY_CHECKS if not (shallow and n == SHALLOW_SKIPS)]
    checks = payload.get("checks", [])
    got = [c.get("check") for c in checks]
    if got != names:
        problems.append(f"check names {got} != {names}")
    for c in checks:
        if c.get("status") != "pass":
            problems.append(f"check {c.get('check')} has status {c.get('status')!r}")
        if c.get("params") != params:
            problems.append(f"check {c.get('check')} carries params {c.get('params')}")
    counts = expected_counts(params["p"], params["b"])
    if payload.get("counts") != counts:
        problems.append(f"counts {payload.get('counts')} != {counts}")
    return problems


def check_info(text: str, rc: int, triple: tuple[int, int, int]) -> list[str]:
    """Problems with one ``info --format json`` output.

    The minimal multiples are (a+1, a+d, p-b) for m_p and (a+d+1, a, b)
    for m0.
    """
    payload, problems = _load(text, rc)
    if payload is None:
        return problems
    params = expected_params(*triple)
    if payload.get("params") != params:
        problems.append(f"params {payload.get('params')} != {params}")
    p, d, a, b = params["p"], params["d"], params["a"], params["b"]
    for key, want in (("mp_multiple", [a + 1, a + d, p - b]),
                      ("m0_multiple", [a + d + 1, a, b])):
        if payload.get(key) != want:
            problems.append(f"{key} {payload.get(key)} != {want}")
    return problems


def check_sweep(text: str, rc: int, grid: list[tuple[int, int, int, int]]) -> tuple[int, list[str]]:
    """(failed triples, problems) for one ``sweep --format json`` output.

    A grid point (p, a, b, d) must be verified and pass exactly when
    gcd(a*p + b, d) = 1 and be skipped otherwise; every point that
    disagrees counts as one failed triple, and an unusable output or a
    wrong summary fails the whole grid.
    """
    payload, problems = _load(text, rc)
    if payload is None:
        return len(grid), problems
    entries = payload.get("entries", [])
    if len(entries) != len(grid):
        return len(grid), [f"{len(entries)} entries for {len(grid)} grid points"]
    failed = 0
    for (p, a, b, d), entry in zip(grid, entries):
        m0 = a * p + b
        want = "pass" if gcd(m0, d) == 1 else "skip"
        got = (entry.get("p"), entry.get("a"), entry.get("b"), entry.get("d"), entry.get("m0"))
        if got != (p, a, b, d, m0) or entry.get("status") != want:
            failed += 1
            problems.append(f"grid point {(p, a, b, d)}: entry {entry}, expected status {want}")
    ran = sum(1 for p, a, b, d in grid if gcd(a * p + b, d) == 1)
    summary = {"ran": ran, "passed": ran, "failed": 0, "skipped": len(grid) - ran}
    if payload.get("summary") != summary:
        problems.append(f"summary {payload.get('summary')} != {summary}")
        failed = len(grid)
    return failed, problems
