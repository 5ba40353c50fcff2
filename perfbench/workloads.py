"""Seeded inputs for the four benchmark workloads.

A workload is a *pass*: a fixed list of CLI calls drawn from the seed.
The run repeats the pass while its time budget lasts, so a faster program
gives more samples of the same work.  Cost is driven by ``p`` and ``b``,
so ``p`` is fixed per workload and ``b`` is covered evenly across seeds;
the seed picks ``a``, ``d`` and the projection ``--seed`` from bands over
which the cost is flat.  DESIGN.md gives the reason for each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("engine-p8", "enum-p6", "sweep-grid", "large-m0")

SWEEP_GRID = {"p": (2, 5), "a": (1, 3), "d": (1, 5)}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the correctness gate needs to judge it."""

    kind: str  # "verify", "info" or "sweep"
    argv: tuple[str, ...]
    triple: tuple[int, int, int] | None = None  # (m0, d, p); None for sweep


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # Triples whose construction path (make_params, groebner_generators,
    # syzygy_basis) the set-up phase times; grid points failing the gcd
    # hypothesis are included because the sweep pays for rejecting them.
    setup_triples: tuple[tuple[int, int, int], ...]

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "calls": [" ".join(c.argv) for c in self.calls],
            "triples": [list(t) for t in self.setup_triples],
        }


def _coprime_d(rng: random.Random, m0: int, lo: int, hi: int) -> int:
    while True:
        d = rng.randint(lo, hi)
        if gcd(m0, d) == 1:
            return d


def _verify_call(m0: int, d: int, p: int, bound: int, seed: int) -> Call:
    argv = ("verify", "--m0", str(m0), "--d", str(d), "--p", str(p),
            "--bound", str(bound), "--seed", str(seed), "--format", "json")
    return Call("verify", argv, (m0, d, p))


def _verifies(rng: random.Random, p: int, bound: int, bs) -> list[Call]:
    """One verify call per b, with d in 1..9 drawn from rng.

    a alternates between 1 and 2 from a drawn start: a = 2 costs about 5%
    more than a = 1, so every pass of two calls has one of each.
    """
    calls = []
    first = rng.randint(1, 2)
    for i, b in enumerate(bs):
        m0 = (first if i % 2 == 0 else 3 - first) * p + b
        d = _coprime_d(rng, m0, 1, 9)
        calls.append(_verify_call(m0, d, p, bound, rng.randrange(10**6)))
    return calls


def sweep_grid_points(grid: dict = SWEEP_GRID) -> list[tuple[int, int, int, int]]:
    """(p, a, b, d) in the order ``sweep`` visits them, b running over 1..p."""
    (p_lo, p_hi), (a_lo, a_hi), (d_lo, d_hi) = (grid[k] for k in ("p", "a", "d"))
    return [
        (p, a, b, d)
        for p in range(p_lo, p_hi + 1)
        for a in range(a_lo, a_hi + 1)
        for b in range(1, p + 1)
        for d in range(d_lo, d_hi + 1)
    ]


def make_workload(name: str, seed: int) -> Workload:
    """The workload's calls for this seed; the same seed gives the same calls."""
    rng = random.Random(f"{name}:{seed}")
    # Each pass measures 8 to 15 reference seconds at the seed state; the
    # probe (probe.py) removes the host's speed drift, so this is enough.
    if name == "engine-p8":
        # The work falls linearly in b, so b and 9-b cost the same together:
        # seed n takes b in {k, 9-k} with k = n mod 4 + 1.
        k = seed % 4 + 1
        calls = _verifies(rng, 8, 2, (k, 9 - k))
    elif name == "enum-p6":
        # The enumerations cost the same for every b: seed n takes b in
        # {k, k+3} with k = n mod 3 + 1.
        k = seed % 3 + 1
        calls = _verifies(rng, 6, 5, (k, k + 3))
    elif name == "sweep-grid":
        argv = ["sweep"]
        for key, (lo, hi) in SWEEP_GRID.items():
            argv += [f"--{key}", f"{lo}..{hi}"]
        argv += ["--bound", "2", "--format", "json", "--seed"]
        calls = [Call("sweep", tuple(argv + [str(rng.randrange(10**6))]))]
        triples = tuple((a * p + b, d, p) for p, a, b, d in sweep_grid_points())
        return Workload(name, tuple(calls), triples)
    elif name == "large-m0":
        p = 3
        m0 = 10**6 + rng.randrange(2000)
        d = _coprime_d(rng, m0, 10**6 - 2000, 10**6 - 1)
        info = Call("info", ("info", "--m0", str(m0), "--d", str(d), "--p", str(p),
                             "--format", "json"), (m0, d, p))
        # Twice: one make_params-bound call is too short a sample on its own.
        calls = [c for _ in range(2) for c in (info, _verify_call(m0, d, p, 2, rng.randrange(10**6)))]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    triples = tuple(dict.fromkeys(c.triple for c in calls))
    return Workload(name, tuple(calls), triples)
