"""Run one monocurve benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload engine-p8 --seed 1 --seconds 10 --trace 0

Everything runs in this one process on one thread: the harness imports
``monocurve`` from ``src/`` and calls ``monocurve.cli.main`` with JSON
output, capturing stdout.  A run repeats the workload's pass of CLI calls
while ``--seconds`` of wall time last (at least once) and checks every
output with ``gate.py``.

``--trace 0`` prints the end-to-end metrics, in reference seconds: set-up
and passes run under ``probe.Probe``, which removes the shared host's
changing speed from the times (DESIGN.md, "Speed compensation").
``--trace 1`` runs the passes untraced for half the budget, replays the
same calls under ``tracer.Tracer``, requires byte-identical outputs,
prints the per-layer metrics per pass and writes the spans to
``perfbench/out/``.  The last
line of stdout is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
from probe import Probe
from tracer import LAYER_METRICS, SPAN_FIELDS, Tracer, layer_metrics
from workloads import WORKLOADS, make_workload, sweep_grid_points

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PACKAGE = "monocurve"

# Set-up is repeated at least this often, and until this many seconds are
# spent (capped), so that its median is steady even where one set-up is
# a few milliseconds.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 2.0, 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_p50_s": "s",
    "triples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {**dict(LAYER_METRICS), "trace.overhead_s": "s", "trace.spans": "count"}


def purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup_once(triples) -> tuple[float, float]:
    """Import the package afresh and build every triple's construction path.

    Returns the perf_counter interval it took.
    """
    purge_package()
    start = time.perf_counter()
    mc = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    for m0, d, p in triples:
        try:
            params = mc.make_params(m0, d, p)
        except mc.ParameterError:
            continue
        mc.groebner_generators(params)
        mc.syzygy_basis(params)
    return start, time.perf_counter()


def measure_setup(triples) -> list[tuple[float, float]]:
    """The perf_counter interval of each set-up, repeated until enough are taken."""
    intervals: list[tuple[float, float]] = []
    while len(intervals) < SETUP_MIN_REPEATS or (
            sum(e - s for s, e in intervals) < SETUP_MIN_SECONDS
            and len(intervals) < SETUP_MAX_REPEATS):
        intervals.append(setup_once(triples))
    return intervals


def call_cli(call, tracer: Tracer | None = None) -> tuple[int | str, str, float, float]:
    """(exit code, stdout, start, end) of one in-process CLI call, times by perf_counter."""
    main = sys.modules[PACKAGE + ".cli"].main
    if tracer is not None:
        tracer.trace_id = "sweep" if call.triple is None else "{},{},{}".format(*call.triple)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(call.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed output, reported with its traceback
        rc = "exception: " + traceback.format_exc()
    return rc, out.getvalue(), start, time.perf_counter()


def run_passes(calls, budget: float, passes: int | None = None, tracer: Tracer | None = None):
    """Outcomes ``(call, exit code, stdout, start, end)`` per pass.

    Passes are made while the wall time used is below ``budget`` (at
    least one), or exactly ``passes`` of them.
    """
    done, used = [], 0.0
    while (len(done) < passes) if passes is not None else (not done or used < budget):
        outcomes = [(call, *call_cli(call, tracer)) for call in calls]
        used += sum(end - start for *_, start, end in outcomes)
        done.append(outcomes)
    return done


def in_seconds(done, clock=lambda start, end: end - start):
    """The passes with each call's interval replaced by ``clock(start, end)`` seconds."""
    return [[(call, rc, text, clock(start, end)) for call, rc, text, start, end in outcomes]
            for outcomes in done]


def gate_passes(done) -> tuple[int, int, list[str]]:
    """(attempted triples, failed triples, problems) over every pass."""
    attempted = failed = 0
    problems: list[str] = []
    grid = None
    for outcomes in done:
        triples, bad = set(), set()
        for call, rc, text, _ in outcomes:
            if call.kind == "sweep":
                grid = grid or sweep_grid_points()
                n_failed, found = gate.check_sweep(text, rc, grid)
                attempted += len(grid)
                failed += n_failed
            else:
                triples.add(call.triple)
                if call.kind == "verify":
                    found = gate.check_verify(text, rc, call.triple, "--shallow" in call.argv)
                else:
                    found = gate.check_info(text, rc, call.triple)
                if found:
                    bad.add(call.triple)
            problems += [f"{' '.join(call.argv)}: {msg}" for msg in found]
        attempted += len(triples)
        failed += len(bad)
    return attempted, failed, problems


def _sweep_ran(text: str) -> int:
    try:
        return int(json.loads(text)["summary"]["ran"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return 0  # the gate reports the broken output


def end_to_end_metrics(done, setup_times) -> tuple[dict, dict]:
    """(metrics, sample counts) from untraced passes."""
    verify_times, verified, verify_wall = [], 0, 0.0
    for outcomes in done:
        for call, rc, text, seconds in outcomes:
            if call.kind == "sweep":
                ran = _sweep_ran(text) if rc == 0 else 0
                verified += ran
                verify_wall += seconds
                if ran:
                    verify_times.append(seconds / ran)
            elif call.kind == "verify":
                verified += 1
                verify_wall += seconds
                verify_times.append(seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(o[3] for o in outcomes) for outcomes in done),
        "verify_p50_s": statistics.median(verify_times) if verify_times else 0.0,
        "triples_per_s": verified / verify_wall if verify_wall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup_times), "wall_s": len(done),
               "verify_p50_s": len(verify_times), "triples_per_s": verified,
               "peak_rss_mb": 1}
    return metrics, samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_hash() -> str | None:
    """HEAD of the repository, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_metadata(args, workload) -> dict:
    return {
        "git": git_hash(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.describe(),
    }


def timed_run(workload, seconds: float) -> tuple[dict, dict, list, dict]:
    """(metrics, units, passes, extra record fields) with tracing off."""
    with Probe() as probe:
        setups = measure_setup(workload.setup_triples)
        intervals = run_passes(workload.calls, seconds)
    setup_times = [probe.seconds(*interval) for interval in setups]
    done = in_seconds(intervals, probe.seconds)
    metrics, samples = end_to_end_metrics(done, setup_times)
    raw, _ = end_to_end_metrics(in_seconds(intervals), [e - s for s, e in setups])
    return metrics, END_TO_END_UNITS, done, {
        "samples": samples, "setup_times": setup_times,
        "wall_clock": {name: raw[name] for name in ("setup_s", "wall_s")},
        "probe": {"chunks": len(probe.starts), "chunk_p50_s": probe.chunk_p50_s()}}


def traced_run(workload, seconds: float, spans_path: Path) -> tuple[dict, dict, list, dict]:
    """Untraced passes for half the budget, then the same passes traced."""
    importlib.import_module(PACKAGE + ".cli")
    plain = in_seconds(run_passes(workload.calls, seconds / 2))
    tracer = Tracer(PACKAGE)
    with tracer:
        traced = in_seconds(run_passes(workload.calls, 0, passes=len(plain), tracer=tracer))
    flat_plain = [o for outcomes in plain for o in outcomes]
    flat_traced = [o for outcomes in traced for o in outcomes]
    mismatched = [" ".join(a[0].argv) for a, b in zip(flat_plain, flat_traced) if a[1:3] != b[1:3]]
    plain_s = sum(o[3] for o in flat_plain)
    traced_s = sum(o[3] for o in flat_traced)
    metrics = layer_metrics(tracer, len(plain))
    metrics["trace.overhead_s"] = (traced_s - plain_s) / len(plain)
    metrics["trace.spans"] = len(tracer.spans) / len(plain)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
        json.dump({"fields": SPAN_FIELDS, "counts": tracer.counts, "spans": tracer.spans}, handle)
    extra = {"passes": len(plain), "untraced_s": plain_s, "traced_s": traced_s,
             "mismatched": mismatched, "spans_file": spans_path.relative_to(ROOT).as_posix(),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, TRACE_UNITS, plain + traced, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a monocurve checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = make_workload(args.workload, args.seed)
    meta = run_metadata(args, workload)
    print("meta " + json.dumps(meta))
    tag = f"{args.workload}-s{args.seed}"
    if args.trace:
        metrics, units, done, extra = traced_run(workload, args.seconds,
                                                 OUT / f"spans-{tag}.json.gz")
    else:
        metrics, units, done, extra = timed_run(workload, args.seconds)
    attempted, failed, problems = gate_passes(done)
    mismatched = extra.get("mismatched", [])
    failed += len(mismatched)
    problems += [f"{argv}: traced output differs from untraced output" for argv in mismatched]
    correct = not problems and failed == 0

    samples = extra.get("samples", {})
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{name} {value:.6g} {units[name]}{count}")
    if "wall_clock" in extra:
        probe = extra["probe"]
        print(f"uncompensated wall clock: setup_s {extra['wall_clock']['setup_s']:.6g} s, "
              f"wall_s {extra['wall_clock']['wall_s']:.6g} s; speed probe median "
              f"{probe['chunk_p50_s'] * 1e3:.4f} ms over {probe['chunks']} chunks")
    if args.trace:
        print(f"tracing overhead {extra['traced_s'] - extra['untraced_s']:.3f} s over "
              f"{extra['passes']} pass(es): untraced {extra['untraced_s']:.3f} s, "
              f"traced {extra['traced_s']:.3f} s; spans in {extra['spans_file']}")
    print(f"failed_ratio {failed / attempted:.6g} ratio  ({failed}/{attempted} triples)")
    for msg in problems[:20]:
        print("problem: " + msg)
    print("correct " + ("true" if correct else "false"))

    record = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "units": units, "problems": problems,
              "call_seconds": [[" ".join(c.argv), s] for p in done for c, _, _, s in p], **extra}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
