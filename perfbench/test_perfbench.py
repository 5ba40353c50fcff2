"""Tests for the benchmark harness itself: span arithmetic, patching, gate.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
from math import gcd
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import probe as speed  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, make_workload, sweep_grid_points  # noqa: E402

import monocurve  # noqa: E402
from monocurve import cli, generators, polyring, syzygy  # noqa: E402


def span(name, start, end, parent=-1, zero=None):
    return [name, start, end, parent, "t", zero]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- span arithmetic --------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("c", 6.0, 7.0, parent=2),
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 12.0, parent=0),  # overlaps a, runs past the parent
    ]
    assert tr.self_times(spans)[0] == pytest.approx(2.0)


def test_span_stats_count_recursion_once_in_total():
    spans = [
        span("f", 0.0, 10.0),
        span("f", 2.0, 5.0, parent=0),
        span("g", 6.0, 8.0, parent=0),
    ]
    stats = tr.span_stats(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["total_s"] == pytest.approx(10.0)
    assert stats["f"]["self_s"] == pytest.approx(5.0 + 3.0)
    assert stats["g"]["total_s"] == pytest.approx(2.0)


def test_buchberger_pair_and_zero_metrics_use_spans_under_it():
    t = tr.Tracer()
    t.spans = [
        span("polyring.buchberger", 0.0, 10.0),
        span("polyring.s_polynomial", 1.0, 2.0, parent=0),
        span("polyring.normal_form", 2.0, 3.0, parent=0, zero=True),
        span("polyring.s_polynomial", 3.0, 4.0, parent=0),
        span("polyring.normal_form", 4.0, 5.0, parent=0, zero=False),
        span("polyring.normal_form", 11.0, 12.0, zero=True),  # outside buchberger
    ]
    m = tr.layer_metrics(t, passes=1)
    assert m["polyring.buchberger.spairs"] == 2
    assert m["polyring.buchberger.zero_ratio"] == pytest.approx(0.5)
    assert m["polyring.normal_form.calls"] == 3
    assert m["polyring.normal_form.zero_ratio"] == pytest.approx(2 / 3)
    assert set(m) == {name for name, _ in tr.LAYER_METRICS}


# -- patching -----------------------------------------------------------------


def _snapshot():
    namespaces = {n: m for n, m in sys.modules.items()
                  if n == "monocurve" or n.startswith("monocurve.")}
    owners = list(namespaces.values()) + [polyring.WeightOrder, syzygy.ModuleOrder]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_unwrapping_restores_every_patched_object():
    before = _snapshot()
    original_nf = polyring.normal_form
    with tr.Tracer():
        # one wrapper, bound in every namespace that bound the original
        assert polyring.normal_form is not original_nf
        assert generators.normal_form is polyring.normal_form
        assert monocurve.normal_form is polyring.normal_form
        assert cli.make_params is monocurve.semigroup.make_params
        assert "leading_term" in vars(polyring.WeightOrder)
        assert vars(polyring.WeightOrder)["leading_term"].__wrapped__ is before[
            (id(polyring.WeightOrder), "leading_term")]
        # hot helpers and the order keys stay unwrapped
        assert polyring.mono_mul is before[(id(polyring), "mono_mul")]
        assert polyring.WeightOrder.key is before[(id(polyring.WeightOrder), "key")]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_call_matches_untraced_and_tags_each_sweep_triple():
    argv = ["sweep", "--p", "2..2", "--a", "1..1", "--d", "1..2", "--bound", "2",
            "--format", "json"]
    plain = run_cli(argv)
    t = tr.Tracer()
    with t:
        t.trace_id = "sweep"
        traced = run_cli(argv)
    assert traced == plain
    starts = [s[tr.TRACE] for s in t.spans if s[tr.NAME] == "semigroup.make_params"]
    assert starts == ["3,1,2", "3,2,2", "4,1,2", "4,2,2"]
    main_span = next(s for s in t.spans if s[tr.NAME] == "cli.main")
    assert main_span[tr.TRACE] == "sweep" and main_span[tr.PARENT] == -1
    m = tr.layer_metrics(t, passes=1)
    assert m["report.checks"] == 3 * 19 and m["report.checks_failed"] == 0
    assert m["generators.groebner_generators.calls"] > 0


# -- correctness gate ---------------------------------------------------------

TRIPLE = (7, 1, 3)


@pytest.fixture(scope="module")
def verify_output():
    m0, d, p = TRIPLE
    return run_cli(["verify", "--m0", str(m0), "--d", str(d), "--p", str(p),
                    "--bound", "2", "--format", "json"])


def test_gate_accepts_real_verify_output(verify_output):
    rc, text = verify_output
    assert gate.check_verify(text, rc, TRIPLE) == []


def test_gate_closed_forms():
    assert gate.expected_params(13, 2, 6)["a"] == 2 and gate.expected_params(13, 2, 6)["b"] == 1
    assert gate.expected_params(12, 1, 6)["b"] == 6
    counts = gate.expected_counts(3, 1)
    assert counts == {"generators": 6, "syzygies": {"A": 6, "B": 3, "L": 2, "total": 11}}


@pytest.mark.parametrize("tamper", [
    lambda d: d["checks"][5].update(status="fail"),
    lambda d: d["counts"]["syzygies"].update(A=d["counts"]["syzygies"]["A"] + 1),
    lambda d: d["counts"].update(generators=d["counts"]["generators"] - 1),
    lambda d: d.update(passed=False),
    lambda d: d["checks"].pop(),
    lambda d: d["checks"].reverse(),
    lambda d: d["params"].update(b=2),
])
def test_gate_rejects_tampered_verify_payload(verify_output, tamper):
    rc, text = verify_output
    payload = json.loads(text)
    tamper(payload)
    assert gate.check_verify(json.dumps(payload), rc, TRIPLE)


def test_gate_rejects_bad_exit_code_and_garbage(verify_output):
    rc, text = verify_output
    assert gate.check_verify(text, 1, TRIPLE)
    assert gate.check_verify("not json", 0, TRIPLE)


def test_gate_shallow_expects_nineteen_checks(verify_output):
    rc, text = verify_output
    assert gate.check_verify(text, rc, TRIPLE, shallow=True)
    m0, d, p = TRIPLE
    rc, text = run_cli(["verify", "--m0", str(m0), "--d", str(d), "--p", str(p),
                        "--bound", "2", "--shallow", "--format", "json"])
    assert len(json.loads(text)["checks"]) == 19
    assert gate.check_verify(text, rc, TRIPLE, shallow=True) == []


def test_gate_info_multiples():
    rc, text = run_cli(["info", "--m0", "7", "--d", "1", "--p", "3", "--format", "json"])
    assert gate.check_info(text, rc, TRIPLE) == []
    payload = json.loads(text)
    payload["m0_multiple"][0] -= 1  # the (a+d, a, b) form criterion 03b tests
    assert gate.check_info(json.dumps(payload), rc, TRIPLE)


def test_gate_sweep_matches_independent_grid():
    grid = sweep_grid_points({"p": (2, 3), "a": (1, 1), "d": (1, 2)})
    rc, text = run_cli(["sweep", "--p", "2..3", "--a", "1..1", "--d", "1..2", "--bound", "2",
                        "--format", "json"])
    assert gate.check_sweep(text, rc, grid) == (0, [])
    payload = json.loads(text)
    skip = next(e for e in payload["entries"] if e["status"] == "skip")
    skip["status"] = "pass"
    assert gate.check_sweep(json.dumps(payload), rc, grid)[0] == 1
    payload = json.loads(text)
    payload["summary"]["skipped"] += 1
    failed, problems = gate.check_sweep(json.dumps(payload), rc, grid)
    assert problems and failed == len(grid)
    assert gate.check_sweep(text, 1, grid)[0] == len(grid)


# -- speed probe --------------------------------------------------------------


def test_probe_scales_by_mean_speed_and_drops_its_own_time():
    probe = speed.Probe()
    ref = speed.REFERENCE_CHUNK_S
    # Chunks at 1.0, 2.0 and 3.0 s, taking 2, 1 and 1 reference times.
    probe.starts = [1.0, 2.0, 3.0]
    probe.ends = [1.0 + 2 * ref, 2.0 + ref, 3.0 + ref]
    # [1.5, 2.5] holds the second chunk; its neighbours count toward speed.
    assert probe.seconds(1.5, 2.5) == pytest.approx((1.0 - ref) * (0.5 + 1 + 1) / 3)
    # An interval holding no chunk takes its speed from the nearest ones.
    assert probe.seconds(3.1, 3.2) == pytest.approx(0.1 * (1 + 1) / 2)
    with pytest.raises(RuntimeError):
        speed.Probe().seconds(0.0, 1.0)


def test_probe_samples_while_active_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(KeyError), speed.Probe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            speed.chunk()
        end = time.perf_counter()
        raise KeyError("leaves the block early")
    assert len(probe.starts) >= 3
    assert 0 < probe.seconds(start, end) < 10 * (end - start)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


# -- workloads ----------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_workloads_are_seeded(name):
    assert make_workload(name, 3) == make_workload(name, 3)
    assert make_workload(name, 3).calls != make_workload(name, 4).calls
    for call in make_workload(name, 3).calls:
        if call.triple:
            m0, d, p = call.triple
            assert gcd(m0, d) == 1 and m0 > p


@pytest.mark.parametrize("name, p, period", [("engine-p8", 8, 4), ("enum-p6", 6, 3)])
def test_verify_workloads_cover_every_b_once_per_period(name, p, period):
    bs = [gate.expected_params(*c.triple)["b"]
          for seed in range(period) for c in make_workload(name, seed).calls]
    assert sorted(bs) == list(range(1, p + 1))
    assert all(c.triple[2] == p for c in make_workload(name, 5).calls)


def test_sweep_grid_size():
    grid = sweep_grid_points()
    assert len(grid) == 210
    assert sum(1 for p, a, b, d in grid if gcd(a * p + b, d) == 1) == 143


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.TRACE_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
