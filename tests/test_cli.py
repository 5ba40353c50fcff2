import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import make_params, syzygy
from monocurve.cli import _build_parser, main, run, verification_bundle
from monocurve.generators import GeneratorSet, groebner_generators
from monocurve.polyring import Poly, Reducer, WeightOrder, poly_from_json
from monocurve.report import VerificationReport


def test_info_text(capsys):
    assert main(["info", "--m0", "7", "--d", "1", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "a = 2, b = 1" in out
    assert "7, 8, 9, 10" in out


def test_info_rejects_bad_gcd(capsys):
    assert main(["info", "--m0", "6", "--d", "2", "--p", "3"]) == 2
    err = capsys.readouterr().err
    assert "gcd" in err


def test_usage_error_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--m0", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    triple = ["--m0", "7", "--d", "1", "--p", "3"]
    for argv in (
        ["verify", *triple, "--bound", "1"],
        ["verify", *triple, "--bound", "-3"],
        ["verify", *triple, "--bound", "x"],
        ["sweep", "--p", "x"],
        ["sweep", "--p", "5..2"],
        ["sweep", "--p", "2..2", "--b", "3..4"],
        ["info", *triple, "--output", str(tmp_path)],
        ["info", *triple, "--output", str(tmp_path / "missing" / "info.txt")],
        ["sweep", "--p", "2..2", "--output", str(tmp_path)],
        ["verify", *triple, "--samples", "-4"],
        ["sweep", "--p", "2..2", "--samples", "-1"],
        ["sweep", "--p", "3..3", "--a", "2..2", "--b", "0..1"],
        ["info", *triple, "--output", str(tmp_path / "plain.txt" / "out.json")],
        ["info", *triple, "--output", ""],
    ):
        (tmp_path / "plain.txt").write_text("a regular file\n")
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        err = capsys.readouterr().err
        assert code == 2, argv
        assert sum("error:" in line for line in err.splitlines()) == 1, argv


def test_verify_json(capsys):
    code = main(
        ["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["counts"]["syzygies"]["total"] == 11
    assert all(rec["status"] == "pass" for rec in payload["checks"])


def test_verify_output_deterministic(tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert (
            main(
                [
                    "verify", "--m0", "8", "--d", "3", "--p", "2",
                    "--format", "json", "--output", str(path),
                ]
            )
            == 0
        )
    assert paths[0].read_text() == paths[1].read_text()


def test_large_triple_verifies_in_seconds(capsys):
    # deep by default: a step whose cost grows with a or d (here near 10**6,
    # with binomials of weight near 10**12) would not finish in the budget
    start = time.monotonic()
    code = main(["verify", "--m0", "1000129", "--d", "999666", "--p", "3",
                 "--bound", "2", "--format", "json"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert elapsed < 10.0, f"verify took {elapsed:.1f}s"


def test_generators_json_roundtrip(capsys):
    assert main(["generators", "--m0", "7", "--d", "1", "--p", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    pr = make_params(7, 1, 3)
    rebuilt = {
        entry["label"]: poly_from_json(pr.nvars, entry["terms"])
        for entry in payload["groebner"]
    }
    fresh = dict(groebner_generators(pr).labeled())
    assert rebuilt == fresh
    order = WeightOrder(pr)
    for entry in payload["groebner"]:
        assert tuple(entry["leading_monomial"]) == order.leading_monomial(
            fresh[entry["label"]]
        )


def test_syzygies_text(capsys):
    assert main(["syzygies", "--m0", "7", "--d", "1", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "6 A + 3 B + 2 L = 11 elements" in out
    assert "L(1;2,2)" in out


def test_sweep_counts_skips(capsys):
    code = main(
        ["sweep", "--p", "2..3", "--a", "1..2", "--b", "1..p", "--d", "1..2",
         "--bound", "3", "--samples", "50", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    summary = payload["summary"]
    # every (p, a, b, d) combination appears either verified or skipped
    total = sum(p * 2 * 2 for p in (2, 3))
    assert summary["ran"] + summary["skipped"] == total
    assert summary["failed"] == 0
    assert summary["skipped"] > 0  # gcd failures such as m0 = 4, d = 2
    skip_reasons = {e["reason"] for e in payload["entries"] if e["status"] == "skip"}
    assert any("gcd" in reason for reason in skip_reasons)


def test_sweep_text_summary(capsys):
    assert main(["sweep", "--p", "2..2", "--a", "1..1", "--d", "1..1",
                 "--bound", "3", "--samples", "20"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("summary:")


def test_verify_failure_exit_code(monkeypatch, capsys):
    params = make_params(7, 1, 3)
    report = VerificationReport(params)
    report.add("synthetic-check", False, detail="forced failure")

    monkeypatch.setattr("monocurve.cli.verification_bundle", lambda *a, **k: [report])
    code = main(["verify", "--m0", "7", "--d", "1", "--p", "3"])
    assert code == 1
    assert "CHECKS FAILED" in capsys.readouterr().out


def test_verify_fails_cleanly_on_a_non_groebner_set(monkeypatch, capsys):
    # X1^2 - 2*X2*X0 in place of phi(1,1) is not in the curve ideal, so some
    # S-polynomial keeps a remainder: both S-pair checks fail with a witness
    # and verify exits 1 instead of raising
    def planted(params):
        gset = groebner_generators(params)
        phis = {**gset.phis, (1, 1): Poly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -2})}
        return GeneratorSet(params=params, phis=phis, psis=gset.psis)

    monkeypatch.setattr(syzygy, "groebner_generators", planted)
    code = main(["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "2", "--format", "json"])
    assert code == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    spoly = checks["s-polynomials-reduce"]
    assert spoly["status"] == "fail"
    assert spoly["witness"] == {"pair": ["phi(1,1)", "phi(1,2)"],
                                "remainder": [{"coeff": "-1/1", "expo": [1, 0, 1, 1]}]}
    harvest = checks["harvested-relations-reduce"]
    assert harvest["status"] == "fail"
    assert harvest["witness"] == {"pair": ["Phi(1,1)", "Phi(1,2)"],
                                  "problem": "S-polynomial does not reduce to zero"}


def test_run_config_direct(tmp_path):
    args = _build_parser().parse_args(
        ["info", "--m0", "7", "--d", "1", "--p", "3", "--format", "json",
         "--output", str(tmp_path / "info.json")]
    )
    assert run(args) == 0
    payload = json.loads((tmp_path / "info.json").read_text())
    assert payload["params"]["generators"] == [7, 8, 9, 10]
    assert payload["m0_multiple"] == [4, 2, 1]


def test_bundle_shapes(p713):
    reports = verification_bundle(syzygy.Curve(p713), bound=4, samples=50, seed=0, deep=False)
    names = [c.name for r in reports for c in r.checks]
    assert "s-polynomials-reduce" in names
    assert "harvested-relations-reduce" in names
    assert "no-redundant-generator" not in names  # deep disabled


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CALLS = {
    "info-7-1-3.json": ["info", "--m0", "7", "--d", "1", "--p", "3", "--format", "json"],
    "generators-7-1-3.json": ["generators", "--m0", "7", "--d", "1", "--p", "3",
                              "--format", "json"],
    "syzygies-7-1-3.json": ["syzygies", "--m0", "7", "--d", "1", "--p", "3",
                            "--format", "json"],
    "verify-7-1-3.json": ["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "2",
                          "--format", "json"],
    "verify-8-3-2.txt": ["verify", "--m0", "8", "--d", "3", "--p", "2", "--bound", "2"],
    "sweep-p2-3-a1-2-d1-2.json": ["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2",
                                  "--bound", "2", "--format", "json"],
    "verify-13-2-6.json": ["verify", "--m0", "13", "--d", "2", "--p", "6", "--bound", "3",
                           "--format", "json"],
    "verify-17-3-8.json": ["verify", "--m0", "17", "--d", "3", "--p", "8", "--bound", "2",
                           "--format", "json"],
    "sweep-p2-3-a1-1-d1-3.txt": ["sweep", "--p", "2..3", "--a", "1..1", "--d", "1..3",
                                 "--bound", "2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
def test_output_matches_golden(name, capsys):
    # the default output is a contract: any change to it must be deliberate
    assert main(GOLDEN_CALLS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


HALF_LEAD_GOLDEN_CALLS = {
    "verify-7-1-3-half-lead.json": ["verify", "--m0", "7", "--d", "1", "--p", "3",
                                    "--bound", "2", "--format", "json"],
    "verify-8-3-2-half-lead.txt": ["verify", "--m0", "8", "--d", "3", "--p", "2",
                                   "--bound", "2"],
}


@pytest.mark.parametrize("name", sorted(HALF_LEAD_GOLDEN_CALLS))
def test_fractional_witnesses_match_golden(name, monkeypatch, capsys):
    # 2*X1^2 - X2*X0 in place of phi(1,1) has lead coefficient 2, so its
    # divisions leave the integers and the witnesses carry -1/2 and 1/2
    def planted(params):
        gset = groebner_generators(params)
        p = params.p
        x1x1 = tuple(2 if k == 0 else 0 for k in range(p + 1))
        x2x0 = tuple(1 if k in (1, p) else 0 for k in range(p + 1))
        bad = Poly(params.nvars, {x1x1: 2, x2x0: -1})
        return GeneratorSet(params, {**gset.phis, (1, 1): bad}, gset.psis)

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", planted)
    assert main(HALF_LEAD_GOLDEN_CALLS[name]) == 1
    out = capsys.readouterr().out
    assert '"coeff": "-1/2"' in out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [
    ["info", "--m0", "7", "--d", "1", "--p", "3"],
    ["syzygies", "--m0", "41", "--d", "2", "--p", "12", "--format", "json"],
])
def test_closed_stdout_keeps_the_exit_code_and_no_traceback(argv):
    # a reader that leaves early, like `| head -1`: here it leaves at once
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "monocurve.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in err, err.decode()


BUILT_PER_TRIPLE = ("groebner_generators", "patil_generators", "syzygy_basis", "ModuleOrder")


def _count_constructions(monkeypatch) -> collections.Counter:
    # wrap each name in the namespace the Curve looks it up in, and the ring
    # order's constructor, with a call counter
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in BUILT_PER_TRIPLE:
        monkeypatch.setattr(syzygy, name, counted(name, getattr(syzygy, name)))
    monkeypatch.setattr(WeightOrder, "__init__", counted("WeightOrder", WeightOrder.__init__))
    return counts


def test_each_triple_builds_its_shared_objects_once(monkeypatch, capsys):
    counts = _count_constructions(monkeypatch)
    names = (*BUILT_PER_TRIPLE, "WeightOrder")
    assert main(["verify", "--m0", "13", "--d", "2", "--p", "6", "--bound", "2"]) == 0
    assert counts == {name: 1 for name in names}

    counts.clear()
    capsys.readouterr()
    assert main(["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2", "--bound", "2",
                 "--format", "json"]) == 0
    ran = json.loads(capsys.readouterr().out)["summary"]["ran"]
    assert ran > 1
    assert counts == {name: ran for name in names}


def test_each_triple_harvests_its_s_pairs_once(monkeypatch, capsys):
    # the S-polynomials of the closed-form basis are divided by the triple's
    # ring reducer once, in one harvest, which both S-pair checks read; the
    # classical generators are the only other elements it divides
    curves, divisions, harvests = [], collections.Counter(), collections.Counter()
    init, divide, harvest = syzygy.Curve.__init__, Reducer.divide, syzygy.schreyer_syzygies

    def keep(self, params):
        init(self, params)
        curves.append(self)

    def count_division(self, f):
        divisions[self] += 1
        return divide(self, f)

    def count_harvest(table):
        harvests[table] += 1
        return harvest(table)

    monkeypatch.setattr(syzygy.Curve, "__init__", keep)
    monkeypatch.setattr(Reducer, "divide", count_division)
    monkeypatch.setattr(syzygy, "schreyer_syzygies", count_harvest)

    def check(ran):
        assert len(curves) == ran
        for curve in curves:
            table, n = curve.ring_reducer, len(curve.gset)
            assert harvests[table] == 1
            assert divisions[table] == n * (n - 1) // 2 + len(curve.patil)

    assert main(["verify", "--m0", "13", "--d", "2", "--p", "6", "--bound", "2"]) == 0
    check(1)

    curves.clear()
    capsys.readouterr()
    assert main(["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2", "--bound", "2",
                 "--format", "json"]) == 0
    ran = json.loads(capsys.readouterr().out)["summary"]["ran"]
    assert ran > 1
    check(ran)


GARBAGE = st.sampled_from(["", "x", "-1", "1.5", "2..", "..", "--", "--bogus", "\x00", "1e3"])


@st.composite
def _argv(draw):
    # half of the cases are clean, so that valid runs (exit 0) occur too;
    # the noisy half mixes in garbage values, missing options, stray tokens
    # and bad output paths
    noisy = draw(st.booleans())

    def value(lo, hi, valid_lo=None):
        # valid_lo: the smallest value a clean case draws
        if not noisy:
            return st.integers(lo if valid_lo is None else valid_lo, hi).map(str)
        return st.one_of(st.integers(lo, hi).map(str), GARBAGE)

    def span(lo, hi, valid_lo):
        # short ranges keep a sweep small: x..x or x..x+1, within [lo, hi]
        low = lo if noisy else valid_lo
        spans = st.integers(low, hi).map(lambda x: f"{x}..{min(x + 1, hi)}")
        return st.one_of(spans, value(lo, hi, valid_lo))

    command = draw(st.sampled_from(["info", "generators", "syzygies", "verify", "sweep"]
                                   + ["bogus"] * noisy))
    argv = [command]
    options = []
    if command == "sweep":
        # always narrow the grid: the default one is the full, slow sweep
        for flag, values in (("--p", span(1, 4, 2)), ("--a", span(0, 3, 1)),
                             ("--d", span(0, 4, 1))):
            argv += [flag, draw(values)]
        options.append(("--b", st.one_of(st.just("1..p"), span(0, 4, 1))))
    else:
        p = draw(st.integers(2, 4))
        options += [("--m0", value(0, 30, p + 1)), ("--d", value(0, 6, 1)),
                    ("--p", value(1, 4, p))]
    if command in ("verify", "sweep"):
        options += [("--bound", value(1, 3, 2)), ("--samples", value(-1, 30, 0)),
                    ("--seed", value(0, 5))]
    formats = st.sampled_from(["text", "json"])
    options.append(("--format", st.one_of(formats, GARBAGE) if noisy else formats))
    for flag, values in options:
        if not noisy or draw(st.integers(0, 4)):  # sometimes missing when noisy
            argv += [flag, draw(values)]
    if command == "verify" and draw(st.booleans()):
        argv.append("--shallow")
    paths = [None, "ok.txt"]
    if noisy:
        paths += ["", "folder", "missing/out.txt", "plain.txt/out.txt", "bad\x00name"]
        for token in draw(st.lists(GARBAGE, max_size=2)):
            argv.insert(draw(st.integers(1, len(argv))), token)
    return argv, draw(st.sampled_from(paths))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "folder").mkdir()
    (folder / "plain.txt").write_text("a regular file\n")
    return folder


@given(case=_argv())
@settings(max_examples=50, deadline=None)
def test_fuzzed_argv_keeps_the_exit_code_contract(fuzz_dir, case):
    argv, output = case
    if output is not None:
        argv = [*argv, "--output", str(fuzz_dir / output) if output else ""]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
