import argparse
import collections
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import cli, generators, make_params, polyring, syzygy
from monocurve.cli import _build_parser, main, run, verification_bundle
from monocurve.generators import GeneratorSet, groebner_generators
from monocurve.polyring import Closure, Poly, Reducer, WeightOrder
from monocurve.report import VerificationReport
from oracles import module_term, planted_syzygies, poly_from_json


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


def test_verify_fails_cleanly_on_an_unlabelled_syzygy(monkeypatch, capsys):
    # a syzygy whose label has no predicted lead term fails
    # leading-term-shape with "expected": null, and verify exits 1; the
    # payload counts the A/B/L members only
    base = syzygy.syzygy_basis(make_params(7, 1, 3))
    keyed = list(base.keyed())
    keyed.append(("planted", module_term(4, (0, 0, 0, 0), syzygy.Psi(0))))
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, keyed))
    code = main(["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "2", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["counts"]["syzygies"] == base.counts()
    checks = {c["check"]: c for c in payload["checks"]}
    assert checks["leading-term-shape"]["witness"] == {"mismatches": [{
        "element": "planted", "computed": {"expo": [0, 0, 0, 0], "basis": {"kind": "Psi", "j": 0}},
        "expected": None}]}


def test_run_config_direct(tmp_path):
    args = _build_parser().parse_args(
        ["info", "--m0", "7", "--d", "1", "--p", "3", "--format", "json",
         "--output", str(tmp_path / "info.json")]
    )
    assert run(args) == 0
    payload = json.loads((tmp_path / "info.json").read_text())
    assert payload["params"]["generators"] == [7, 8, 9, 10]
    assert payload["m0_multiple"] == [4, 2, 1]


@pytest.mark.parametrize("span", ["2..", "..2"])
def test_a_range_with_an_empty_end_is_rejected(span):
    # "2.." is no single value: both spellings exit 2 with the one message,
    # through main and through the full parser tree
    argv = ["sweep", "--p", span, "--a", "1..1", "--d", "1..1"]
    for call in (main, _run_full_tree):
        code, out, err = _outcome(call, argv)
        assert (code, out) == (2, ""), (call, span)
        assert f"expected lo..hi with integers, got {span!r}" in err
        assert sum("error:" in line for line in err.splitlines()) == 1


def _outcome(call, argv) -> tuple:
    # (exit code, stdout, stderr): the return value, or SystemExit's code
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def _run_full_tree(argv) -> int:
    # the reference parse: the top-level parser and all five subparsers
    return run(_build_parser().parse_args(argv))


TRIPLE = ["--m0", "7", "--d", "1", "--p", "3"]
PARITY_ARGV = [
    [], ["-h"], ["bogus", *TRIPLE],
    *([command, "-h"] for command in ("info", "generators", "syzygies", "verify", "sweep")),
    ["info", "--m0", "7", "--p", "3"],
    ["verify", "--m0", "7", "--d", "1", "--p", "x"],
    ["generators", *TRIPLE, "--format", "xml"],
    ["verify", *TRIPLE, "--bound", "1"],
    ["verify", *TRIPLE, "--samples", "-1"],
    ["sweep", "--p", "3..3", "--a", "2..2", "--b", "0..1"],
    ["info", *TRIPLE, "--extra"],
    ["verify", "--m0", "7", "--bogus", "3", "--d", "1", "--p", "3", "--bound", "2"],
    ["verify", *TRIPLE, "--bound", "2", "--samp", "3"],
    ["sweep", "--p", "2..2", "--s", "1"],
    ["info", *TRIPLE, "--output", "{tmp}"],
    ["info", "--m0", "6", "--d", "2", "--p", "3"],
    ["info", "--", *TRIPLE],
    ["info", *TRIPLE],
    ["verify", *TRIPLE, "--bound", "2", "--seed", "4", "--format", "json"],
    ["sweep", "--p", "2..3", "--a", "1..1", "--d", "1..2", "--bound", "2", "--shallow"],
    ["sweep", "--p", "2..2", "--a", "1..1", "--d", "1..2", "--bound", "2"],
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_main_prints_and_exits_as_the_full_parser_tree(argv, monkeypatch, tmp_path):
    # main parses a command with its own parser alone; the reference parses
    # every argv with the tree of all five, and must read the same
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _outcome(main, argv) == _outcome(_run_full_tree, argv)


FULL_TREE = ["monocurve"] + [f"monocurve {command}" for command in
                              ("info", "generators", "syzygies", "verify", "sweep")]


@pytest.mark.parametrize("argv, progs", [
    (["info", *TRIPLE], ["monocurve info"]),
    (["verify", *TRIPLE, "--bound", "2"], ["monocurve verify"]),
    # the command's own parser prints the usage error of a missing option
    (["verify", "--m0", "7"], ["monocurve verify"]),
    # an unknown command, and a stray argument after its command's parse
    (["bogus"], FULL_TREE),
    (["info", *TRIPLE, "--extra"], ["monocurve info", *FULL_TREE]),
])
def test_main_builds_one_parser_unless_the_full_tree_must_answer(argv, progs, monkeypatch,
                                                                  capsys):
    # the full tree is a top-level parser and one subparser per command
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(kwargs.get("prog"))
                        or init(self, *args, **kwargs))
    with contextlib.suppress(SystemExit):
        main(argv)
    assert built == progs


def test_main_reads_the_command_line_when_given_no_argv(monkeypatch, capsys):
    # the path of the monocurve console script, which calls main()
    monkeypatch.setattr(sys, "argv", ["monocurve", "info", *TRIPLE])
    assert main() == 0
    assert "a = 2, b = 1" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["monocurve"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2


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
    "generators-7-1-3.txt": ["generators", "--m0", "7", "--d", "1", "--p", "3"],
    "syzygies-7-1-3.txt": ["syzygies", "--m0", "7", "--d", "1", "--p", "3"],
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
    # a passing verify at scale; its S-pairs are too many to scan here
    "verify-97-2-32.json": ["verify", "--m0", "97", "--d", "2", "--p", "32", "--bound", "2",
                            "--format", "json"],
    "sweep-p2-3-a1-1-d1-3.txt": ["sweep", "--p", "2..3", "--a", "1..1", "--d", "1..3",
                                 "--bound", "2"],
    # at p = 6 the families' loop order differs from their label order
    "generators-13-2-6.txt": ["generators", "--m0", "13", "--d", "2", "--p", "6"],
    "syzygies-13-2-6.txt": ["syzygies", "--m0", "13", "--d", "2", "--p", "6"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
def test_output_matches_golden(name, capsys):
    # the default output is a contract: any change to it must be deliberate
    assert main(GOLDEN_CALLS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["verify-7-1-3.json", "verify-8-3-2.txt", "verify-13-2-6.json",
                                  "verify-17-3-8.json"])
def test_scanned_s_pairs_of_a_passing_triple_match_golden(name, monkeypatch, capsys):
    # with the three certificates failing, every S-pair check scans its
    # pairs and the closures run; a passing triple still prints its golden
    monkeypatch.setattr(syzygy, "_certified", lambda table, expected: False)
    monkeypatch.setattr(syzygy, "_module_identity", lambda curve: False)
    monkeypatch.setattr(generators, "_minimal_by_count", lambda table: False)
    assert main(GOLDEN_CALLS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


HALF_LEAD_GOLDEN_CALLS = {
    # its s-vectors-reduce passes, so it divides every same-symbol module pair
    "verify-35-2-16-half-lead.json": ["verify", "--m0", "35", "--d", "2", "--p", "16",
                                      "--bound", "2", "--format", "json"],
    "verify-7-1-3-half-lead.json": ["verify", "--m0", "7", "--d", "1", "--p", "3",
                                    "--bound", "2", "--format", "json"],
    "verify-8-3-2-half-lead.txt": ["verify", "--m0", "8", "--d", "3", "--p", "2",
                                   "--bound", "2"],
}


def _half_lead(params):
    # 2*X1^2 - X2*X0 in place of phi(1,1): lead coefficient 2, not in the ideal
    gset = groebner_generators(params)
    p = params.p
    x1x1 = tuple(2 if k == 0 else 0 for k in range(p + 1))
    x2x0 = tuple(1 if k in (1, p) else 0 for k in range(p + 1))
    bad = Poly(params.nvars, {x1x1: 2, x2x0: -1})
    return GeneratorSet(params, {**gset.phis, (1, 1): bad}, gset.psis)


@pytest.mark.parametrize("name", sorted(HALF_LEAD_GOLDEN_CALLS))
def test_fractional_witnesses_match_golden(name, monkeypatch, capsys):
    # the half lead's divisions leave the integers, and the witnesses carry
    # -1/2 and 1/2; it lies outside the curve ideal, so both certificates
    # fail and both closures run: the closed-form set's, grown from empty,
    # and the classical set's
    closures, closure_init = [], Closure.__init__

    def count_closure(self, order, gens=()):
        closures.append("classical" if gens else "closed-form")
        closure_init(self, order, gens)

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", _half_lead)
    monkeypatch.setattr(Closure, "__init__", count_closure)
    assert main(HALF_LEAD_GOLDEN_CALLS[name]) == 1
    assert closures == ["closed-form", "classical"]
    out = capsys.readouterr().out
    assert '"coeff": "-1/2"' in out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


FLIPPED_A_GOLDEN_CALLS = {
    "verify-7-1-3-flipped-a.json": ["verify", "--m0", "7", "--d", "1", "--p", "3",
                                    "--bound", "2", "--format", "json"],
    "verify-13-2-6-flipped-a.txt": ["verify", "--m0", "13", "--d", "2", "--p", "6",
                                    "--bound", "3"],
}


def _flipped_a(params):
    # A(1;b,0) with the sign of its first term flipped: no longer a relation
    planted = []
    for key, g in syzygy.SyzygySet(params).keyed():
        if key == ("A", (1, 0)):
            terms = dict(g.terms)
            first = next(iter(terms))
            terms[first] = -terms[first]
            g = syzygy.ModElement._raw(g.nvars, terms)
        planted.append((key, g))
    return planted_syzygies(params, planted)


@pytest.mark.parametrize("name", sorted(FLIPPED_A_GOLDEN_CALLS))
def test_a_flipped_member_matches_golden(name, monkeypatch, capsys):
    # members-are-relations names the flipped member and its image, read
    # from the packed codes of the walk that builds the Curve; the module
    # identity is not tried, so both module scans divide
    monkeypatch.setattr(syzygy, "syzygy_basis", _flipped_a)
    assert main(FLIPPED_A_GOLDEN_CALLS[name]) == 1
    out = capsys.readouterr().out
    assert "A(1;" in out and '"2/1"' in out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_the_syzygy_basis_reads_nothing_of_the_closed_form_set(monkeypatch):
    # with the half lead planted in place of phi(1,1), B and the whole
    # basis stay the unplanted ones, alone and inside a Curve
    for pr in (make_params(7, 1, 3), make_params(17, 3, 8), make_params(9, 1, 3)):
        want = syzygy.syzygy_basis(pr)
        monkeypatch.setattr("monocurve.syzygy.groebner_generators", _half_lead)
        curve = syzygy.Curve(pr)
        assert curve.gset.phis[1, 1] != groebner_generators(pr).phis[1, 1]
        members = list(want.keyed())
        assert list(syzygy.syzygy_basis(pr).keyed()) == members == list(curve.sset.keyed())
        monkeypatch.undo()


def test_a_failing_harvest_divides_no_ring_s_pair_past_its_first_failure(monkeypatch):
    # with the half lead planted at (17,3,8) the first harvested relation
    # fails, and the harvest builds no S-polynomial of the binomials after
    # it; divided in full it would build one per pair, 630
    ring_pairs, s_pair = [], Reducer.s_pair

    def count(self, x, y):
        ring_pairs.append(self.ring)
        return s_pair(self, x, y)

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", _half_lead)
    monkeypatch.setattr(Reducer, "s_pair", count)
    report = syzygy.verify_syzygy_basis(syzygy.Curve(make_params(17, 3, 8)))
    (record,) = [c for c in report.checks if c.name == "harvested-relations-reduce"]
    assert (record.passed, record.detail) == (False, "1 harvested relations")
    assert record.witness == {"pair": ["Phi(1,1)", "Phi(1,2)"],
                              "problem": "S-polynomial does not reduce to zero"}
    assert ring_pairs.count(True) == 1


def _wrong_stamp(monkeypatch):
    # X0 times Psi(0)'s stamp: the module order projects Psi(0) terms off
    # their images' leads, so projection-matches-image-lead fails on the
    # first sample drawn on Psi(0), and no other check fails
    stamp = syzygy._stamp

    def wrong(params, sym):
        mono = stamp(params, sym)
        if sym == syzygy.Psi(0):
            return polyring.mono_mul(mono, polyring.variable_monomial(params.p, 0))
        return mono

    monkeypatch.setattr(syzygy, "_stamp", wrong)


FAILING_PLANTS = {
    "half-lead": lambda patch: patch.setattr("monocurve.syzygy.groebner_generators", _half_lead),
    "wrong-stamp": _wrong_stamp,
}


def _sweep_failures_match_verify(capsys, projection_only: bool):
    # every verified triple fails, with the failing records, witnesses
    # included, of a shallow verify at the sweep's bound, samples and seed
    sweep = ["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2", "--bound", "2", "--seed", "5"]
    assert main(sweep + ["--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    verified = [e for e in data["entries"] if e["status"] != "skip"]
    skipped = len(data["entries"]) - len(verified)
    assert verified and skipped
    assert len({(e["p"], e["b"]) for e in verified}) < len(verified)
    assert data["summary"] == {"ran": len(verified), "passed": 0,
                               "failed": len(verified), "skipped": skipped}
    for e in verified:
        assert e["status"] == "fail"
        if projection_only:
            assert [rec["check"] for rec in e["failures"]] == ["projection-matches-image-lead"]
        argv = ["verify", "--m0", str(e["m0"]), "--d", str(e["d"]), "--p", str(e["p"]),
                "--bound", "2", "--samples", "200", "--seed", "5", "--shallow",
                "--format", "json"]
        assert main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert e["failures"] == [rec for rec in checks if rec["status"] == "fail"]

    assert main(sweep) == 1
    *lines, summary = capsys.readouterr().out.splitlines()
    assert len(lines) == len(data["entries"])
    for line, e in zip(lines, data["entries"]):
        assert line.endswith(": fail") == (e["status"] == "fail")
    assert summary == (f"summary: {len(verified)} verified, 0 passed,"
                       f" {len(verified)} failed, {skipped} skipped")


def test_a_sweep_with_failing_triples_reports_each_failure(monkeypatch, capsys):
    # each plant fails every triple; the grid repeats each (p, b) over a and
    # d, so the wrong stamp's witnesses come from terms the sweep drew for
    # an earlier triple of the same (p, b)
    for plant, install in FAILING_PLANTS.items():
        with monkeypatch.context() as patch:
            install(patch)
            _sweep_failures_match_verify(capsys, projection_only=plant == "wrong-stamp")


def test_a_sweep_draws_each_shapes_projection_terms_once(monkeypatch, capsys):
    # the sampled projection terms depend on p and b (with the samples and
    # the seed) alone: a sweep draws them once per (p, b) it verifies, and
    # a verify draws once
    shapes, draws = [], syzygy._draws

    def count(*shape):
        shapes.append(shape)
        return draws(*shape)

    monkeypatch.setattr(syzygy, "_draws", count)
    assert main(["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2", "--bound", "2",
                 "--format", "json"]) == 0
    verified = [e for e in json.loads(capsys.readouterr().out)["entries"]
                if e["status"] != "skip"]
    pb = {(e["p"], e["b"]) for e in verified}
    assert len(pb) < len(verified)
    assert len(shapes) == len(set(shapes)) == len(pb)
    shapes.clear()
    assert main(["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "2"]) == 0
    assert len(shapes) == 1


def _first_draw_of_each_symbol(shape):
    # every sample of the shape, then each symbol index's first, in order
    terms, seen = list(syzygy._draws(*shape)), set()
    return [term for term in terms if term[1] not in seen and not seen.add(term[1])]


def test_a_sweep_holds_only_the_current_ps_draws(monkeypatch, capsys):
    # p is the grid's outer loop, and each shape carries p + 1 variables,
    # so no later triple reuses an earlier p's draws: the sweep drops them
    # and holds at most p shapes, all of the current p.  A shape holds
    # each symbol's first draw, in draw order, and each triple's check
    # ring-keys its image monomials and those drawn monomials alone, so
    # neither grows with --samples once every symbol is drawn
    held, keyed, bundle, check = [], None, cli.verification_bundle, syzygy.verify_order_projection
    ring_key = WeightOrder.key

    def key(self, mono):
        if keyed is not None:
            keyed.append(mono)
        return ring_key(self, mono)

    def record(curve, *args, drawn=None, **kwargs):
        reports = bundle(curve, *args, drawn=drawn, **kwargs)
        held.append((curve.params.p, len(drawn), {shape[0] for shape in drawn}))
        for shape, terms in drawn.items():
            assert terms == _first_draw_of_each_symbol(shape), shape
            assert len(terms) <= shape[1]
        return reports

    def counted(curve, samples, seed, drawn):
        nonlocal keyed
        keyed = []
        report = check(curve, samples=samples, seed=seed, drawn=drawn)
        monos, keyed = keyed, None
        terms = drawn[curve.params.nvars, len(curve.images), samples, seed]
        images = [m for g in curve.images.values() for m in g.terms]
        assert collections.Counter(monos) == collections.Counter(images + [m for m, _ in terms])
        keys[samples] += len(monos)
        return report

    monkeypatch.setattr(cli, "verification_bundle", record)
    monkeypatch.setattr(syzygy, "verify_order_projection", counted)
    monkeypatch.setattr(WeightOrder, "key", key)
    keys = collections.Counter()
    for samples in (20, 200, 5000):
        held.clear()
        assert main(["sweep", "--p", "2..4", "--a", "1..2", "--d", "1..2", "--bound", "2",
                     "--samples", str(samples)]) == 0
        capsys.readouterr()
        assert all(nvars == {p + 1} and n <= p for p, n, nvars in held)
        # by each p's last triple, every b of that p has drawn its shape
        assert {p: n for p, n, _ in held} == {2: 2, 3: 3, 4: 4}
    # 200 samples already draw every symbol of each shape
    assert keys[20] < keys[200] == keys[5000]


@pytest.mark.parametrize("seed", [0, 5])
def test_a_failing_verify_draws_no_sample_past_its_witness(seed, monkeypatch, capsys):
    # under the wrong stamp the k-th sample, the first drawn on Psi(0),
    # fails; verify stops there, having drawn p + 1 exponents and one
    # symbol index per sample, whatever --samples asks for
    params = make_params(7, 1, 3)
    symbols = sorted(syzygy.Curve(params).images, key=str)
    rng, k = random.Random(seed), 0
    while True:
        k += 1
        for _ in range(params.nvars):
            rng.randrange(0, 5)
        if symbols[rng.randrange(len(symbols))] == syzygy.Psi(0):
            break
    assert 1 < k < 200
    _wrong_stamp(monkeypatch)
    calls, randrange = [], random.Random.randrange
    monkeypatch.setattr(random.Random, "randrange",
                        lambda self, *args: calls.append(args) or randrange(self, *args))
    for samples in (k, 200, 1000):
        calls.clear()
        argv = ["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "2",
                "--samples", str(samples), "--seed", str(seed), "--format", "json"]
        assert main(argv) == 1
        (record,) = [rec for rec in json.loads(capsys.readouterr().out)["checks"]
                     if rec["status"] == "fail"]
        assert record["check"] == "projection-matches-image-lead"
        assert record["witness"]["term"]["basis"] == {"kind": "Psi", "j": 0}
        assert len(calls) == k * (params.p + 2), samples


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_device_exits_2_with_one_error_line():
    # /dev/full passes the directory check and then fails the write
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "monocurve.cli", "info", "--m0", "7", "--d", "1", "--p", "3",
         "--output", "/dev/full"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write '/dev/full': No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [["info"], ["verify", "--bound", "2", "--samples", "20"]])
def test_a_full_stdout_exits_2_with_one_error_line(command):
    # a failed write to stdout other than a broken pipe is an unwritable output
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "monocurve.cli", command[0], "--m0", "7", "--d", "1", "--p", "3",
             *command[1:]],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write to stdout: No space left on device"]


def test_an_output_path_with_a_null_byte_exits_2_without_a_traceback(tmp_path):
    # open() raises ValueError, not OSError, on such a path: the parser must stop it
    code, out, err = _outcome(main, ["info", *TRIPLE, "--output", str(tmp_path / "bad\x00name")])
    assert code == 2 and out == ""
    assert "null byte" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


OUTPUT_CALLS = [
    [command, *TRIPLE] for command in ("info", "generators", "syzygies")
] + [
    ["verify", *TRIPLE, "--bound", "2", "--samples", "20"],
    ["sweep", "--p", "2..2", "--a", "1..1", "--d", "1..2", "--bound", "2", "--samples", "20"],
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, half_lead", [(argv, False) for argv in OUTPUT_CALLS]
                         + [(argv, True) for argv in OUTPUT_CALLS[3:]])
def test_an_output_file_holds_the_bytes_stdout_gets(argv, half_lead, fmt, monkeypatch, tmp_path):
    # the half-lead plant fails verify and every swept triple, so both exit 1
    if half_lead:
        monkeypatch.setattr("monocurve.syzygy.groebner_generators", _half_lead)
    argv = [*argv, "--format", fmt]
    path = tmp_path / "out"
    code, out, err = _outcome(main, argv)
    assert (code, err) == (int(half_lead), "")
    assert _outcome(main, [*argv, "--output", str(path)]) == (code, "", "")
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [["verify", *TRIPLE, "--bound", "2"],
                                  ["sweep", "--p", "2..2", "--a", "1..1", "--d", "1..1"]])
def test_a_memory_error_exits_2_with_one_error_line(argv, monkeypatch):
    # Curve raises as a build too large for memory would: no large build runs
    def out_of_memory(params):
        raise MemoryError

    monkeypatch.setattr("monocurve.syzygy.Curve", out_of_memory)
    code, out, err = _outcome(main, argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


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
    # when the ring identity fails, the S-polynomial of every pair of the
    # closed-form set is divided by the triple's ring reducer twice, once
    # by the S-pair scan and once by the syzygy check's one harvest, which
    # builds no Reducer; the classical generators are the only other
    # elements it divides
    curves, divisions, harvests = [], collections.Counter(), collections.Counter()
    init, divide, harvest = syzygy.Curve.__init__, Reducer.divide, syzygy.schreyer_relations
    reducer_init, built = Reducer.__init__, []

    def keep(self, params):
        init(self, params)
        curves.append(self)

    def count_division(self, f):
        divisions[self] += 1
        return divide(self, f)

    def count_reducer(self, order, basis=(), leads=None):
        built.append(self)
        reducer_init(self, order, basis, leads)

    def count_harvest(curve):
        harvests[curve.ring_reducer] += 1
        before = len(built)
        rows = list(harvest(curve))
        assert len(built) == before
        return rows

    monkeypatch.setattr(syzygy.Curve, "__init__", keep)
    monkeypatch.setattr(syzygy, "_certified", lambda table, expected: False)
    monkeypatch.setattr(Reducer, "divide", count_division)
    monkeypatch.setattr(Reducer, "__init__", count_reducer)
    monkeypatch.setattr(syzygy, "schreyer_relations", count_harvest)

    def check(ran):
        assert len(curves) == ran
        for curve in curves:
            table = curve.ring_reducer
            assert not curve.ring_certified
            assert harvests[table] == 1
            assert divisions[table] == 2 * len(table.pairs()) + len(curve.patil)

    assert main(["verify", "--m0", "13", "--d", "2", "--p", "6", "--bound", "2"]) == 0
    check(1)

    curves.clear()
    capsys.readouterr()
    assert main(["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2", "--bound", "2",
                 "--format", "json"]) == 0
    ran = json.loads(capsys.readouterr().out)["summary"]["ran"]
    assert ran > 1
    check(ran)


def test_each_triple_closes_its_closed_form_set_once(monkeypatch, capsys):
    # on a certified triple the certificates decide every ring record, deep
    # minimality by counting minimal generators per weight, so no verify
    # and no sweep triple closes the closed-form set; a closure asked for
    # afterwards is built once
    curves, closures = [], collections.Counter()
    init, closure_init = syzygy.Curve.__init__, Closure.__init__

    def keep(self, params):
        init(self, params)
        curves.append(self)

    def count_closure(self, order, gens=()):
        closures[order] += 1
        closure_init(self, order, gens)

    monkeypatch.setattr(syzygy.Curve, "__init__", keep)
    monkeypatch.setattr(Closure, "__init__", count_closure)
    for extra in ([], ["--shallow"]):
        curves.clear()
        closures.clear()
        assert main(["verify", "--m0", "13", "--d", "2", "--p", "6", "--bound", "2"] + extra) == 0
        (curve,) = curves
        assert curve.ring_certified
        assert not closures and curve._closure is None, extra
        assert curve.closure() is curve.closure()
        assert closures == {curve.order: 1}

    curves.clear()
    closures.clear()
    capsys.readouterr()
    assert main(["sweep", "--p", "2..3", "--a", "1..2", "--d", "1..2", "--bound", "2",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["ran"] == len(curves) > 1
    assert not closures


def test_a_certified_triple_divides_no_pair_past_its_heaviest_generator(monkeypatch, capsys):
    # a passing shallow verify builds no S-polynomial at all; a deep one
    # whose count certificate fails falls back to the closure, which pops
    # pairs only up to the heaviest generator's weight, leaves the heavier
    # ones queued, and builds one S-polynomial per popped pair
    curves, spolys, popped = [], [], []
    init, s_pair, pop = syzygy.Curve.__init__, Reducer.s_pair, polyring.heappop

    def keep(self, params):
        init(self, params)
        curves.append(self)

    def count_spoly(self, x, y):
        spolys.append((self, x, y))
        return s_pair(self, x, y)

    def record_pop(heap):
        popped.append(heap[0][0])
        return pop(heap)

    monkeypatch.setattr(syzygy.Curve, "__init__", keep)
    monkeypatch.setattr(Reducer, "s_pair", count_spoly)
    monkeypatch.setattr(polyring, "heappop", record_pop)
    argv = ["verify", "--m0", "41", "--d", "2", "--p", "12", "--bound", "2"]
    assert main(argv + ["--shallow"]) == 0
    assert not spolys and not popped

    curves.clear()
    monkeypatch.setattr(generators, "_minimal_by_count", lambda table: False)
    assert main(argv) == 0
    (curve,) = curves
    assert curve.ring_certified
    top = max(curve.order.weight(lm) for lm, _ in curve.ring_reducer.leads)
    grown = curve.closure()[0]
    assert popped and max(popped) <= top
    assert len(spolys) == len(popped) and all(table is grown for table, _, _ in spolys)
    assert grown._pairs and min(w for w, *_ in grown._pairs) > top
    capsys.readouterr()


def test_a_passing_verify_divides_no_s_pair(monkeypatch, capsys):
    # on a passing triple the two Hilbert-series identities decide both
    # S-pair checks, and closed forms decide the ideal equality: no harvest
    # is built, nothing is divided, and the only Reducer is each curve's
    # ring Reducer, so none is built over the classical set, and the
    # module Reducer, which only a failing scan reads, is never built
    curves, divisions, harvests, reducers = [], collections.Counter(), [], []
    init, reducer_init, divide = syzygy.Curve.__init__, Reducer.__init__, Reducer.divide

    def keep(self, params):
        init(self, params)
        curves.append(self)

    def keep_reducer(self, order, basis=(), leads=None):
        reducer_init(self, order, basis, leads)
        reducers.append(self)

    def count_division(self, f):
        divisions[self] += 1
        return divide(self, f)

    monkeypatch.setattr(syzygy.Curve, "__init__", keep)
    monkeypatch.setattr(Reducer, "__init__", keep_reducer)
    monkeypatch.setattr(Reducer, "divide", count_division)
    monkeypatch.setattr(syzygy, "schreyer_relations", harvests.append)

    def check(ran):
        assert len(curves) == ran
        assert not harvests
        assert not divisions
        assert all(curve._module_reducer is None for curve in curves)
        owned = [curve.ring_reducer for curve in curves]
        assert reducers == owned

    assert main(["verify", "--m0", "41", "--d", "2", "--p", "12", "--bound", "2",
                 "--format", "json"]) == 0
    details = {c["check"]: c.get("detail") for c in json.loads(capsys.readouterr().out)["checks"]}
    assert details["s-polynomials-reduce"] == "2701 pairs"
    assert details["s-vectors-reduce"] == "4092 same-symbol pairs"
    assert details["harvested-relations-reduce"] == "2701 harvested relations"
    check(1)

    curves.clear()
    reducers.clear()
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
    code, _, err = outcome = _outcome(main, argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    # and main, parsing a command with its own parser, reads as the full tree
    assert outcome == _outcome(_run_full_tree, argv), argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_syzygies_keys_each_distinct_term_once(monkeypatch, capsys, fmt):
    # the terms are sorted once per member, and the JSON lead is the first
    # sorted term, not a leading_term: each member's terms are keyed once,
    # so a term that two members share is keyed once by each
    calls, leads, key = [], [], syzygy.ModuleOrder.key
    monkeypatch.setattr(syzygy.ModuleOrder, "key",
                        lambda self, term: calls.append(term) or key(self, term))
    monkeypatch.setattr(syzygy.ModuleOrder, "leading_term", lambda self, elem: leads.append(elem))
    assert main(["syzygies", "--m0", "13", "--d", "2", "--p", "6", "--format", fmt]) == 0
    capsys.readouterr()
    members = [g for _, g in syzygy.syzygy_basis(make_params(13, 2, 6)).keyed()]
    assert collections.Counter(calls) == collections.Counter(t for g in members for t in g.terms)
    assert len(set(calls)) < len(calls)  # some members share a term
    assert leads == []
