import json

import pytest

from monocurve import make_params
from monocurve.cli import RunConfig, main, run, verification_bundle
from monocurve.generators import groebner_generators
from monocurve.polyring import WeightOrder, poly_from_json
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


def test_usage_error_exits_2(capsys):
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
    ):
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


def test_run_config_direct(tmp_path):
    config = RunConfig(command="info", m0=7, d=1, p=3, fmt="json",
                       output=str(tmp_path / "info.json"))
    assert run(config) == 0
    payload = json.loads((tmp_path / "info.json").read_text())
    assert payload["params"]["generators"] == [7, 8, 9, 10]
    assert payload["m0_multiple"] == [4, 2, 1]


def test_bundle_shapes(p713):
    reports = verification_bundle(p713, bound=4, samples=50, seed=0, deep=False)
    names = [c.name for r in reports for c in r.checks]
    assert "s-polynomials-reduce" in names
    assert "harvested-relations-reduce" in names
    assert "no-redundant-generator" not in names  # deep disabled
