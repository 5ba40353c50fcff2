import itertools

import pytest

from monocurve import make_params, parameter_sweep, weight
from monocurve.generators import (
    epsilon,
    expected_leading_monomials,
    groebner_generators,
    is_standard_shape,
    pairwise_lt_division,
    patil_generators,
    phi_binomial,
    psi_binomial,
    standard_monomials,
    tau,
    verify_groebner_generators,
    verify_ideal_equality,
    verify_minimality,
    verify_standard_monomials,
)
from monocurve.polyring import Poly, WeightOrder, in_curve_ideal, mono_divides, mono_to_name
from monocurve.syzygy import Curve

SWEEP = list(parameter_sweep(range(2, 6), range(1, 4), range(1, 6)))


def test_epsilon_tau():
    assert epsilon(1, 2, 3) == 3 and tau(1, 2, 3) == 3
    assert epsilon(1, 1, 3) == 2 and tau(1, 1, 3) == 0
    assert epsilon(0, 0, 3) == 0 and tau(0, 0, 3) == 0


def test_phi_binomials(p713):
    assert phi_binomial(p713, 1, 2) == Poly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert phi_binomial(p713, 1, 1) == Poly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -1})
    assert phi_binomial(p713, 2, 2) == Poly(4, {(0, 2, 0, 0): 1, (1, 0, 1, 0): -1})
    assert phi_binomial(p713, 2, 1) == phi_binomial(p713, 1, 2)
    with pytest.raises(IndexError):
        phi_binomial(p713, 0, 1)
    with pytest.raises(IndexError):
        phi_binomial(p713, 1, 3)


def test_psi_binomials(p713):
    assert psi_binomial(p713, 0) == Poly(4, {(1, 0, 2, 0): 1, (0, 0, 0, 4): -1})
    assert psi_binomial(p713, 1) == Poly(4, {(0, 1, 2, 0): 1, (1, 0, 0, 3): -1})
    assert psi_binomial(p713, 2) == Poly(4, {(0, 0, 3, 0): 1, (0, 1, 0, 3): -1})
    with pytest.raises(IndexError):
        psi_binomial(p713, 3)
    with pytest.raises(IndexError):
        psi_binomial(p713, -1)


def test_generator_set_sizes(p713, p832):
    assert len(groebner_generators(p713)) == 6
    gset = groebner_generators(p832)
    assert len(gset) == 2
    assert sorted(gset.phis) == [(1, 1)] and sorted(gset.psis) == [0]
    for pr in SWEEP:
        gset = groebner_generators(pr)
        assert len(gset.phis) == pr.p * (pr.p - 1) // 2
        assert len(gset.psis) == pr.p - pr.b + 1


def test_generators_are_weight_homogeneous():
    for pr in SWEEP:
        for g in groebner_generators(pr).polynomials():
            monos = list(g.terms)
            assert len(monos) == 2
            assert weight(pr, monos[0]) == weight(pr, monos[1])
            assert sorted(g.terms.values()) == [-1, 1]


def test_generators_lie_in_curve_ideal():
    for pr in SWEEP:
        for g in groebner_generators(pr).polynomials():
            assert in_curve_ideal(pr, g)
        for g in patil_generators(pr).polynomials():
            assert in_curve_ideal(pr, g)


def test_leading_monomials_match_prediction():
    for pr in SWEEP:
        order = WeightOrder(pr)
        computed = {
            order.leading_monomial(g) for g in groebner_generators(pr).polynomials()
        }
        assert computed == expected_leading_monomials(pr)


def test_patil_set_explicit(p713):
    patil = patil_generators(p713)
    assert patil.xis == {(1, 1): Poly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -1})}
    assert patil.phis[0] == Poly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert patil.phis[1] == Poly(4, {(0, 2, 0, 0): 1, (1, 0, 1, 0): -1})
    assert patil.psis[0] == psi_binomial(p713, 0)
    assert patil.psis[1] == psi_binomial(p713, 1)
    assert patil.theta == psi_binomial(p713, 2)
    assert len(patil) == 6


def test_patil_rewriting_identities():
    for pr in SWEEP:
        patil = patil_generators(pr)
        for (i, j), xi in patil.xis.items():
            if i + j <= pr.p - 1:
                assert xi == phi_binomial(pr, i, j)
            else:
                assert xi + patil.phis[i + j - pr.p] == phi_binomial(pr, i, j)
        for i, g in patil.phis.items():
            assert g == phi_binomial(pr, i + 1, pr.p - 1)
        assert patil.theta == psi_binomial(pr, pr.p - pr.b)


def test_verify_groebner(p713, p832):
    assert verify_groebner_generators(Curve(p713)).passed
    assert verify_groebner_generators(Curve(p832)).passed


def test_verify_minimality_deep(p713, p832):
    assert verify_minimality(Curve(p713), deep=True).passed
    assert verify_minimality(Curve(p832), deep=True).passed


def test_minimality_detects_planted_redundancy(p713):
    order = WeightOrder(p713)
    gset = groebner_generators(p713)
    labeled = gset.labeled()
    assert pairwise_lt_division(order, labeled) is None
    x1 = Poly.term(4, (1, 0, 0, 0))
    planted = labeled + [("planted", x1 * phi_binomial(p713, 1, 1))]
    offender = pairwise_lt_division(order, planted)
    assert offender is not None
    assert offender["multiple"] == "planted"


def test_verify_ideal_equality(p713, p832, p613):
    for pr in (p713, p832, p613, make_params(13, 3, 5)):
        report = verify_ideal_equality(Curve(pr))
        assert report.passed, [c.name for c in report.failures()]


def test_standard_monomial_count(p713):
    # six X0 exponents times seven (X_i, X_p-power) shapes
    assert len(standard_monomials(Curve(p713), 5)) == 42


def _box_minus_lead_ideal(pr, bound):
    # brute-force reference: every monomial of the exponent box, in box order,
    # that no leading monomial divides
    order = WeightOrder(pr)
    lms = [order.leading_monomial(g) for g in groebner_generators(pr).polynomials()]
    return [
        mono
        for mono in itertools.product(range(bound + 1), repeat=pr.nvars)
        if not any(mono_divides(lm, mono) for lm in lms)
    ]


def test_standard_shape_matches_enumeration():
    for pr in SWEEP[:40]:
        curve = Curve(pr)
        for bound in (2, 3, 4):
            assert standard_monomials(curve, bound) == _box_minus_lead_ideal(pr, bound), (pr, bound)
        enumerated = set(standard_monomials(curve, 4))
        for mono in itertools.product(range(5), repeat=pr.nvars):
            assert (mono in enumerated) == is_standard_shape(pr, mono)


def test_mixed_monomials_are_standard(p713):
    # X1*X3*X0 carries all three variable kinds and stays outside the
    # leading-term ideal because the X3 exponent stays below a
    assert is_standard_shape(p713, (1, 0, 1, 1))
    assert (1, 0, 1, 1) in standard_monomials(Curve(p713), 2)


def test_verify_standard_monomials(p713):
    curve = Curve(p713)
    report = verify_standard_monomials(curve, 6)
    assert report.passed, [c.name for c in report.failures()]
    with pytest.raises(ValueError):
        verify_standard_monomials(curve, 1)


@pytest.mark.parametrize("m0, d, p", [(7, 1, 3), (8, 3, 2), (13, 2, 5)])
def test_eta_distinct_reports_the_first_planted_collision(monkeypatch, m0, d, p):
    # plant every product X_i*X_j of inner variables: several of them weigh the
    # same as a standard monomial, so the check must fail on the first
    # colliding pair of the pairwise loop it replaced
    pr = make_params(m0, d, p)
    curve = Curve(pr)
    real = standard_monomials(curve, 3)
    planted = sorted(
        {tuple(sum(v == k for v in pick) for k in range(pr.nvars))
         for pick in itertools.combinations_with_replacement(range(p - 1), 2)}
    )
    std = sorted(real + planted)
    monkeypatch.setattr("monocurve.generators.standard_monomials", lambda *_: std)
    monkeypatch.setattr(
        "monocurve.generators.is_standard_shape",
        lambda params, mono: mono in planted or is_standard_shape(params, mono),
    )

    checked, pair = 0, None
    for x in range(len(std)):
        for y in range(x + 1, len(std)):
            checked += 1
            if in_curve_ideal(pr, Poly(pr.nvars, {std[x]: 1}) - Poly(pr.nvars, {std[y]: 1})):
                pair = [mono_to_name(std[x]), mono_to_name(std[y])]
                break
        if pair:
            break
    assert pair is not None

    shape, eta = verify_standard_monomials(curve, 3).checks
    assert shape.passed
    assert not eta.passed
    assert eta.witness == {"pair": pair}
    assert eta.detail == f"{checked} pairs"


def test_power_and_x0_families_never_collide(p713):
    # instance of the separation behind the standard-monomial check:
    # X3^n*X1 (1 <= n <= a-1) never weighs the same as X0^m*X_j
    for n in range(1, p713.a):
        f = (1, 0, n, 0)
        for m in range(0, 9):
            for j in (1, 2):
                g = [0, 0, 0, m]
                g[j - 1] += 1
                diff = Poly(4, {f: 1}) - Poly(4, {tuple(g): 1})
                assert not in_curve_ideal(p713, diff)


def test_verify_reports_serialize(p713):
    report = verify_groebner_generators(Curve(p713))
    records = report.to_records()
    assert all(rec["status"] == "pass" for rec in records)
    assert all(rec["params"]["m0"] == 7 for rec in records)
    report.require()  # no failure, must not raise
