import bisect
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import make_params
from monocurve.cli import main
from monocurve.generators import (
    GeneratorSet,
    _rank,
    PatilSet,
    epsilon,
    expected_leading_monomials,
    groebner_generators,
    patil_generators,
    phi_binomial,
    psi_binomial,
    standard_monomials,
    standard_shape,
    tau,
    verify_groebner_generators,
    verify_ideal_equality,
    verify_minimality,
    verify_standard_monomials,
)
from monocurve.polyring import (
    Closure,
    Poly,
    Reducer,
    WeightOrder,
    buchberger,
    mono_divides,
    mono_mul,
    mono_to_name,
    normal_form,
    poly_to_json,
    s_polynomial,
    variable_monomial,
)
from monocurve.syzygy import Curve
from oracles import curve_image, parameter_sweep

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
            assert pr.weight(monos[0]) == pr.weight(monos[1])
            assert sorted(g.terms.values()) == [-1, 1]


def test_generators_lie_in_curve_ideal():
    for pr in SWEEP:
        for g in groebner_generators(pr).polynomials():
            assert not curve_image(pr, g)
        for g in patil_generators(pr).polynomials():
            assert not curve_image(pr, g)


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


def test_a_wrong_lead_is_the_leading_term_set_witness(monkeypatch, p713):
    # X1^2 - X3^5 in place of phi(1,1) leads with X3^5, not X1^2
    def replaced(params):
        gset = groebner_generators(params)
        bad = Poly(4, {(2, 0, 0, 0): 1, (0, 0, 5, 0): -1})
        return GeneratorSet(params, {**gset.phis, (1, 1): bad}, gset.psis)

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", replaced)
    check = verify_groebner_generators(Curve(p713)).checks[0]
    assert (check.name, check.passed, check.detail) == ("leading-term-set", False,
                                                        "6 leading monomials")
    assert check.witness == {"unexpected": [[0, 0, 5, 0]], "missing": [[2, 0, 0, 0]]}


@pytest.mark.parametrize("triple, xis, phis, theta, broken", [
    ((7, 1, 3), [(1, 1)], [0], True, ["xi(1,1)", "phi_0", "theta"]),
    # xi(2,4) at p = 6 is rewritten through phi_0, xi(1,2) is not
    ((13, 2, 6), [(2, 4), (1, 2)], [3], False, ["xi(1,2)", "xi(2,4)", "phi_3"]),
])
def test_broken_classical_elements_are_the_rewriting_witness(monkeypatch, triple, xis, phis,
                                                             theta, broken):
    # negated classical elements span the same ideal but break their identities
    def negated(params):
        patil = patil_generators(params)
        return PatilSet(params, {**patil.xis, **{k: -patil.xis[k] for k in xis}},
                        {**patil.phis, **{k: -patil.phis[k] for k in phis}}, patil.psis,
                        -patil.theta if theta else patil.theta)

    monkeypatch.setattr("monocurve.syzygy.patil_generators", negated)
    pr = make_params(*triple)
    checks = {c.name: c for c in verify_ideal_equality(Curve(pr)).checks}
    assert [c.name for c in checks.values() if not c.passed] == ["rewriting-identities"]
    check = checks["rewriting-identities"]
    assert check.detail == f"{len(patil_generators(pr))} identities"
    assert check.witness == {"elements": broken}


def test_verify_minimality_deep(p713, p832):
    assert verify_minimality(Curve(p713), deep=True).passed
    assert verify_minimality(Curve(p832), deep=True).passed
    assert verify_minimality(Curve(make_params(17, 3, 8)), deep=True).passed


def test_truncated_closure_decides_membership_like_buchberger():
    # each generator against the others: the closure truncated at its weight
    # leaves the same remainder as the full reduced basis, so the same verdict
    for pr in SWEEP:
        order = WeightOrder(pr)
        polys = groebner_generators(pr).polynomials()
        for k, g in enumerate(polys):
            others = polys[:k] + polys[k + 1:]
            top = pr.weight(order.leading_monomial(g))
            truncated, _ = normal_form(g, Closure(order, others).close(top))
            full, _ = normal_form(g, Reducer(order, buchberger(order, others)))
            assert truncated == full, (pr, k)


@lru_cache(maxsize=None)
def _classical_reference(triple):
    # the full reduced basis of the classical set, and its weight-homogeneous
    # monomials with exponents <= 2 grouped by weight (two or more per weight)
    pr = make_params(*triple)
    order = WeightOrder(pr)
    patil = patil_generators(pr).polynomials()
    by_weight = {}
    for mono in itertools.product(range(3), repeat=pr.nvars):
        by_weight.setdefault(pr.weight(mono), []).append(mono)
    shared = sorted(w for w, monos in by_weight.items() if len(monos) > 1)
    return pr, order, patil, Reducer(order, buchberger(order, patil)), by_weight, shared


@given(st.sampled_from([(7, 1, 3), (13, 2, 6), (8, 3, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_closure_gives_the_full_normal_form(triple, data):
    pr, order, patil, full, by_weight, shared = _classical_reference(triple)
    w = data.draw(st.sampled_from(shared))
    monos = data.draw(
        st.lists(st.sampled_from(by_weight[w]), min_size=2, max_size=3, unique=True)
    )
    coeffs = data.draw(
        st.lists(st.integers(-3, 3).filter(bool), min_size=len(monos), max_size=len(monos))
    )
    f = Poly(pr.nvars, dict(zip(monos, coeffs)))
    truncated, _ = normal_form(f, Closure(order, patil).close(w))
    assert truncated == normal_form(f, full)[0]


@given(st.sampled_from([(7, 1, 3), (13, 2, 6), (8, 3, 2)]), st.data())
@settings(max_examples=60, deadline=None)
def test_a_resumed_closure_leaves_the_remainders_of_a_truncated_one(triple, data):
    # close(w1), more generators, then close(w2): the same normal forms up to
    # weight w2 as closing all of them at once, truncated at w2
    pr, order, patil, full, by_weight, shared = _classical_reference(triple)
    w1, w2 = sorted(data.draw(st.lists(st.sampled_from(shared), min_size=2, max_size=2)))
    gens = data.draw(st.permutations(patil))
    cut = data.draw(st.integers(0, len(gens)))
    grown = Closure(order, gens[:cut])
    grown.close(w1)
    for g in gens[cut:]:
        grown.add(g)
    resumed = grown.close(w2)
    once = Closure(order, patil).close(w2)
    for w in (w1, w2):
        monos = data.draw(st.lists(st.sampled_from(by_weight[w]), min_size=1, max_size=3, unique=True))
        f = Poly(pr.nvars, {m: data.draw(st.integers(-3, 3).filter(bool)) for m in monos})
        assert normal_form(f, resumed)[0] == normal_form(f, once)[0]
        assert normal_form(f, resumed)[0] == normal_form(f, full)[0]


def _lead_record(curve):
    check = verify_minimality(curve).checks[0]
    assert check.name == "leading-terms-incomparable"
    return check


def test_minimality_detects_planted_redundancy(monkeypatch, p713):
    check = _lead_record(Curve(p713))
    assert check.passed and check.witness is None
    assert check.detail == "30 ordered pairs"
    x1 = Poly.term(4, (1, 0, 0, 0))
    _plant(monkeypatch, lambda params, gset: x1 * phi_binomial(params, 1, 1))
    check = _lead_record(Curve(p713))
    assert not check.passed
    assert check.witness == {"divisor": "phi(1,1)", "multiple": "planted",
                             "monomials": [[2, 0, 0, 0], [3, 0, 0, 0]]}
    assert check.detail == "42 ordered pairs"


@dataclass(frozen=True)
class _PlantedSet(GeneratorSet):
    """The closed-form set with labeled plants before and after it."""

    before: tuple = ()
    after: tuple = ()

    def labeled(self):
        return list(self.before) + super().labeled() + list(self.after)


def _first_redundant(order, labeled):
    # untruncated reference: the first element, in label order, that reduces
    # to zero modulo the full reduced basis of the others
    for k, (lab, g) in enumerate(labeled):
        others = [f for n, (_, f) in enumerate(labeled) if n != k]
        if not normal_form(g, Reducer(order, buchberger(order, others)))[0]:
            return lab
    return None


def _one_left_out(order, labeled):
    # the per-generator reference: the first element, in label order, that
    # reduces to zero modulo the closure of all the others truncated at its
    # own weight
    for k, (lab, g) in enumerate(labeled):
        others = [h for n, (_, h) in enumerate(labeled) if n != k]
        top = order.weight(order.leading_monomial(g))
        if not normal_form(g, Closure(order, others).close(top))[0]:
            return lab
    return None


def _plant(monkeypatch, make, before=False):
    # every Curve built afterwards carries make(params, gset), a polynomial
    # labeled "planted" or a list of (label, polynomial), after the
    # closed-form set or, with before, ahead of it
    def planted(params):
        gset = groebner_generators(params)
        plants = make(params, gset)
        if isinstance(plants, Poly):
            plants = [("planted", plants)]
        plants = tuple(plants)
        return _PlantedSet(params, gset.phis, gset.psis, *((plants, ()) if before else ((), plants)))

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", planted)


def _deep_witness(curve):
    deep = verify_minimality(curve, deep=True).checks[1]
    assert deep.name == "no-redundant-generator"
    assert deep.detail == f"{len(curve.gset.labeled())} one-left-out closures"
    assert deep.passed == (deep.witness is None)
    return None if deep.witness is None else deep.witness["element"]


def test_graded_minimality_matches_the_one_left_out_closures():
    for pr in SWEEP + [make_params(*t) for t in ((17, 3, 8), (18, 1, 8), (15, 7, 8), (16, 5, 8))]:
        curve = Curve(pr)
        assert _deep_witness(curve) is None
        assert _one_left_out(curve.order, curve.gset.labeled()) is None, pr


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2), (13, 2, 6)])
def test_deep_minimality_catches_a_planted_multiple(monkeypatch, triple):
    pr = make_params(*triple)
    x0 = Poly.term(pr.nvars, variable_monomial(pr.p, 0))
    _plant(monkeypatch, lambda params, gset: x0 * gset.polynomials()[0])
    curve = Curve(pr)
    assert _first_redundant(curve.order, curve.gset.labeled()) == "planted"
    assert _one_left_out(curve.order, curve.gset.labeled()) == "planted"
    leads, deep = verify_minimality(curve, deep=True).checks
    assert not leads.passed and leads.witness["multiple"] == "planted"
    assert deep.name == "no-redundant-generator"
    assert not deep.passed and deep.witness == {"element": "planted"}


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2), (13, 2, 6), (17, 3, 8)])
@pytest.mark.parametrize("before", [False, True])
def test_deep_minimality_names_the_first_of_two_scaled_copies(monkeypatch, triple, before):
    # 3*g_0 and g_0 make each other redundant, at one weight: the witness is
    # whichever comes first in label order
    _plant(monkeypatch, lambda params, gset: gset.polynomials()[0].scaled(3), before)
    curve = Curve(make_params(*triple))
    expected = "planted" if before else curve.gset.labeled()[0][0]
    assert _one_left_out(curve.order, curve.gset.labeled()) == expected
    assert _deep_witness(curve) == expected


@pytest.mark.parametrize("triple, a, b", [((13, 2, 6), (1, 3), (2, 2)),
                                          ((17, 3, 8), (2, 5), (3, 4)),
                                          ((16, 5, 8), (1, 6), (3, 4))])
def test_deep_minimality_catches_a_same_weight_sum(monkeypatch, triple, a, b):
    # g_a + g_b has the weight of g_a and g_b and a non-zero normal form
    # modulo the lighter generators: only the rank test over the generators
    # of that weight finds the three of them dependent
    _plant(monkeypatch, lambda params, gset: gset.phis[a] + gset.phis[b])
    curve = Curve(make_params(*triple))
    labeled = curve.gset.labeled()
    order = curve.order
    assert order.weight(order.leading_monomial(labeled[-1][1])) == order.weight(
        order.leading_monomial(curve.gset.phis[a]))
    assert _one_left_out(order, labeled) == f"phi({a[0]},{a[1]})"
    assert _deep_witness(curve) == f"phi({a[0]},{a[1]})"


def test_deep_minimality_uses_the_pair_at_the_left_out_weight(monkeypatch, p713):
    # h = psi(1,0) + X3*phi(2,2) = X2^2*X3 - X0^4 makes psi(1,0) redundant, but
    # only through the S-pair of h and phi(2,2), whose lcm X2^2*X3 weighs 28,
    # exactly the weight of psi(1,0); the full closures name the same element
    h = Poly(4, {(0, 2, 1, 0): 1, (0, 0, 0, 4): -1})
    _plant(monkeypatch, lambda params, gset: h)
    curve = Curve(p713)
    assert _first_redundant(curve.order, curve.gset.labeled()) == "psi(1,0)"
    assert _one_left_out(curve.order, curve.gset.labeled()) == "psi(1,0)"
    deep = verify_minimality(curve, deep=True).checks[1]
    assert deep.witness == {"element": "psi(1,0)"}


def test_deep_minimality_closes_the_lighter_generators_up_to_their_weight(monkeypatch, p713):
    # h1 = X1^2*X2 + 3*X2^2*X0 (weight 25) and h2 = X1^2*X3 + 2*X2*X3*X0 (26)
    # lie outside the curve ideal; their S-polynomial is the monomial
    # X2^2*X3*X0 of weight 35, the weight of the lcm X1^2*X2*X3 of their
    # leads, and no lighter generator divides it.  So the planted monomial is
    # redundant, and only a closure that takes the pairs at its own weight
    # before testing it can tell
    h1 = Poly(4, {(2, 1, 0, 0): 1, (0, 2, 0, 1): 3})
    h2 = Poly(4, {(2, 0, 1, 0): 1, (0, 1, 1, 1): 2})
    m = Poly.term(4, (0, 2, 1, 1))
    assert s_polynomial(WeightOrder(p713), h1, h2) == m
    _plant(monkeypatch, lambda params, gset: [("h1", h1), ("h2", h2), ("planted", m)])
    curve = Curve(p713)
    assert _first_redundant(curve.order, curve.gset.labeled()) == "planted"
    assert _one_left_out(curve.order, curve.gset.labeled()) == "planted"
    assert _deep_witness(curve) == "planted"


def test_deep_minimality_at_p12_takes_one_closure():
    curve = Curve(make_params(41, 2, 12))
    start = time.process_time()
    report = verify_minimality(curve, deep=True)
    elapsed = time.process_time() - start
    assert report.passed
    assert report.checks[1].detail == "74 one-left-out closures"
    assert elapsed < 0.2  # one closure per generator took about 1 s


def test_rank_is_exact_over_the_rationals():
    x, y, z = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    f = Poly(4, {x: Fraction(1, 3), y: Fraction(-2, 7)})
    g = Poly(4, {y: 1, z: Fraction(5, 2)})
    # x, y and z divide one another only when equal, as forms of one weight do
    order = WeightOrder(make_params(7, 1, 3))
    assert _rank(order, []) == 0
    assert _rank(order, [Poly(4)]) == 0
    assert _rank(order, [f]) == 1
    assert _rank(order, [f, f.scaled(Fraction(-9, 4))]) == 1
    assert _rank(order, [f, g]) == 2
    assert _rank(order, [f, g, f.scaled(Fraction(3, 5)) + g.scaled(Fraction(-7, 11))]) == 2
    # off by 10^-30: a float elimination would call this dependent
    assert _rank(order, [f, g, f + g + Poly(4, {z: Fraction(1, 10**30)})]) == 3
    assert _rank(order, [f, g, Poly(4, {z: 1})]) == 3
    assert _rank(order, [Poly(4, {x: 1, y: 1}), Poly(4, {y: 1, z: 1}), Poly(4, {x: 1, z: -1})]) == 2
    # z leads the first two forms, so the second row is the remainder y - x
    assert _rank(order, [Poly(4, {x: 1, z: 1}), Poly(4, {z: 1, y: 1}), Poly(4, {y: 1, x: -1})]) == 2


def test_closed_form_check_closes_the_classical_set(monkeypatch, p713):
    # the same h in place of psi_1,0 keeps the classical ideal, but psi(1,0)
    # then reduces to zero only after the S-pair of h and phi_1 at weight 28
    h = Poly(4, {(0, 2, 1, 0): 1, (0, 0, 0, 4): -1})

    def planted(params):
        patil = patil_generators(params)
        return PatilSet(params, patil.xis, patil.phis, {**patil.psis, 0: h}, patil.theta)

    monkeypatch.setattr("monocurve.syzygy.patil_generators", planted)
    curve = Curve(p713)
    order = curve.order
    assert normal_form(psi_binomial(p713, 0), Reducer(order, curve.patil.polynomials()))[0]
    checks = {c.name: c for c in verify_ideal_equality(curve).checks}
    assert checks["closed-form-set-reduces"].passed
    assert checks["rewriting-identities"].witness == {"elements": ["psi_1,0"]}


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2), (13, 2, 6)])
def test_closed_form_check_reports_the_full_normal_form(monkeypatch, triple):
    # X1^2 - 2*X2*X0 is weight-homogeneous but outside the ideal
    pr = make_params(*triple)
    order = WeightOrder(pr)
    x2x0 = mono_mul(variable_monomial(pr.p, 2), variable_monomial(pr.p, 0))
    bad = Poly(pr.nvars, {variable_monomial(pr.p, 1, 2): 1, x2x0: -2})

    def replaced(params):
        gset = groebner_generators(params)
        return GeneratorSet(params, {**gset.phis, (1, 1): bad}, gset.psis)

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", replaced)
    full = buchberger(order, patil_generators(pr).polynomials())
    remainder, _ = normal_form(bad, Reducer(order, full))
    assert remainder
    check = {c.name: c for c in verify_ideal_equality(Curve(pr)).checks}["closed-form-set-reduces"]
    assert not check.passed
    assert check.witness == {"element": "phi(1,1)", "remainder": poly_to_json(order, remainder)}


def test_truncated_checks_reject_an_inhomogeneous_element(monkeypatch, capsys):
    pr = make_params(7, 1, 3)
    # X1^2 - X0 carries weights 16 and 7
    _plant(monkeypatch, lambda params, gset: Poly(4, {(2, 0, 0, 0): 1, (0, 0, 0, 1): -1}))
    witness = {"element": "planted", "weights": [7, 16]}
    curve = Curve(pr)
    deep = verify_minimality(curve, deep=True).checks[1]
    assert not deep.passed and deep.witness == witness
    check = {c.name: c for c in verify_ideal_equality(curve).checks}["closed-form-set-reduces"]
    assert not check.passed and check.witness == witness

    capsys.readouterr()
    assert main(["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", "2",
                 "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert '"weights": [' in out
    assert "Traceback" not in out + err


def test_verify_ideal_equality(p713, p832, p613):
    for pr in (p713, p832, p613, make_params(13, 3, 5)):
        report = verify_ideal_equality(Curve(pr))
        assert report.passed, [c.name for c in report.checks if not c.passed]


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


def is_standard_shape(params, mono):
    """Closed-form description of monomials outside the leading-term ideal.

    A monomial survives exactly when it carries at most one factor X_i
    with i in [1, p-1] (exponent one), its X_p exponent n satisfies
    n <= a, and n <= a - 1 whenever the X_i factor has i >= b.  The X_0
    exponent is unconstrained.
    """
    p, a, b = params.p, params.a, params.b
    core = [(pos + 1, e) for pos, e in enumerate(mono[: p - 1]) if e]
    if sum(e for _, e in core) >= 2:
        return False
    n = mono[p - 1]
    if n > a:
        return False
    if core:
        i, _ = core[0]
        if i >= b and n > a - 1:
            return False
    return True


def _box_shape_check(pr, std, bound):
    # the box walk the shape check used to run: the first box cell, in
    # itertools.product order, where membership in std and is_standard_shape
    # disagree, and the count of std members up to it
    outside_set = set(std)
    for mono in itertools.product(range(bound + 1), repeat=pr.nvars):
        outside = mono in outside_set
        if outside != is_standard_shape(pr, mono):
            witness = {"monomial": list(mono), "outside_lt_ideal": outside}
            return witness, bisect.bisect_right(std, mono)
    return None, len(std)


def test_standard_shape_matches_enumeration():
    for pr in SWEEP[:40]:
        curve = Curve(pr)
        for bound in (2, 3, 4):
            assert standard_monomials(curve, bound) == _box_minus_lead_ideal(pr, bound), (pr, bound)
            box = [
                mono
                for mono in itertools.product(range(bound + 1), repeat=pr.nvars)
                if is_standard_shape(pr, mono)
            ]
            assert standard_shape(pr, bound) == box, (pr, bound)
        enumerated = set(standard_monomials(curve, 4))
        for mono in itertools.product(range(5), repeat=pr.nvars):
            assert (mono in enumerated) == is_standard_shape(pr, mono)


@pytest.mark.parametrize(
    "m0, d, p, bound",
    [
        (7, 1, 3, 5),
        (13, 2, 6, 5),
        (17, 3, 8, 5),
        (22, 5, 7, 5),
        (9, 4, 2, 3),
        (41, 2, 12, 6),
        (101, 7, 12, 4),
        (1000129, 999666, 3, 5),
    ],
)
def test_standard_shape_matches_the_order_ideal_walk(m0, d, p, bound):
    pr = make_params(m0, d, p)
    assert standard_shape(pr, bound) == standard_monomials(Curve(pr), bound)


def test_mixed_monomials_are_standard(p713):
    # X1*X3*X0 carries all three variable kinds and stays outside the
    # leading-term ideal because the X3 exponent stays below a
    assert is_standard_shape(p713, (1, 0, 1, 1))
    assert (1, 0, 1, 1) in standard_monomials(Curve(p713), 2)
    assert (1, 0, 1, 1) in standard_shape(p713, 2)


def test_verify_standard_monomials(p713):
    curve = Curve(p713)
    report = verify_standard_monomials(curve, 6)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    with pytest.raises(ValueError):
        verify_standard_monomials(curve, 1)


def test_verify_standard_monomials_at_p12_bound_6():
    # 7^13 exponent-box cells: out of reach for a walk over the box
    curve = Curve(make_params(41, 2, 12))
    start = time.perf_counter()
    report = verify_standard_monomials(curve, 6)
    elapsed = time.perf_counter() - start
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert elapsed < 1.0


def _plant_extra(std, pr):
    # X1^2 is a lead, so never of the standard shape
    return sorted(std + [(2,) + (0,) * pr.p])


def _plant_missing(std, pr):
    return std[: len(std) // 2] + std[len(std) // 2 + 1:]


def _plant_missing_and_extra(std, pr):
    # two mismatches: the witness is the smaller, the dropped member
    return _plant_extra(_plant_missing(std, pr), pr)


def _plant_2200(std, pr):
    return sorted(std + [(2, 2, 0, 0)])


@pytest.mark.parametrize(
    "m0, d, p, plant",
    [
        (7, 1, 3, _plant_extra),
        (13, 2, 5, _plant_extra),
        (7, 1, 3, _plant_missing),
        (13, 2, 5, _plant_missing),
        (7, 1, 3, _plant_missing_and_extra),
        (13, 2, 5, _plant_missing_and_extra),
        (7, 1, 3, _plant_2200),
        (10, 3, 3, _plant_2200),
    ],
)
def test_planted_shape_mismatch_keeps_the_box_walk_witness(monkeypatch, m0, d, p, plant):
    pr = make_params(m0, d, p)
    curve = Curve(pr)
    bound = 3
    std = plant(standard_monomials(curve, bound), pr)
    witness, count = _box_shape_check(pr, std, bound)
    assert witness is not None

    monkeypatch.setattr("monocurve.generators.standard_monomials", lambda *_: std)
    shape, _ = verify_standard_monomials(curve, bound).checks
    assert not shape.passed
    assert shape.witness == witness
    assert shape.detail == f"{count} standard monomials with exponents <= {bound}"


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
        "monocurve.generators.standard_shape",
        lambda params, bound: sorted(standard_shape(params, bound) + planted),
    )

    checked, pair = 0, None
    for x in range(len(std)):
        for y in range(x + 1, len(std)):
            checked += 1
            if not curve_image(pr, Poly(pr.nvars, {std[x]: 1}) - Poly(pr.nvars, {std[y]: 1})):
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
                assert curve_image(p713, diff)


def test_verify_reports_serialize(p713):
    report = verify_groebner_generators(Curve(p713))
    records = report.to_records()
    assert all(rec["status"] == "pass" for rec in records)
    assert all(rec["params"]["m0"] == 7 for rec in records)
    assert not [c for c in report.checks if not c.passed]
