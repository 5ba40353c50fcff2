import bisect
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import generators, make_params
from monocurve.cli import main
from monocurve.generators import (
    GeneratorSet,
    _certified,
    _shape_by_mp,
    _minimal_by_count,
    _rank,
    _redundant_by_weight,
    _units,
    PatilSet,
    epsilon,
    expected_leading_monomials,
    groebner_generators,
    patil_generators,
    standard_monomials,
    standard_shape,
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
    hilbert_numerator,
    mono_divides,
    mono_mul,
    mono_to_name,
    normal_form,
    poly_to_json,
    variable_monomial,
)
from monocurve.semigroup import _apery_by_mp, _times_one_minus
from monocurve.syzygy import Curve
from oracles import (apery_set_by_search, buchberger, curve_image, parameter_sweep, patil_by_terms,
                     phi_by_subtraction, poly_term, psi_by_subtraction, s_polynomial,
                     standard_monomials_full_test, tau)

SWEEP = list(parameter_sweep(range(2, 6), range(1, 4), range(1, 6)))
SWEEP6 = list(parameter_sweep(range(2, 7), range(1, 4), range(1, 6)))
# p = 2..8, a = 1..3, every b and every d <= 5 coprime to m0
GRID8 = list(parameter_sweep(range(2, 9), range(1, 4), range(1, 6)))


def test_epsilon_tau():
    assert epsilon(1, 2, 3) == 3 and tau(1, 2, 3) == 3
    assert epsilon(1, 1, 3) == 2 and tau(1, 1, 3) == 0
    assert epsilon(0, 0, 3) == 0 and tau(0, 0, 3) == 0


def test_phi_binomials(p713):
    phis = groebner_generators(p713).phis
    assert phis[1, 2] == Poly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert phis[1, 1] == Poly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -1})
    assert phis[2, 2] == Poly(4, {(0, 2, 0, 0): 1, (1, 0, 1, 0): -1})


def test_psi_binomials(p713):
    psis = groebner_generators(p713).psis
    assert psis[0] == Poly(4, {(1, 0, 2, 0): 1, (0, 0, 0, 4): -1})
    assert psis[1] == Poly(4, {(0, 1, 2, 0): 1, (1, 0, 0, 3): -1})
    assert psis[2] == Poly(4, {(0, 0, 3, 0): 1, (0, 1, 0, 3): -1})


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


def test_units_are_the_variable_monomials(ladder):
    for pr in ladder + SWEEP:
        p, units = pr.p, _units(pr)
        assert units == [variable_monomial(p, k) for k in range(p + 1)] + [
            variable_monomial(p, p, pr.a), variable_monomial(p, 0, pr.a + pr.d)]
        assert all(type(u) is tuple for u in units)


def test_both_generating_sets_match_their_references(ladder):
    # every phi, psi and classical element equals its reference, built from
    # fresh variable_monomial products by Poly arithmetic, with int
    # coefficients
    for pr in ladder:
        p, gset = pr.p, groebner_generators(pr)
        assert gset.phis == {(i, j): phi_by_subtraction(pr, i, j)
                             for i in range(1, p) for j in range(i, p)}, pr
        assert gset.psis == {i: psi_by_subtraction(pr, i) for i in range(p - pr.b + 1)}, pr
        assert patil_generators(pr) == patil_by_terms(pr), pr
        assert all(type(c) is int for g in gset.polynomials() + patil_generators(pr).polynomials()
                   for c in g.terms.values())


def test_patil_set_explicit(p713):
    patil, psis = patil_generators(p713), groebner_generators(p713).psis
    assert patil.xis == {(1, 1): Poly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -1})}
    assert patil.phis[0] == Poly(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
    assert patil.phis[1] == Poly(4, {(0, 2, 0, 0): 1, (1, 0, 1, 0): -1})
    assert patil.psis[0] == psis[0]
    assert patil.psis[1] == psis[1]
    assert patil.theta == psis[2]
    assert len(patil) == 6


def test_patil_rewriting_identities():
    for pr in SWEEP:
        patil, gset = patil_generators(pr), groebner_generators(pr)
        for (i, j), xi in patil.xis.items():
            if i + j <= pr.p - 1:
                assert xi == gset.phis[i, j]
            else:
                assert xi + patil.phis[i + j - pr.p] == gset.phis[i, j]
        for i, g in patil.phis.items():
            assert g == gset.phis[i + 1, pr.p - 1]
        assert patil.theta == gset.psis[pr.p - pr.b]


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
        grown.append(g)
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
    x1 = poly_term(4, (1, 0, 0, 0))
    _plant(monkeypatch, lambda params, gset: x1 * gset.phis[1, 1])
    check = _lead_record(Curve(p713))
    assert not check.passed
    assert check.witness == {"divisor": "phi(1,1)", "multiple": "planted",
                             "monomials": [[2, 0, 0, 0], [3, 0, 0, 0]]}
    assert check.detail == "42 ordered pairs"


@dataclass(frozen=True)
class _PlantedSet(GeneratorSet):
    """The closed-form set with plants before or after it: those before sit
    among the phis under keys (0, k), which sort ahead of (1, 1), and those
    after among the psis under keys past p - b, which sort last.  labels
    maps the key of each plant to its label.  Psi(j) past p - b has no
    stamp for the module order to key, so a Curve with plants after the
    set runs the ring checks only."""

    labels: dict = field(default_factory=dict)

    def labeled(self):
        keys = sorted(self.phis) + sorted(self.psis)
        return [(self.labels.get(key, lab), g) for key, (lab, g) in zip(keys, super().labeled())]


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
    # closed-form set or, with before, ahead of it (_PlantedSet)
    def planted(params):
        gset = groebner_generators(params)
        plants = make(params, gset)
        if isinstance(plants, Poly):
            plants = [("planted", plants)]
        phis, psis = dict(gset.phis), dict(gset.psis)
        top = params.p - params.b
        keys = [(0, k) if before else top + 1 + k for k in range(len(plants))]
        for key, (_, g) in zip(keys, plants):
            (phis if before else psis)[key] = g
        return _PlantedSet(params, phis, psis, {key: lab for key, (lab, _) in zip(keys, plants)})

    monkeypatch.setattr("monocurve.syzygy.groebner_generators", planted)


@pytest.mark.parametrize("triple", [(7, 1, 3), (17, 3, 8)])
@pytest.mark.parametrize("before", [False, True])
def test_a_generator_planted_through_the_labels_reaches_every_ring_check(monkeypatch, triple,
                                                                        before):
    # X1^2 lies outside the curve ideal.  Planted beside the closed-form
    # set under its own label, ahead of it or after it, it must reach the
    # ring certificate, the S-pair scan, the lead ideal and the count
    pr = make_params(*triple)
    plain = Curve(pr)
    assert plain.ring_reducer.basis == [g for _, g in plain.gset.labeled()]
    x1x1 = poly_term(pr.nvars, variable_monomial(pr.p, 1, 2))
    _plant(monkeypatch, lambda params, gset: x1x1, before)
    curve = Curve(pr)
    assert curve.ring_reducer.basis == [g for _, g in curve.gset.labeled()]
    assert not curve.ring_certified
    checks = {c.name: c for report in (verify_groebner_generators(curve),
                                       verify_ideal_equality(curve)) for c in report.checks}
    # the S-polynomial of X1^2 and phi(1,1) = X1^2 - X2*X0 is +-X2*X0
    x2x0 = mono_mul(variable_monomial(pr.p, 2), variable_monomial(pr.p, 0))
    pair = ["planted", "phi(1,1)"] if before else ["phi(1,1)", "planted"]
    remainder = poly_term(pr.nvars, x2x0, 1 if before else -1)
    spoly = checks["s-polynomials-reduce"]
    assert not spoly.passed
    assert spoly.witness == {"pair": pair, "remainder": poly_to_json(curve.order, remainder)}
    lead_ideal = checks["buchberger-lt-ideal"]
    assert not lead_ideal.passed and not lead_ideal.witness["lost"]
    assert list(x2x0) in lead_ideal.witness["new"]
    n = len(curve.patil)
    count = checks["cardinalities-match"]
    assert not count.passed and count.detail == f"{n + 1} closed-form vs {n} classical generators"


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
    x0 = poly_term(pr.nvars, variable_monomial(pr.p, 0))
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
    m = poly_term(4, (0, 2, 1, 1))
    assert s_polynomial(WeightOrder(p713), h1, h2) == m
    _plant(monkeypatch, lambda params, gset: [("h1", h1), ("h2", h2), ("planted", m)])
    curve = Curve(p713)
    assert _first_redundant(curve.order, curve.gset.labeled()) == "planted"
    assert _one_left_out(curve.order, curve.gset.labeled()) == "planted"
    assert _deep_witness(curve) == "planted"


def test_the_count_certificate_agrees_with_the_closure_rank_tests_on_the_grid():
    # a passing deep verify builds no closure: the count certificate
    # decides it, with the verdict of the rank tests on the closure
    assert len(SWEEP6) == 206
    for pr in SWEEP6:
        curve = Curve(pr)
        assert verify_minimality(curve, deep=True).passed, pr
        assert curve._closure is None, pr
        assert curve.ring_certified and _minimal_by_count(curve.ring_reducer), pr
        assert _redundant_by_weight(curve.order, curve.closure()[1]) is None, pr


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8)])
@pytest.mark.parametrize("before", [False, True])
@pytest.mark.parametrize("plant", ["copy", "X1*phi(1,1)", "X0*top psi"])
def test_a_planted_redundant_generator_fails_the_count(monkeypatch, triple, before, plant):
    # a copy or a multiple of a member lies in the curve ideal and leaves
    # the lead ideal as it is, so the ring certificate holds; one weight
    # then carries one generator too many, and the closure's rank tests
    # name the same witness as before the count certificate: the first
    # of two copies in label order, or the multiple
    def make(params, gset):
        if plant == "copy":
            return gset.phis[(1, 1)]
        if plant == "X1*phi(1,1)":
            return poly_term(params.nvars, variable_monomial(params.p, 1)) * gset.phis[(1, 1)]
        return poly_term(params.nvars, variable_monomial(params.p, 0)) * gset.psis[max(gset.psis)]

    _plant(monkeypatch, make, before)
    curve = Curve(make_params(*triple))
    assert curve.ring_certified
    assert not _minimal_by_count(curve.ring_reducer)
    expected = "phi(1,1)" if plant == "copy" and not before else "planted"
    assert _deep_witness(curve) == expected
    assert curve._closure is not None


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


def _closures_of(monkeypatch) -> list:
    # the generator lists of the Closures built from now on, in order
    built, closure_init = [], Closure.__init__

    def count_closure(self, order, gens=()):
        built.append(list(gens))
        closure_init(self, order, gens)

    monkeypatch.setattr(Closure, "__init__", count_closure)
    return built


def _count_bigatti(monkeypatch):
    # every lead set that _certified hands to Bigatti's recursion
    calls = []

    def counted(weights, monos):
        calls.append(monos)
        return hilbert_numerator(weights, monos)

    monkeypatch.setattr(generators, "hilbert_numerator", counted)
    return calls


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
    assert normal_form(curve.gset.psis[0], Reducer(order, curve.patil.polynomials()))[0]
    # so division by the classical set leaves a remainder, and its closure
    # decides the record; h leads with X2^2*X3 where psi_1,0 led with X1*X3,
    # so K(LT), by Bigatti's recursion on leads off the prediction, fails too
    calls = _count_bigatti(monkeypatch)
    assert not _certified(Reducer(order, curve.patil.polynomials()), curve.predicted_leads)
    assert len(calls) == 1
    built = _closures_of(monkeypatch)
    checks = {c.name: c for c in verify_ideal_equality(curve).checks}
    assert built == [curve.patil.polynomials()]
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
    curve = Curve(pr)
    # bad lies outside the ideal, so it leaves a remainder by the classical
    # set, a Groebner basis of the curve ideal whose leads are the predicted
    # ones, so certified in closed form, and the closure runs
    calls = _count_bigatti(monkeypatch)
    assert _certified(Reducer(order, curve.patil.polynomials()), curve.predicted_leads)
    assert calls == []
    assert normal_form(bad, Reducer(order, curve.patil.polynomials()))[0]
    built = _closures_of(monkeypatch)
    check = {c.name: c for c in verify_ideal_equality(curve).checks}["closed-form-set-reduces"]
    assert built == [curve.patil.polynomials()]
    assert not check.passed
    assert check.witness == {"element": "phi(1,1)", "remainder": poly_to_json(order, remainder)}


def test_truncated_checks_reject_an_inhomogeneous_element(monkeypatch, capsys):
    pr = make_params(7, 1, 3)
    # X1^2 - X0 carries weights 16 and 7; planted ahead of the set, under
    # Phi(0, 0), a symbol the module order can key, as the verify below does
    _plant(monkeypatch, lambda params, gset: Poly(4, {(2, 0, 0, 0): 1, (0, 0, 0, 1): -1}),
           before=True)
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


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8)])
@pytest.mark.parametrize("scale, tail", [(2, None), (1, "X0")])
def test_a_classical_binomial_outside_the_ideal_keeps_the_division_witness(monkeypatch, triple,
                                                                           scale, tail):
    # theta with its tail doubled, or with X0 for its tail, lies outside the
    # curve ideal: the certified G decides that, and the witness is the
    # remainder that dividing theta by G leaves
    pr = make_params(*triple)
    lead, old = patil_generators(pr).theta.terms
    bad = Poly(pr.nvars, {lead: 1, variable_monomial(pr.p, 0) if tail else old: -scale})

    def planted(params):
        patil = patil_generators(params)
        return PatilSet(params, patil.xis, patil.phis, patil.psis, bad)

    monkeypatch.setattr("monocurve.syzygy.patil_generators", planted)
    curve = Curve(pr)
    assert curve.ring_certified
    remainder, _ = normal_form(bad, Reducer(curve.order, curve.gset.polynomials()))
    assert remainder
    check = {c.name: c for c in verify_ideal_equality(curve).checks}["classical-set-reduces"]
    assert not check.passed
    assert check.witness == {"element": "theta", "remainder": poly_to_json(curve.order, remainder)}


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8)])
def test_ideal_equality_weighs_each_classical_monomial_once(monkeypatch, triple):
    # one pass per classical element gives both its coefficient sum at
    # each weight and its distinct weights; a certified G has one weight
    # per element already, and is not weighed again
    curve = Curve(make_params(*triple))
    assert curve.ring_certified
    weighed, weight = [], type(curve.params).weight
    monkeypatch.setattr(type(curve.params), "weight",
                        lambda self, mono: weighed.append(mono) or weight(self, mono))
    assert verify_ideal_equality(curve).passed
    assert Counter(weighed) == Counter(m for g in curve.patil.polynomials() for m in g.terms)


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8)])
def test_a_classical_element_of_two_weights_is_the_closed_form_witness(monkeypatch, triple):
    # theta with X0 for its tail carries two weights: the classical check
    # names its remainder by G, and the closed-form check its weights
    pr = make_params(*triple)
    lead, _ = patil_generators(pr).theta.terms
    x0 = variable_monomial(pr.p, 0)
    bad = Poly(pr.nvars, {lead: 1, x0: -1})

    def planted(params):
        patil = patil_generators(params)
        return PatilSet(params, patil.xis, patil.phis, patil.psis, bad)

    monkeypatch.setattr("monocurve.syzygy.patil_generators", planted)
    checks = {c.name: c for c in verify_ideal_equality(Curve(pr)).checks}
    assert checks["classical-set-reduces"].witness["element"] == "theta"
    assert checks["closed-form-set-reduces"].witness == {
        "element": "theta", "weights": sorted([pr.weight(lead), pr.weight(x0)])}


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


def _refuse_to_list(params, bound):
    raise AssertionError(f"standard_shape listed at bound {bound}")


def test_a_passing_verify_counts_the_shape_without_listing_it(monkeypatch, capsys):
    # the details of a passing shape are counted in closed form: nothing of
    # the bound's size is built, and a bound of 10^12 is counted exactly.
    # (7,1,3): a = 2 and b = 1, so u = 1 takes n <= 2 and X1, X2 take n <= 1
    monkeypatch.setattr(generators, "standard_shape", _refuse_to_list)
    bound = 10**12
    argv = ["verify", "--m0", "7", "--d", "1", "--p", "3", "--bound", str(bound)]
    assert main(argv + ["--format", "json"]) == 0
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    n = 7 * (bound + 1)
    assert checks["standard-monomial-shape"]["detail"] == (
        f"{n} standard monomials with exponents <= {bound}")
    assert checks["standard-monomials-eta-distinct"]["detail"] == f"{n * (n - 1) // 2} pairs"


@pytest.mark.parametrize("bound", [2, 3, 5])
def test_the_counted_shape_has_the_listed_shapes_size(monkeypatch, bound):
    # the closed-form count, on every triple of the small grid, against the
    # length of the listed shape
    listed = {pr: len(standard_shape(pr, bound)) for pr in SWEEP}
    monkeypatch.setattr(generators, "standard_shape", _refuse_to_list)
    for pr, n in listed.items():
        (shape, pairs) = verify_standard_monomials(Curve(pr), bound).checks
        assert (shape.passed, shape.detail) == (
            True, f"{n} standard monomials with exponents <= {bound}"), pr
        assert (pairs.passed, pairs.detail) == (True, f"{n * (n - 1) // 2} pairs"), pr


def test_standard_monomials_match_the_full_test_walk_on_the_grid():
    for pr in SWEEP6:
        curve = Curve(pr)
        lms = curve.ring_reducer.lead_monomials()
        for bound in (2, 3, 5):
            assert standard_monomials(curve, bound) == standard_monomials_full_test(
                lms, pr.nvars, bound), (pr, bound)


@given(leads=st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=8), bound=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_standard_monomials_match_the_full_test_walk_on_any_leads(p713, leads, bound):
    # equal leads, leads of one degree, and the lead 1, which leaves none
    polys = [poly_term(4, m) for m in leads]
    curve = SimpleNamespace(params=p713, ring_reducer=Reducer(WeightOrder(p713), polys))
    assert standard_monomials(curve, bound) == standard_monomials_full_test(leads, 4, bound)


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


def _lead_past_the_box(pr, bound):
    # a curve whose ring leads are those of G and X0^(bound+1): the box walk
    # sees no change, but the minimal leads are no longer those of the shape
    polys = groebner_generators(pr).polynomials()
    polys.append(poly_term(pr.nvars, variable_monomial(pr.p, 0, bound + 1)))
    return SimpleNamespace(params=pr, ring_reducer=Reducer(WeightOrder(pr), polys),
                           predicted_leads=expected_leading_monomials(pr))


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
    bound = 3
    std = plant(standard_monomials(Curve(pr), bound), pr)
    witness, count = _box_shape_check(pr, std, bound)
    assert witness is not None

    # the walk runs only when the minimal leads differ from the shape's
    monkeypatch.setattr("monocurve.generators.standard_monomials", lambda *_: std)
    shape, _ = verify_standard_monomials(_lead_past_the_box(pr, bound), bound).checks
    assert not shape.passed
    assert shape.witness == witness
    assert shape.detail == f"{count} standard monomials with exponents <= {bound}"


@pytest.mark.parametrize("m0, d, p", [(7, 1, 3), (8, 3, 2), (13, 2, 5)])
def test_eta_distinct_reports_the_first_planted_collision(monkeypatch, m0, d, p):
    # plant every product X_i*X_j of inner variables: several of them weigh the
    # same as a standard monomial, so the check must fail on the first
    # colliding pair of the pairwise loop it replaced
    pr = make_params(m0, d, p)
    real = standard_monomials(Curve(pr), 3)
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

    # the pairs are tried only when the minimal leads differ from the
    # shape's; the walk then meets no mismatch in the box, and the shape
    # fails on the planted lead past it
    shape, eta = verify_standard_monomials(_lead_past_the_box(pr, 3), 3).checks
    assert not shape.passed
    assert shape.witness == {"monomial": [0] * p + [4], "outside_lt_ideal": False}
    assert not eta.passed
    assert eta.witness == {"pair": pair}
    assert eta.detail == f"{checked} pairs"


def _below(mono):
    # the monomials one exponent below mono
    return {mono[:k] + (e - 1,) + mono[k + 1:] for k, e in enumerate(mono) if e}


@pytest.mark.parametrize("p", range(2, 7))
def test_the_expected_leads_cut_out_the_shape_and_its_weights_differ(p):
    # for a = 1..3, every b and one d coprime to m0, in the box of side
    # a + 2, which holds every expected lead: the shape is an order ideal,
    # the minimal monomials outside it are the expected leads, and the
    # images t^weight of its members differ
    for a in range(1, 4):
        for b in range(1, p + 1):
            m0 = a * p + b
            pr = make_params(m0, next(d for d in itertools.count(2) if gcd(m0, d) == 1), p)
            shape = set(standard_shape(pr, a + 1))
            assert all(_below(m) <= shape for m in shape), pr
            outside = {m for m in itertools.product(range(a + 2), repeat=pr.nvars)
                       if m not in shape and _below(m) <= shape}
            assert outside == expected_leading_monomials(pr), pr
            image = curve_image(pr, Poly(pr.nvars, dict.fromkeys(shape, 1)))
            assert len(image) == len(shape) and set(image.values()) == {1}, pr


def _lead_dropped(pr, bound):
    # G without psi(b, p-b): X_p^(a+1) turns standard
    polys = groebner_generators(pr).polynomials()[:-1]
    return SimpleNamespace(params=pr, ring_reducer=Reducer(WeightOrder(pr), polys),
                           predicted_leads=expected_leading_monomials(pr))


@pytest.mark.parametrize("triple, plant, witness", [
    ((7, 1, 3), _lead_past_the_box, {"monomial": [0, 0, 0, 3], "outside_lt_ideal": False}),
    ((13, 2, 5), _lead_past_the_box, {"monomial": [0, 0, 0, 0, 0, 3], "outside_lt_ideal": False}),
    ((13, 2, 5), _lead_dropped, {"monomial": [0, 0, 0, 0, 3, 0], "outside_lt_ideal": True}),
    ((17, 3, 8), _lead_dropped, {"monomial": [0] * 7 + [3, 0], "outside_lt_ideal": True}),
])
def test_a_mismatch_past_the_bound_fails_the_shape_the_box_walk_passes(triple, plant, witness):
    # a lead X0^3 on top of G, or X_p^(a+1) with a >= 2 left out: every
    # monomial that changes side lies outside the box of bound 2
    pr, bound = make_params(*triple), 2
    curve = plant(pr, bound)
    std = standard_monomials(curve, bound)
    assert std == standard_shape(pr, bound)

    shape, eta = verify_standard_monomials(curve, bound).checks
    assert not shape.passed
    assert shape.witness == witness
    assert shape.detail == f"{len(std)} standard monomials with exponents <= {bound}"
    # the walk's list is then searched pair by pair, and holds no collision
    assert eta.passed
    assert eta.detail == f"{len(std) * (len(std) - 1) // 2} pairs"


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


def test_the_ring_closed_form_is_k_of_the_predicted_leads_and_sums_the_apery_set():
    # the closed form S(t)(1 - t^{m_p}) of the ring identity, times the
    # other p - 1 factors (1 - t^{m_i}), is K(expected_leading_monomials)
    # by Bigatti's recursion; S(t), summed here over the shape of
    # standard_shape free of X0, is A(t), summed over the Apery set that
    # the membership search finds; and the closed form is Selmer's side
    assert len(GRID8) == 361
    for pr in GRID8:
        gens, form = pr.generators, _shape_by_mp(pr)
        lead_ideal = hilbert_numerator(pr.exponent_weights, expected_leading_monomials(pr))
        assert _times_one_minus(form, gens[1:-1]) == lead_ideal, pr
        shape = Counter(pr.weight(m) for m in standard_shape(pr, pr.a) if not m[-1])
        assert shape == Counter(apery_set_by_search(pr)), pr
        assert form == _times_one_minus(dict(shape), gens[-1:]) == _apery_by_mp(pr), pr
