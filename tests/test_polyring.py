import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import make_params
from monocurve.generators import groebner_generators, phi_binomial, psi_binomial
from monocurve.polyring import (
    Poly,
    Reducer,
    WeightOrder,
    ZeroPolynomialError,
    buchberger,
    format_poly,
    hilbert_numerator,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    poly_to_json,
    s_polynomial,
    variable_monomial,
)
from monocurve.syzygy import Curve
from oracles import curve_image, hilbert_function, poly_from_json, series_coefficients

P713 = make_params(7, 1, 3)
ORDER = WeightOrder(P713)

monos4 = st.tuples(*[st.integers(0, 5)] * 4)


def test_mono_helpers():
    assert mono_mul((1, 0, 2, 0), (0, 1, 1, 3)) == (1, 1, 3, 3)
    assert mono_divides((1, 0, 0, 0), (1, 2, 0, 0))
    assert not mono_divides((2, 0, 0, 0), (1, 2, 0, 0))
    assert mono_div((1, 2, 0, 0), (1, 0, 0, 0)) == (0, 2, 0, 0)
    assert mono_lcm((2, 1, 0, 0), (1, 3, 0, 0)) == (2, 3, 0, 0)


def test_variable_monomial_positions():
    # X0 is stored last
    assert variable_monomial(3, 1) == (1, 0, 0, 0)
    assert variable_monomial(3, 3) == (0, 0, 1, 0)
    assert variable_monomial(3, 0) == (0, 0, 0, 1)
    assert variable_monomial(3, 0, 4) == (0, 0, 0, 4)
    with pytest.raises(IndexError):
        variable_monomial(3, 4)


def test_poly_cancellation():
    x1 = Poly.term(4, variable_monomial(3, 1))
    x2 = Poly.term(4, variable_monomial(3, 2))
    x0 = Poly.term(4, variable_monomial(3, 0))
    assert (x1 - x0) + (x0 - x2) == x1 - x2
    assert not (x1 - x0) * 0
    assert (x1 - x0).scaled(0) == Poly.zero(4)


def test_poly_product_exact():
    f = Poly(4, {(1, 0, 0, 0): Fraction(1, 3), (0, 0, 0, 1): -1})
    g = Poly(4, {(0, 1, 0, 0): 6})
    assert f * g == Poly(4, {(1, 1, 0, 0): 2, (0, 1, 0, 1): -6})


def test_poly_dimension_mismatch():
    with pytest.raises(ValueError):
        Poly.term(4, (1, 0, 0, 0)) + Poly.term(3, (1, 0, 0))


def test_compare_weight_tie_examples():
    # equal weight 17, right-most non-zero difference entry negative
    assert ORDER.key((1, 1, 0, 0)) > ORDER.key((0, 0, 1, 1))
    assert ORDER.key((0, 0, 1, 1)) < ORDER.key((1, 1, 0, 0))
    assert ORDER.key((2, 0, 0, 1)) == ORDER.key((2, 0, 0, 1))
    # equal weight 29: X2*X3^2 beats X1*X0^3
    assert ORDER.key((0, 1, 2, 0)) > ORDER.key((1, 0, 0, 3))


def test_order_every_variable_exceeds_one():
    one = (0, 0, 0, 0)
    for v in range(0, 4):
        assert ORDER.key(variable_monomial(3, v)) > ORDER.key(one)


@given(monos4, monos4)
def test_order_antisymmetric_total(f, g):
    kf, kg = ORDER.key(f), ORDER.key(g)
    assert (kf < kg) + (kf == kg) + (kf > kg) == 1
    assert (kf == kg) == (f == g)


ORDERS = [WeightOrder(make_params(*t)) for t in [(7, 1, 3), (8, 3, 2), (13, 2, 6), (17, 3, 8), (41, 2, 12)]]


@given(st.data())
def test_order_multiplicative(data):
    # a monomial order on every triple: LT(m*f) = m*LT(f)
    order = data.draw(st.sampled_from(ORDERS))
    monos = st.tuples(*[st.integers(0, 5)] * order.params.nvars)
    f, g, h = data.draw(monos), data.draw(monos), data.draw(monos)
    kf, kg = order.key(f), order.key(g)
    kfh, kgh = order.key(mono_mul(f, h)), order.key(mono_mul(g, h))
    assert (kfh > kgh, kfh == kgh) == (kf > kg, kf == kg)


def test_leading_terms(p713):
    assert ORDER.leading_term(phi_binomial(p713, 1, 2)) == ((1, 1, 0, 0), 1)
    assert ORDER.leading_term(psi_binomial(p713, 0)) == ((1, 0, 2, 0), 1)
    five_x0 = Poly.term(4, (0, 0, 0, 1), 5)
    assert ORDER.leading_term(five_x0) == ((0, 0, 0, 1), 5)
    with pytest.raises(ZeroPolynomialError):
        ORDER.leading_term(Poly.zero(4))


def test_normal_form_self_reduction(p713):
    f = phi_binomial(p713, 1, 2)
    r, quots = normal_form(f, Reducer(ORDER, [f]))
    assert not r
    assert quots[0] == Poly.term(4, (0, 0, 0, 0))
    # a basis element the division never uses has no entry
    r, quots = normal_form(f, Reducer(ORDER, [f, psi_binomial(p713, 0)]))
    assert not r and quots == {0: Poly.term(4, (0, 0, 0, 0))}


def test_normal_form_of_zero(p713):
    r, quots = normal_form(Poly.zero(4), Reducer(ORDER, [phi_binomial(p713, 1, 1)]))
    assert not r and quots == {}


def test_normal_form_postconditions(p713):
    basis = groebner_generators(p713).polynomials()
    lms = [ORDER.leading_monomial(g) for g in basis]
    f = Poly.term(4, (1, 1, 1, 0))  # X1*X2*X3
    divisors = Reducer(ORDER, basis)
    r, quots = normal_form(f, divisors)
    assert all(quots.values())
    # phi(1,1) leads with X1^2, which divides no monomial of weight 27
    assert 0 not in quots
    recombined = r
    for k, q in quots.items():
        recombined = recombined + q * basis[k]
    assert recombined == f
    for mono in r.terms:
        assert not any(mono_divides(lm, mono) for lm in lms)
    # idempotence
    r2, _ = normal_form(r, divisors)
    assert r2 == r


def test_reducer_forgets_its_misses_on_append(p713):
    # X2^2*X0 is irreducible by phi(1,1) alone; once phi(2,2) joins, the
    # same Reducer must try it again rather than recall the miss
    f = Poly.term(4, (0, 2, 0, 1))
    table = Reducer(ORDER, [phi_binomial(p713, 1, 1)])
    r, quots = table.divide(f)
    assert r == f and not quots
    table.append(phi_binomial(p713, 2, 2))
    r, quots = table.divide(f)
    assert r == Poly.term(4, (1, 0, 1, 1)) and list(quots) == [1]
    assert (r, quots) == Reducer(ORDER, table.basis).divide(f)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_growing_reducer_divides_like_a_fresh_one(data):
    # appends interleaved with divisions: every division must match that of a
    # Reducer built from scratch on the basis so far
    closed = groebner_generators(P713).polynomials()
    extra = [Poly(4, {(1, 1, 0, 0): 1, (0, 0, 0, 2): 3}), Poly.term(4, (0, 1, 1, 0), 2)]
    basis = data.draw(st.permutations(closed + extra))
    table = Reducer(ORDER)
    for g in basis:
        table.append(g)
        for _ in range(data.draw(st.integers(0, 2))):
            f = data.draw(homogeneous_polys(P713, closed))
            assert table.divide(f) == Reducer(ORDER, table.basis).divide(f)


@given(weights=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_hilbert_numerator_counts_the_monomials_outside_the_ideal(weights, data):
    expo = st.tuples(*[st.integers(0, 3)] * len(weights))
    monos = data.draw(st.lists(expo, max_size=6))
    top = 16
    assert (series_coefficients(hilbert_numerator(weights, monos), weights, top)
            == hilbert_function(weights, monos, top))


def test_hilbert_numerator_edge_cases():
    assert hilbert_numerator((2, 3), []) == {0: 1}
    assert hilbert_numerator((2, 3), [(0, 0), (1, 1)]) == {}
    # (x^2, xy) with x, y of weights 2, 3: 1 - t^4 - t^5 + t^7
    assert hilbert_numerator((2, 3), [(2, 0), (1, 1), (3, 1)]) == {0: 1, 4: -1, 5: -1, 7: 1}


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2), (6, 1, 3), (9, 4, 2)])
def test_hilbert_numerator_on_the_curves_lead_ideals(triple):
    curve = Curve(make_params(*triple))
    weights = curve.params.exponent_weights
    top = 3 * max(weights)
    ideals = [[lm for lm, *_ in row] for row in curve.module_reducer.rows.values()]
    for monos in [[lm for lm, *_ in curve.ring_reducer.rows[None]]] + ideals:
        assert (series_coefficients(hilbert_numerator(weights, monos), weights, top)
                == hilbert_function(weights, monos, top))


def _with_fractions(f):
    # the same element with every coefficient a Fraction: the oracle arithmetic
    return Poly._raw(f.nvars, {m: Fraction(c) for m, c in f.terms.items()})


@st.composite
def homogeneous_polys(draw, params, basis):
    # a random walk through binomial exchanges keeps the weight of its start
    nv = params.nvars
    mono = draw(st.tuples(*[st.integers(0, 3)] * nv))
    monos = [mono]
    for g in draw(st.lists(st.sampled_from(basis), max_size=8)):
        a, b = g.terms
        for x, y in ((a, b), (b, a)):
            if mono_divides(x, mono):
                mono = mono_mul(mono_div(mono, x), y)
                monos.append(mono)
                break
    coeffs = st.sampled_from([1, -1, 2, -3, 5, Fraction(3, 2)])
    return Poly(nv, {m: draw(coeffs) for m in monos})


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8)])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_integer_division_matches_fraction_division(triple, data):
    pr = make_params(*triple)
    order = WeightOrder(pr)
    closed = groebner_generators(pr).polynomials()
    x1x1 = variable_monomial(pr.p, 1, 2)
    x2x0 = mono_mul(variable_monomial(pr.p, 2), variable_monomial(pr.p, 0))
    # lead coefficient 2: this basis divides in the Fraction fallback
    half = [Poly(pr.nvars, {x1x1: 2, x2x0: -1})] + closed
    f = data.draw(homogeneous_polys(pr, closed))
    assert len({order.weight(m) for m in f.terms}) == 1
    for basis in (closed, half):
        r, quots = normal_form(f, Reducer(order, basis))
        oracle = normal_form(_with_fractions(f), Reducer(order, [_with_fractions(g) for g in basis]))
        assert (r, quots) == oracle
        assert all(quots.values())
        assert sum((q * basis[k] for k, q in quots.items()), r) == f
        # unit leads and integer input keep every coefficient an int
        if basis is closed and all(type(c) is int for c in f.terms.values()):
            coeffs = [c for g in (r, *quots.values()) for c in g.terms.values()]
            assert all(type(c) is int for c in coeffs)


def test_coefficients_are_ints_while_integral():
    f = Poly(4, {(1, 0, 0, 0): Fraction(4, 2), (0, 1, 0, 0): Fraction(1, 2)})
    assert [type(c) for c in f.terms.values()] == [int, Fraction]
    assert type(f.scaled(Fraction(2)).terms[(0, 1, 0, 0)]) is int
    assert type(f.times_term(Fraction(6, 3), (0, 0, 0, 1)).terms[(1, 0, 0, 1)]) is int
    half = Poly(4, {(2, 0, 0, 0): 2, (0, 1, 0, 1): -1})
    assert half.scaled(Fraction(1, 2)).terms == {(2, 0, 0, 0): 1, (0, 1, 0, 1): Fraction(-1, 2)}
    assert type(half.scaled(Fraction(1, 2)).terms[(2, 0, 0, 0)]) is int


def test_s_polynomial_of_equal_inputs(p713):
    f = psi_binomial(p713, 1)
    assert not s_polynomial(ORDER, f, f)


def test_buchberger_principal_ideal():
    x1 = Poly.term(4, (1, 0, 0, 0))
    assert buchberger(ORDER, [x1]) == [x1]


def test_buchberger_drops_zeros_multiples_and_copies(p713):
    # input the closed-form sets never produce: a zero, a non-monic copy, a
    # multiple and a negated copy of one generator
    g = phi_binomial(p713, 1, 1)
    x1 = Poly.term(4, variable_monomial(3, 1))
    assert buchberger(ORDER, [Poly.zero(4), 2 * g, x1 * g, -g]) == [g]


def test_buchberger_adds_no_leading_terms(p713):
    basis = groebner_generators(p713).polynomials()
    lms = {ORDER.leading_monomial(g) for g in basis}
    reduced = buchberger(ORDER, basis)
    assert {ORDER.leading_monomial(g) for g in reduced} == lms


def test_buchberger_input_order_independent(p713):
    basis = groebner_generators(p713).polynomials()
    reference = buchberger(ORDER, basis)
    rng = random.Random(7)
    for _ in range(4):
        shuffled = basis[:]
        rng.shuffle(shuffled)
        assert buchberger(ORDER, shuffled) == reference


def test_curve_image_examples(p713):
    assert curve_image(p713, Poly.term(4, (1, 0, 0, 0))) == {8: 1}
    assert not curve_image(p713, phi_binomial(p713, 1, 2))
    # 3*10 == 9 + 3*7 backs the top power binomial
    assert not curve_image(p713, psi_binomial(p713, 2))


def test_curve_image_all_generators(p713):
    for g in groebner_generators(p713).polynomials():
        assert not curve_image(p713, g)


@given(monos4, monos4)
@settings(max_examples=150)
def test_binomial_membership_iff_equal_weight(f, g):
    diff = Poly(4, {f: 1}) - Poly(4, {g: 1})
    assert (not curve_image(P713, diff)) == (ORDER.weight(f) == ORDER.weight(g))


def test_poly_json_roundtrip(p713):
    f = psi_binomial(p713, 1) + Poly.term(4, (0, 0, 0, 2), Fraction(3, 2))
    data = poly_to_json(ORDER, f)
    assert data[0]["coeff"] == "1/1"
    assert poly_from_json(4, data) == f


def test_format_poly(p713):
    assert format_poly(ORDER, phi_binomial(p713, 1, 2)) == "X1*X2 - X3*X0"
    assert format_poly(ORDER, Poly.zero(4)) == "0"
    # coefficients other than plus or minus one, on a monomial and alone
    f = Poly(4, {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 1): -2, (0, 0, 0, 0): 5})
    assert format_poly(ORDER, f) == "3/2*X1^2 - 2*X2*X0 + 5"
