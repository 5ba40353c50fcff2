import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import make_params, polyring
from monocurve.generators import groebner_generators
from monocurve.polyring import (
    Closure,
    Poly,
    Reducer,
    WeightOrder,
    ZeroPolynomialError,
    _first_dividing_pair,
    _packed_keys,
    format_poly,
    hilbert_numerator,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    poly_to_json,
    variable_monomial,
)
from monocurve.syzygy import Curve, ModElement, ModuleOrder, Phi, Psi
from oracles import (buchberger, curve_image, first_dividing_pair_all_pairs, hilbert_function,
                     module_term, numerator_all_pairs, parameter_sweep, poly_from_json, poly_term,
                     s_polynomial, series_coefficients)

P713 = make_params(7, 1, 3)
ORDER = WeightOrder(P713)
G713 = groebner_generators(P713)

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
    x1 = poly_term(4, variable_monomial(3, 1))
    x2 = poly_term(4, variable_monomial(3, 2))
    x0 = poly_term(4, variable_monomial(3, 0))
    assert (x1 - x0) + (x0 - x2) == x1 - x2
    assert not (x1 - x0) * 0
    assert (x1 - x0).scaled(0) == Poly.zero(4)


def test_the_constructors_drop_a_zero_coefficient():
    # no stored coefficient is zero, so a sum is zero only on a key that
    # both summands hold, and SparseMap.__add__ deletes it without a test
    x1, x0 = variable_monomial(3, 1), variable_monomial(3, 0)
    for zero in (0, Fraction(0), Fraction(0, 3)):
        f = Poly(4, {x1: 2, x0: zero})
        assert f.terms == {x1: 2} and f == Poly(4, {x1: 2})
        g = ModElement(4, {(x1, Psi(0)): 2, (x0, Phi(1, 2)): zero})
        assert g.terms == {(x1, Psi(0)): 2} and g == ModElement(4, {(x1, Psi(0)): 2})
        assert f - f == Poly.zero(4) and g - g == ModElement.zero(4)
    assert Poly(4, {x0: 0}) == Poly.zero(4) and not Poly(4, {x0: 0})


def test_poly_product_exact():
    f = Poly(4, {(1, 0, 0, 0): Fraction(1, 3), (0, 0, 0, 1): -1})
    g = Poly(4, {(0, 1, 0, 0): 6})
    assert f * g == Poly(4, {(1, 1, 0, 0): 2, (0, 1, 0, 1): -6})


def test_poly_repr_lists_its_terms_by_exponent_tuple():
    assert repr(Poly.zero(4)) == repr(Poly(4, {})) == "Poly(0)"
    # built out of order: the repr sorts the exponent tuples, ascending
    f = Poly(4, {(1, 0, 0, 1): Fraction(-1, 2), (0, 2, 0, 0): 3, (0, 0, 0, 0): 1})
    assert repr(f) == "Poly(1*1 + 3*X2^2 + -1/2*X1*X0)"
    assert repr(Poly(4, {(0, 0, 1, 0): Fraction(4, 2)})) == "Poly(2*X3)"


def test_poly_dimension_mismatch():
    with pytest.raises(ValueError):
        poly_term(4, (1, 0, 0, 0)) + poly_term(3, (1, 0, 0))


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


def test_leading_terms():
    assert ORDER.leading_term(G713.phis[1, 2]) == ((1, 1, 0, 0), 1)
    assert ORDER.leading_term(G713.psis[0]) == ((1, 0, 2, 0), 1)
    five_x0 = poly_term(4, (0, 0, 0, 1), 5)
    assert ORDER.leading_term(five_x0) == ((0, 0, 0, 1), 5)
    with pytest.raises(ZeroPolynomialError):
        ORDER.leading_term(Poly.zero(4))


def test_normal_form_self_reduction():
    f = G713.phis[1, 2]
    r, quots = normal_form(f, Reducer(ORDER, [f]))
    assert not r
    assert quots[0] == poly_term(4, (0, 0, 0, 0))
    # a basis element the division never uses has no entry
    r, quots = normal_form(f, Reducer(ORDER, [f, G713.psis[0]]))
    assert not r and quots == {0: poly_term(4, (0, 0, 0, 0))}


def test_normal_form_of_zero():
    r, quots = normal_form(Poly.zero(4), Reducer(ORDER, [G713.phis[1, 1]]))
    assert not r and quots == {}


def test_normal_form_postconditions(p713):
    basis = groebner_generators(p713).polynomials()
    lms = [ORDER.leading_monomial(g) for g in basis]
    f = poly_term(4, (1, 1, 1, 0))  # X1*X2*X3
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


def test_reducer_forgets_its_misses_on_append():
    # X2^2*X0 is irreducible by phi(1,1) alone; once phi(2,2) joins, the
    # same Reducer must try it again rather than recall the miss
    f = poly_term(4, (0, 2, 0, 1))
    table = Reducer(ORDER, [G713.phis[1, 1]])
    r, quots = table.divide(f)
    assert r == f and not quots
    table.append(G713.phis[2, 2])
    r, quots = table.divide(f)
    assert r == poly_term(4, (1, 0, 1, 1)) and list(quots) == [1]
    assert (r, quots) == Reducer(ORDER, table.basis).divide(f)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_growing_reducer_divides_like_a_fresh_one(data):
    # appends interleaved with divisions: every division must match that of a
    # Reducer built from scratch on the basis so far
    closed = groebner_generators(P713).polynomials()
    extra = [Poly(4, {(1, 1, 0, 0): 1, (0, 0, 0, 2): 3}), poly_term(4, (0, 1, 1, 0), 2)]
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


@given(weights=st.lists(st.integers(1, 9), min_size=1, max_size=7), data=st.data())
@settings(max_examples=200, deadline=None)
def test_hilbert_numerator_matches_the_all_pairs_recursion(weights, data):
    # minimizing once at entry gives the K of minimizing every ideal the
    # recursion meets, on monomial ideals in up to 7 variables
    expo = st.tuples(*[st.integers(0, 3)] * len(weights))
    monos = data.draw(st.lists(expo, max_size=10))
    assert hilbert_numerator(weights, monos) == numerator_all_pairs(weights, monos)


@pytest.mark.parametrize("triple", [(17, 3, 8), (41, 2, 12), (71, 2, 24)])
def test_hilbert_numerator_matches_the_all_pairs_recursion_on_lead_sets(triple):
    # the ring leads, and each distinct lead set of the syzygy basis
    curve = Curve(make_params(*triple))
    weights = curve.params.exponent_weights
    table = curve.module_reducer
    symbols = {sym for (_, sym), _ in table.leads}
    ideals = {frozenset(table.lead_monomials(sym)) for sym in symbols}
    ideals.add(frozenset(curve.ring_reducer.lead_monomials()))
    for monos in ideals:
        assert hilbert_numerator(weights, monos) == numerator_all_pairs(weights, monos)


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
    table = curve.module_reducer
    ideals = [table.lead_monomials(sym) for sym in {sym for (_, sym), _ in table.leads}]
    for monos in [curve.ring_reducer.lead_monomials()] + ideals:
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
    # sums and remainders that come out integral
    h = Poly(4, {(1, 0, 0, 0): Fraction(1, 2)})
    assert [type(c) for c in (h + h).terms.values()] == [int]
    assert [type(c) for c in (h - (-h)).terms.values()] == [int]
    x0 = variable_monomial(3, 0)
    row = Reducer(ORDER, [Poly(4, {(2, 0, 0, 0): 1, x0: Fraction(-1, 2)})])
    remainder, _ = row.divide(Poly(4, {(2, 0, 0, 0): 1, x0: Fraction(1, 2)}))
    assert remainder.terms == {x0: 1} and type(remainder.terms[x0]) is int


def test_s_polynomial_of_equal_inputs():
    f = G713.psis[1]
    assert not s_polynomial(ORDER, f, f)


def test_reducer_s_pairs_match_the_reference_and_their_cofactors():
    # on every pair of the (17,3,8) ring and module Reducers the S-element
    # built from the held leads is the one from leads the order recomputes,
    # and its cofactors rebuild it; pair_count counts pairs() on those and on
    # a planted basis whose leads sit on two symbols
    curve = Curve(make_params(17, 3, 8))
    x1, x2, x3 = (variable_monomial(3, k) for k in (1, 2, 3))
    planted = Reducer(ModuleOrder(P713), [
        module_term(4, x1, Psi(0)), module_term(4, x1, Phi(1, 1)),
        module_term(4, mono_mul(x2, x3), Psi(0), 2), module_term(4, x3, Psi(2)),
        module_term(4, mono_mul(x1, x2), Phi(1, 1)) + module_term(4, x3, Phi(1, 1), -3)])
    assert planted.pairs() == [(0, 2), (1, 4)]
    for table in (curve.ring_reducer, curve.module_reducer, planted):
        pairs = table.pairs()
        assert table.pair_count() == len(pairs)
        basis = table.basis
        for x, y in pairs:
            s, (cx, ux), (cy, uy) = table.s_pair(x, y)
            assert s == s_polynomial(table.order, basis[x], basis[y])
            assert s == basis[x].times_term(cx, ux) + basis[y].times_term(cy, uy)
    assert (curve.ring_reducer.pair_count(), curve.module_reducer.pair_count()) == (630, 784)


def test_buchberger_principal_ideal():
    x1 = poly_term(4, (1, 0, 0, 0))
    assert buchberger(ORDER, [x1]) == [x1]


def test_buchberger_drops_zeros_multiples_and_copies():
    # input the closed-form sets never produce: a zero, a non-monic copy, a
    # multiple and a negated copy of one generator
    g = G713.phis[1, 1]
    x1 = poly_term(4, variable_monomial(3, 1))
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
    assert curve_image(p713, poly_term(4, (1, 0, 0, 0))) == {8: 1}
    assert not curve_image(p713, G713.phis[1, 2])
    # 3*10 == 9 + 3*7 backs the top power binomial
    assert not curve_image(p713, G713.psis[2])


def test_curve_image_all_generators(p713):
    for g in groebner_generators(p713).polynomials():
        assert not curve_image(p713, g)


@given(monos4, monos4)
@settings(max_examples=150)
def test_binomial_membership_iff_equal_weight(f, g):
    diff = Poly(4, {f: 1}) - Poly(4, {g: 1})
    assert (not curve_image(P713, diff)) == (ORDER.weight(f) == ORDER.weight(g))


def test_poly_json_roundtrip():
    f = G713.psis[1] + poly_term(4, (0, 0, 0, 2), Fraction(3, 2))
    data = poly_to_json(ORDER, f)
    assert data[0]["coeff"] == "1/1"
    assert poly_from_json(4, data) == f


def test_format_poly():
    assert format_poly(ORDER, G713.phis[1, 2]) == "X1*X2 - X3*X0"
    assert format_poly(ORDER, Poly.zero(4)) == "0"
    # coefficients other than plus or minus one, on a monomial and alone
    f = Poly(4, {(2, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 1): -2, (0, 0, 0, 0): 5})
    assert format_poly(ORDER, f) == "3/2*X1^2 - 2*X2*X0 + 5"


# exponents 0..2 in four variables: equal leads and ties in degree are common
small_monos = st.tuples(*[st.integers(0, 2)] * 4)


@given(st.lists(small_monos, max_size=12))
@settings(max_examples=300, deadline=None)
def test_first_dividing_pair_matches_the_all_pairs_scan(leads):
    table = Reducer(ORDER, [poly_term(4, m) for m in leads])
    assert _first_dividing_pair(table) == first_dividing_pair_all_pairs(table)


@given(st.lists(st.tuples(small_monos, st.sampled_from([Psi(0), Psi(2), Phi(1, 2), Phi(2, 2)])),
                max_size=12))
@settings(max_examples=300, deadline=None)
def test_first_dividing_pair_matches_the_all_pairs_scan_on_module_symbols(terms):
    # leads on two symbols never divide, even with equal monomials
    table = Reducer(ModuleOrder(P713), [module_term(4, m, sym) for m, sym in terms])
    assert _first_dividing_pair(table) == first_dividing_pair_all_pairs(table)


def test_first_dividing_pair_matches_the_all_pairs_scan_on_the_sweep_and_the_plants():
    # both lead tables of every sweep triple, where no lead divides
    # another, and each with a dividing lead planted: a copy, a multiple
    # of a quadratic lead and a multiple of a psi lead, whose supports
    # hold the divisor's
    for pr in parameter_sweep(range(2, 6), range(1, 4), range(1, 6)):
        curve = Curve(pr)
        ring = curve.ring_reducer
        for table in (ring, curve.module_leads):
            assert _first_dividing_pair(table) is first_dividing_pair_all_pairs(table) is None
        quadratic, psi = ring.basis[0], ring.basis[-1]
        xp, x0 = variable_monomial(pr.p, pr.p), variable_monomial(pr.p, 0)
        for extra in (quadratic, quadratic.times_term(1, xp), psi.times_term(1, x0)):
            planted = Reducer(ring.order, [*ring.basis, extra])
            assert _first_dividing_pair(planted) == first_dividing_pair_all_pairs(planted)
            assert _first_dividing_pair(planted)[1] == len(ring.basis)
        members = curve.module_reducer.basis
        for extra in (members[-1], members[0].times_term(1, xp)):
            planted = Reducer(curve.morder, [*members, extra])
            assert _first_dividing_pair(planted) == first_dividing_pair_all_pairs(planted)
            assert _first_dividing_pair(planted)[1] == len(members)


def test_first_dividing_pair_tests_no_psi_lead_against_a_quadratic_lead(monkeypatch):
    # of the p - b + 1 psi leads X_{b+i}*X_p^a, only the p - b with b+i < p
    # reach a divisibility test, against X_{b+i}^2; the rest of the
    # quadratic leads carry no X_p, and their supports rule them out
    pr, calls, divides = make_params(17, 3, 8), [], polyring.mono_divides
    ring = Curve(pr).ring_reducer
    monkeypatch.setattr(polyring, "mono_divides", lambda f, g: calls.append(f) or divides(f, g))
    assert _first_dividing_pair(ring) is None
    assert len(calls) == pr.p - pr.b == 7


def test_first_dividing_pair_examples():
    x1, x1x2, x2 = (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)
    ring = [poly_term(4, m) for m in (x1x2, x2, x1x2, x1)]
    # (0, 2) by equal leads comes before (1, 0) and (3, 0) by lower degree
    assert _first_dividing_pair(Reducer(ORDER, ring)) == (0, 2)
    assert _first_dividing_pair(Reducer(ORDER, ring[1:])) == (0, 1)
    assert _first_dividing_pair(Reducer(ORDER, ring[:2])) == (1, 0)
    assert _first_dividing_pair(Reducer(ORDER, [ring[1], ring[3]])) is None
    module = [module_term(4, x1, Psi(0)), module_term(4, x1, Psi(2)),
              module_term(4, x1x2, Psi(2))]
    assert _first_dividing_pair(Reducer(ModuleOrder(P713), module)) == (1, 2)


def test_a_closure_computes_each_lead_once(monkeypatch):
    # each element's lead is computed as it joins, and every S-polynomial
    # is built from the leads its Reducer holds: the closure of the
    # closed-form set at (17,3,8), up to its heaviest generator, used to
    # compute 368 leads for its 36 elements and 148 popped pairs
    curve = Curve(make_params(17, 3, 8))
    calls, leading_term = [], WeightOrder.leading_term

    def count(self, poly):
        calls.append(poly)
        return leading_term(self, poly)

    monkeypatch.setattr(WeightOrder, "leading_term", count)
    grown = curve.closure()[0]
    assert len(grown.basis) == len(calls) == 36
    # phi(1,1) and psi(1,0) of (7,1,3) are no Groebner basis: a remainder joins
    calls.clear()
    gens = [G713.phis[1, 1], G713.psis[0]]
    closed = Closure(ORDER, gens).close()
    assert len(closed.basis) == len(calls) == 3
    monkeypatch.undo()
    assert closed.leads == [leading_term(ORDER, g) for g in closed.basis]


PACKED_PARAMS = [make_params(*t) for t in ((7, 1, 3), (17, 3, 8), (1000003, 999999, 3))]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_packed_keys_sort_as_the_ring_key_next_to_a_fields_top_bit(data):
    # the widest exponent drawn sets the field width, so an exponent of
    # 2**bits - 1 fills its field up to the top bit, and the field of a
    # product up to the top bit itself: the packed ints sort as
    # WeightOrder.key, and so do the sums of two, the ints of the products
    params = data.draw(st.sampled_from(PACKED_PARAMS))
    bits = data.draw(st.integers(1, 40))
    exponent = st.integers(0, 2) | st.integers(max(0, 2 ** bits - 3), 2 ** bits - 1)
    monos = data.draw(st.lists(st.tuples(*[exponent] * params.nvars), min_size=1, max_size=8,
                               unique=True))
    low = data.draw(st.integers(0, 3))
    order, packed = WeightOrder(params), _packed_keys(params.exponent_weights, set(monos), low)
    assert all(k % 2 ** low == 0 and k >= 0 for k in packed.values())
    assert sorted(monos, key=packed.__getitem__) == sorted(monos, key=order.key)
    pairs = [(f, g) for f in monos for g in monos]
    assert (sorted(pairs, key=lambda fg: packed[fg[0]] + packed[fg[1]])
            == sorted(pairs, key=lambda fg: order.key(mono_mul(*fg))))


def test_a_reducer_keys_its_basis_in_one_pass_and_a_closure_by_element(monkeypatch):
    # leading_terms keys a whole basis, and leading_term the elements that
    # join one at a time: those of a closure, and those of append
    calls, leading_term, leading_terms = [], WeightOrder.leading_term, WeightOrder.leading_terms
    monkeypatch.setattr(WeightOrder, "leading_term",
                        lambda self, g: calls.append("one") or leading_term(self, g))
    monkeypatch.setattr(WeightOrder, "leading_terms",
                        lambda self, gs: calls.append(len(gs)) or leading_terms(self, gs))
    gens = G713.polynomials()
    table = Reducer(ORDER, gens)
    assert calls == [len(gens)]
    assert table.leads == [leading_term(ORDER, g) for g in gens]
    calls.clear()
    Closure(ORDER, gens)
    table.append(gens[0])
    assert calls == [0] + ["one"] * (len(gens) + 1)
    with pytest.raises(ZeroPolynomialError):
        Reducer(ORDER, [gens[0], Poly.zero(4)])
