from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import make_params, parameter_sweep
from monocurve.generators import groebner_generators, phi_binomial, psi_binomial
from monocurve.polyring import Poly, Reducer, normal_form, variable_monomial
from monocurve.syzygy import (
    ModElement,
    ModuleOrder,
    Phi,
    Psi,
    expected_module_leading_terms,
    is_relation,
    mod_elem_from_json,
    mod_elem_to_json,
    module_normal_form,
    module_s_vector,
    order_monomial,
    phi_symbol,
    psi_symbol,
    relation_image,
    schreyer_relations,
    symbol_images,
    syzygy_A,
    syzygy_B,
    syzygy_L,
    syzygy_basis,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)

P713 = make_params(7, 1, 3)
MORDER = ModuleOrder(P713)
SWEEP5 = list(parameter_sweep(range(2, 6), range(1, 4), range(1, 6)))


def _x(v, e=1):
    return variable_monomial(3, v, e)


def test_symbol_conventions(p713):
    assert phi_symbol(p713, 2, 1) == Phi(1, 2)
    assert phi_symbol(p713, 1, 1) == Phi(1, 1)
    assert phi_symbol(p713, 0, 2) is None
    assert phi_symbol(p713, 3, 1) is None  # index p is out of range
    assert phi_symbol(p713, -1, 2) is None
    assert psi_symbol(p713, 2) == Psi(2)
    with pytest.raises(IndexError):
        psi_symbol(p713, 3)


def test_syzygy_A_explicit(p713):
    # A(1;1,0) and A(3;1,0), frozen from expanding the construction by hand
    elem = syzygy_A(p713, 1, 0)
    assert elem == ModElement(
        4,
        {
            (_x(1), Psi(0)): 1,
            (_x(0), Psi(1)): -1,
            (_x(3, 2), Phi(1, 1)): -1,
        },
    )
    elem = syzygy_A(p713, 3, 0)
    assert elem == ModElement(
        4,
        {
            (_x(3), Psi(0)): 1,
            (_x(1), Psi(2)): -1,
            (_x(0, 3), Phi(1, 2)): -1,
        },
    )


def test_syzygy_A_internal_cancellation(p713):
    # in A(2;1,1) the two bracket corrections carry the same symbol and cancel
    elem = syzygy_A(p713, 2, 1)
    assert elem == ModElement(
        4,
        {
            (_x(2), Psi(1)): 1,
            (_x(1), Psi(2)): -1,
            (_x(3, 2), Phi(2, 2)): -1,
        },
    )


def test_syzygy_B_explicit(p713):
    elem = syzygy_B(p713, 1, 2)
    assert elem == ModElement(
        4,
        {
            ((1, 1, 0, 0), Psi(2)): 1,
            ((0, 0, 1, 1), Psi(2)): -1,
            (_x(3, 3), Phi(1, 2)): -1,
            ((0, 1, 0, 3), Phi(1, 2)): 1,
        },
    )


def test_syzygy_L_explicit(p713):
    elem = syzygy_L(p713, 1, 2, 2)
    assert elem == ModElement(
        4,
        {
            (_x(1), Phi(2, 2)): 1,
            (_x(2), Phi(1, 2)): -1,
            (_x(3), Phi(1, 1)): 1,
        },
    )


def test_syzygy_index_errors(p713):
    with pytest.raises(IndexError):
        syzygy_A(p713, 0, 0)
    with pytest.raises(IndexError):
        syzygy_A(p713, 1, 2)  # j must stay below p - b
    with pytest.raises(IndexError):
        syzygy_B(p713, 2, 1)  # not canonical
    with pytest.raises(IndexError):
        syzygy_L(p713, 2, 1, 2)  # l < j violated


def test_relation_image_examples(p713):
    elem = ModElement(
        4,
        {
            (_x(3), Psi(0)): 1,
            (_x(1), Psi(2)): -1,
            (_x(0, 3), Phi(1, 2)): -1,
        },
    )
    assert is_relation(p713, elem)
    assert relation_image(p713, ModElement.term(4, (0,) * 4, Psi(0))) == psi_binomial(
        p713, 0
    )


def test_every_member_is_a_relation():
    for pr in SWEEP5:
        images = symbol_images(pr)
        for _, elem in syzygy_basis(pr).labeled():
            assert not relation_image(pr, elem, images)


def test_counts(p713, p832):
    assert syzygy_basis(p713).counts() == {"A": 6, "B": 3, "L": 2, "total": 11}
    assert syzygy_basis(p832).counts() == {"A": 0, "B": 1, "L": 0, "total": 1}
    for pr in SWEEP5:
        counts = syzygy_basis(pr).counts()
        assert counts["A"] == pr.p * (pr.p - pr.b)
        assert counts["B"] == pr.p * (pr.p - 1) // 2
        assert counts["L"] == sum(j * (j - 1) for j in range(2, pr.p))


def test_order_monomial_examples(p713):
    assert order_monomial(p713, (0, 0, 0, 0), Psi(0)) == (1, 0, 2, 0)  # X1*X3^2
    assert order_monomial(p713, _x(0), Phi(1, 2)) == (1, 1, 0, 1)  # X0*X1*X2
    # the projection equals the image's leading monomial
    elem = ModElement.term(4, _x(2), Psi(1))
    lm = MORDER.ring.leading_monomial(relation_image(p713, elem))
    assert lm == order_monomial(p713, _x(2), Psi(1))


def test_module_compare_examples():
    # projections tie at X1*X3^3; the lower Psi index wins
    assert MORDER.compare((_x(3), Psi(0)), (_x(1), Psi(2))) == 1
    assert MORDER.compare((_x(1), Psi(2)), (_x(3), Psi(0))) == -1
    assert MORDER.compare((_x(1), Psi(2)), (_x(1), Psi(2))) == 0
    # projections tie at X1*X2*X3^(a+1): Psi beats Phi
    a = P713.a
    assert (
        MORDER.compare(((1, 1, 0, 0), Psi(2)), (_x(3, a + 1), Phi(1, 2))) == 1
    )
    # same projection on Phi terms: larger (j, i) wins
    assert MORDER.compare((_x(1), Phi(2, 2)), (_x(2), Phi(1, 2))) == 1
    # distinct projections of equal weight resolve in the ring order:
    # X0^3*X1*X2 loses to X1*X3^3 on the right-most difference entry
    assert MORDER.compare((_x(0, 3), Phi(1, 2)), (_x(1), Psi(2))) == -1


@given(st.data())
@settings(max_examples=80)
def test_module_order_multiplicative(data):
    monos = st.tuples(*[st.integers(0, 3)] * 4)
    symbols = [Psi(0), Psi(1), Psi(2), Phi(1, 1), Phi(1, 2), Phi(2, 2)]
    t1 = (data.draw(monos), data.draw(st.sampled_from(symbols)))
    t2 = (data.draw(monos), data.draw(st.sampled_from(symbols)))
    h = data.draw(monos)
    c = MORDER.compare(t1, t2)
    from monocurve.polyring import mono_mul

    scaled = MORDER.compare((mono_mul(t1[0], h), t1[1]), (mono_mul(t2[0], h), t2[1]))
    assert scaled == c


def test_leading_terms_match_display():
    for pr in SWEEP5:
        morder = ModuleOrder(pr)
        sset = syzygy_basis(pr)
        computed = {morder.leading_term(g)[0] for g in sset.elements()}
        assert computed == expected_module_leading_terms(pr)
        b = pr.b
        for (i, j), g in sset.A.items():
            assert morder.leading_term(g)[0] == (variable_monomial(pr.p, i), Psi(j))
        for (l, i, j), g in sset.L.items():
            assert morder.leading_term(g)[0] == (variable_monomial(pr.p, l), Phi(i, j))


def test_module_normal_form_basics(p713):
    elems = syzygy_basis(p713).elements()
    a30 = syzygy_A(p713, 3, 0)
    r, quots = module_normal_form(MORDER, a30, [a30])
    assert not r and quots[0] == Poly.term(4, (0, 0, 0, 0))
    shifted = a30.times_term(1, _x(0))
    r, _ = module_normal_form(MORDER, shifted, elems)
    assert not r


def test_module_normal_form_recombines(p713):
    elems = syzygy_basis(p713).elements()
    probe = syzygy_A(p713, 1, 0).times_term(Fraction(3, 2), _x(2)) + syzygy_L(
        p713, 1, 2, 2
    ).times_term(1, _x(0, 2))
    for divisors in (elems, Reducer(MORDER, elems)):
        r, quots = module_normal_form(MORDER, probe, divisors)
        recombined = r
        for q, g in zip(quots, elems):
            for mono, c in q.terms.items():
                recombined = recombined + g.times_term(c, mono)
        assert recombined == probe


def test_ring_division_is_module_division_on_one_symbol(p713):
    # a ring basis lifted under a single symbol divides exactly as the ring does
    order = MORDER.ring
    basis = groebner_generators(p713).polynomials()
    lifted = [ModElement.from_poly(g, Psi(0)) for g in basis]
    for f in (
        Poly.term(4, (1, 1, 1, 0)),
        phi_binomial(p713, 1, 2) * psi_binomial(p713, 1) + Poly.term(4, (2, 0, 3, 1), 5),
        Poly.term(4, (0, 0, 4, 0), Fraction(3, 2)) - Poly.term(4, (1, 0, 0, 5)),
    ):
        r, quots = normal_form(order, f, basis)
        mr, mquots = module_normal_form(MORDER, ModElement.from_poly(f, Psi(0)), lifted)
        assert mr == ModElement.from_poly(r, Psi(0))
        assert mquots == quots


def test_s_vectors_reduce(p713):
    elems = syzygy_basis(p713).elements()
    pairs = 0
    for x in range(len(elems)):
        for y in range(x + 1, len(elems)):
            s = module_s_vector(MORDER, elems[x], elems[y])
            if s is None:
                continue
            pairs += 1
            r, _ = module_normal_form(MORDER, s, elems)
            assert not r
    assert pairs == 9


def test_s_vector_none_on_distinct_symbols(p713):
    assert module_s_vector(MORDER, syzygy_A(p713, 1, 0), syzygy_A(p713, 1, 1)) is None


def test_harvested_relations_reduce(p713):
    elems = syzygy_basis(p713).elements()
    rows = schreyer_relations(p713)
    assert len(rows) == 15
    for _, rel in rows:
        assert is_relation(p713, rel)
        r, _ = module_normal_form(MORDER, rel, elems)
        assert not r


def test_deleting_an_element_breaks_completeness(p713):
    # dropping L(1;2,2) leaves some harvested relation stuck
    kept = [g for lab, g in syzygy_basis(p713).labeled() if lab != "L(1;2,2)"]
    stuck = 0
    for _, rel in schreyer_relations(p713):
        r, _ = module_normal_form(MORDER, rel, kept)
        if r:
            stuck += 1
    assert stuck > 0


def test_verify_syzygy_basis(p713, p832, p613):
    for pr in (p713, p832, p613):
        report = verify_syzygy_basis(pr)
        assert report.passed, [c.name for c in report.failures()]


def test_verify_excluded_leading_forms(p713):
    report = verify_excluded_leading_forms(p713, 5)
    assert report.passed
    with pytest.raises(ValueError):
        verify_excluded_leading_forms(p713, 0)


def test_excluded_instances(p713):
    morder = ModuleOrder(p713)
    leads = {}
    for _, g in syzygy_basis(p713).labeled():
        (m, s), _ = morder.leading_term(g)
        leads.setdefault(s, []).append(m)
    from monocurve.polyring import mono_divides, mono_mul

    def in_lt_module(mono, sym):
        return any(mono_divides(m, mono) for m in leads.get(sym, ()))

    assert not in_lt_module(_x(0, 2), Psi(0))  # X0^2*Psi(0)
    assert not in_lt_module(_x(2, 3), Phi(1, 2))  # X2^3*Phi(1,2), no X1 factor
    assert in_lt_module(mono_mul(_x(1), _x(2)), Psi(2))


def test_verify_order_projection(p713):
    assert verify_order_projection(p713, samples=500, seed=11).passed


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_combinations_stay_relations(data):
    elems = syzygy_basis(P713).elements()
    images = symbol_images(P713)
    monos = st.tuples(*[st.integers(0, 2)] * 4)
    acc = ModElement.zero(4)
    for _ in range(data.draw(st.integers(1, 4))):
        g = data.draw(st.sampled_from(elems))
        coeff = data.draw(st.integers(-2, 2))
        acc = acc + g.times_term(coeff, data.draw(monos))
    assert is_relation(P713, acc, images)


def test_mod_elem_json_roundtrip(p713):
    elem = syzygy_B(p713, 1, 2)
    data = mod_elem_to_json(MORDER, elem)
    assert data[0]["basis"] == {"kind": "Psi", "j": 2}
    assert mod_elem_from_json(4, data) == elem
