import dataclasses
import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import inf
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import generators, make_params, syzygy
from monocurve.cli import main, verification_bundle
from monocurve.generators import expected_leading_monomials, groebner_generators
from monocurve.polyring import (
    Closure,
    Poly,
    Reducer,
    SparseMap,
    WeightOrder,
    ZeroPolynomialError,
    hilbert_numerator,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    poly_to_json,
    variable_monomial,
    variable_position,
)
from monocurve.syzygy import (
    Curve,
    ModElement,
    ModuleOrder,
    Phi,
    Psi,
    SyzygySet,
    mod_elem_to_json,
    relation_image,
    schreyer_relations,
    syzygy_basis,
    format_mod_elem,
    term_to_json,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)
from monocurve.semigroup import _add_shifted, apery_numerator
from oracles import (_symbol_from_json, betti_2_by_homology, buchberger,
                     excluded_boxes, excluded_form_every_box,
                     leading_term_shape_three_tests, lift,
                     mod_elem_from_json, module_identity_by_symbol, module_sum_by_symbol,
                     module_term, order_projection_by_images,
                     order_projection_exact, parameter_sweep, phi_symbol, planted_syzygies,
                     poly_term, relation_image_by_tuples, s_polynomial, syzygy_A_chained,
                     syzygy_B_lifted, syzygy_L_chained, syzygy_members)

P713 = make_params(7, 1, 3)
C713 = Curve(P713)
MORDER = ModuleOrder(P713)
SWEEP5 = list(parameter_sweep(range(2, 6), range(1, 4), range(1, 6)))
SWEEP6 = list(parameter_sweep(range(2, 7), range(1, 4), range(1, 6)))
# p = 2..8, a = 1..3, every b and every d <= 5 coprime to m0
GRID8 = list(parameter_sweep(range(2, 9), range(1, 4), range(1, 6)))


def _x(v, e=1):
    return variable_monomial(3, v, e)


def test_symbol_conventions(p713):
    _, psi, phi = syzygy._table(p713)
    assert phi[2, 1] == Phi(1, 2)
    assert phi[1, 1] == Phi(1, 1)
    assert (0, 2) not in phi
    assert (3, 1) not in phi  # index p is out of range
    assert (-1, 2) not in phi
    assert psi[2] == Psi(2)
    assert len(psi) == 3  # Psi(3) lies past p - b


def test_symbols_hash_compare_and_print_like_tuples():
    assert hash(Psi(2)) == hash((2,)) and hash(Phi(1, 2)) == hash((1, 2))
    assert Psi(1) == Psi(1) and Phi(1, 2) == Phi(1, 2)
    assert Psi(1) != Phi(1, 1) and Psi(1) != Psi(2) and Phi(1, 2) != Phi(2, 1)
    assert len({Psi(1), Psi(1), Phi(1, 1), Phi(1, 1)}) == 2
    assert {(_x(1), Psi(0)): 1}[((1, 0, 0, 0), Psi(0))] == 1
    assert Psi(1) < Psi(2) and Phi(1, 3) < Phi(2, 2)
    assert str(Psi(3)) == "Psi(3)" and str(Phi(1, 2)) == "Phi(1,2)"
    assert repr(Psi(3)) == "Psi(j=3)" and repr(Phi(1, 2)) == "Phi(i=1, j=2)"
    for sym in (Psi(0), Psi(4), Phi(1, 1), Phi(2, 5)):
        assert _symbol_from_json(syzygy._symbol_json(sym)) == sym
        assert type(_symbol_from_json(syzygy._symbol_json(sym))) is type(sym)
    assert syzygy._symbol_json(Psi(4)) == {"kind": "Psi", "j": 4}
    assert syzygy._symbol_json(Phi(2, 5)) == {"kind": "Phi", "i": 2, "j": 5}


def test_mod_element_repr_lists_its_terms_by_their_text():
    assert repr(ModElement.zero(4)) == repr(ModElement(4, {})) == "ModElement(0)"
    # built out of order: the repr sorts the terms by str((monomial, symbol))
    g = ModElement(4, {
        ((1, 0, 0, 0), Phi(1, 2)): -1,
        ((0, 0, 0, 1), Psi(2)): Fraction(1, 3),
        ((0, 0, 0, 1), Phi(1, 1)): 2,
        ((0, 0, 0, 0), Psi(0)): 5,
    })
    assert repr(g) == "ModElement(5*1*Psi(0) + 2*X0*Phi(1,1) + 1/3*X0*Psi(2) + -1*X1*Phi(1,2))"


def test_symbols_sort_by_their_text():
    # the order of the sampled projection check
    curve = Curve(make_params(13, 2, 6))
    assert [str(s) for s in sorted(curve.images, key=str)] == [
        "Phi(1,1)", "Phi(1,2)", "Phi(1,3)", "Phi(1,4)", "Phi(1,5)", "Phi(2,2)", "Phi(2,3)",
        "Phi(2,4)", "Phi(2,5)", "Phi(3,3)", "Phi(3,4)", "Phi(3,5)", "Phi(4,4)", "Phi(4,5)",
        "Phi(5,5)", "Psi(0)", "Psi(1)", "Psi(2)", "Psi(3)", "Psi(4)", "Psi(5)",
    ]


def test_syzygy_A_explicit():
    # A(1;1,0) and A(3;1,0), frozen from expanding the construction by hand
    elem = C713.sset.A[1, 0]
    assert elem == ModElement(
        4,
        {
            (_x(1), Psi(0)): 1,
            (_x(0), Psi(1)): -1,
            (_x(3, 2), Phi(1, 1)): -1,
        },
    )
    elem = C713.sset.A[3, 0]
    assert elem == ModElement(
        4,
        {
            (_x(3), Psi(0)): 1,
            (_x(1), Psi(2)): -1,
            (_x(0, 3), Phi(1, 2)): -1,
        },
    )


def test_syzygy_A_internal_cancellation():
    # in A(2;1,1) the two bracket corrections carry the same symbol and cancel
    elem = C713.sset.A[2, 1]
    assert elem == ModElement(
        4,
        {
            (_x(2), Psi(1)): 1,
            (_x(1), Psi(2)): -1,
            (_x(3, 2), Phi(2, 2)): -1,
        },
    )


def test_syzygy_B_explicit():
    elem = C713.sset.B[1, 2]
    assert elem == ModElement(
        4,
        {
            ((1, 1, 0, 0), Psi(2)): 1,
            ((0, 0, 1, 1), Psi(2)): -1,
            (_x(3, 3), Phi(1, 2)): -1,
            ((0, 1, 0, 3), Phi(1, 2)): 1,
        },
    )


def test_syzygy_L_explicit():
    elem = C713.sset.L[1, 2, 2]
    assert elem == ModElement(
        4,
        {
            (_x(1), Phi(2, 2)): 1,
            (_x(2), Phi(1, 2)): -1,
            (_x(3), Phi(1, 1)): 1,
        },
    )


def test_term_lists_match_the_chained_construction():
    # every A and L equals the element built one term at a time, and every
    # stored coefficient of A, B and L is an int of 1 or -1, so no zero sum
    # and no term on a vanishing Phi is kept; A(p-b; b, j) for 1 <= j runs
    # through the cancelling pair of bracket corrections
    cancelling = 0
    for pr in SWEEP6 + [make_params(35, 2, 16)]:
        sset = syzygy_basis(pr)
        for (i, j), g in sset.A.items():
            assert g == syzygy_A_chained(pr, i, j), (pr, i, j)
            cancelling += i == pr.p - pr.b and j >= 1
        for (l, i, j), g in sset.L.items():
            assert g == syzygy_L_chained(pr, l, i, j), (pr, l, i, j)
        assert all(type(c) is int and c in (1, -1)
                   for g in syzygy_members(sset) for c in g.terms.values()), pr
    assert cancelling


def test_every_constructor_checks_the_exponent_count():
    message = r"monomial \(1, 0, 0\) does not have 4 exponents"
    for build in (lambda: Poly(4, {(1, 0, 0): 1}),
                  lambda: ModElement(4, {((1, 0, 0), Psi(0)): 1})):
        with pytest.raises(ValueError, match=message):
            build()


def test_zero_has_no_leading_term_in_either_order():
    with pytest.raises(ZeroPolynomialError, match="the zero polynomial has no leading term"):
        WeightOrder(P713).leading_term(Poly.zero(4))
    with pytest.raises(ZeroPolynomialError, match="the zero element has no leading term"):
        MORDER.leading_term(ModElement.zero(4))


def test_format_mod_elem_spells_non_unit_coefficients():
    elem = ModElement(4, {((1, 0, 0, 0), Psi(0)): Fraction(-1, 2), ((0, 0, 0, 0), Phi(1, 1)): 3})
    assert format_mod_elem(MORDER, elem) == "-1/2*X1*Psi(0) + 3*Phi(1,1)"


def test_every_member_matches_its_reference(ladder):
    # A and L built one term at a time, B lifted from fresh binomials
    for pr in ladder:
        sset = syzygy_basis(pr)
        assert sset.A == {(i, j): syzygy_A_chained(pr, i, j) for i, j in sset.A}, pr
        assert sset.B == {(i, j): syzygy_B_lifted(pr, i, j)
                          for i in range(1, pr.p) for j in range(i, pr.p)}, pr
        assert sset.L == {(l, i, j): syzygy_L_chained(pr, l, i, j) for l, i, j in sset.L}, pr
        assert len(sset.A) == pr.p * (pr.p - pr.b)
        assert len(sset.L) == sum(j * (j - 1) for j in range(2, pr.p))


def test_the_table_holds_each_symbol_once(ladder):
    for pr in ladder:
        p, b = pr.p, pr.b
        _, psi, phi = syzygy._table(pr)
        assert psi == [Psi(j) for j in range(p - b + 1)]
        assert phi == {(i, j): phi_symbol(pr, i, j) for i in range(1, p) for j in range(1, p)}
        assert all(phi[i, j] is phi[j, i] for i, j in phi)


def test_members_on_one_unit_monomial_share_its_tuple(ladder):
    # A(1; b, 0) and L(1; 1, 2) both carry X1, and every A carrying
    # X0^(a+d) carries one tuple: the families read one table per triple
    for pr in ladder:
        if pr.p < 3 or pr.b == pr.p:
            continue
        members = dict(syzygy_basis(pr).keyed())  # one walk, one table
        (a_x1,) = [m for m, sym in members["A", (1, 0)].terms if sym == Psi(0)]
        (l_x1,) = [m for m, sym in members["L", (1, 1, 2)].terms if sym == Phi(1, 2)]
        assert a_x1 == variable_monomial(pr.p, 1) and a_x1 is l_x1
        x0 = variable_monomial(pr.p, 0, pr.a + pr.d)
        shared = {id(m) for (family, _), g in members.items() if family == "A"
                  for m, _ in g.terms if m == x0}
        assert len(shared) == 1


def _weight(curve, elem) -> int:
    # a member is weight-homogeneous: the projection of any term weighs it
    return curve.morder.key(next(iter(elem.terms)))[0][0]


def _monomials_of_weight(weights, w):
    if not weights:
        yield from [()] if w == 0 else []
        return
    for e in range(w // weights[0] + 1):
        yield from ((e,) + rest for rest in _monomials_of_weight(weights[1:], w - e * weights[0]))


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 1, 3), (15, 1, 5)])
def test_betti_2_counts_the_members_of_a_and_l_or_b_and_l(triple):
    # the minimal syzygies per weight, dim H~_1(D_s), are A and L when
    # b < p, and B and L when b = p, where A is empty
    pr = make_params(*triple)
    curve = Curve(pr)
    sset = curve.sset
    kept = list(sset.L.values()) + list((sset.A if pr.b < pr.p else sset.B).values())
    assert betti_2_by_homology(pr) == Counter(_weight(curve, g) for g in kept)
    assert bool(sset.A) == (pr.b < pr.p)


def test_each_b_reduces_to_zero_modulo_a_and_l_at_its_weight():
    # B lies in the module A and L generate: the multiples of A and L of
    # B(i,j)'s weight, kept as the rows of a Reducer, divide it to zero.
    # A and L alone are no Groebner basis, so dividing by them leaves a
    # remainder.
    curve = Curve(P713)
    sset, weights = curve.sset, P713.exponent_weights
    gens = list(sset.A.values()) + list(sset.L.values())
    for key, elem in sset.B.items():
        w, rows = _weight(curve, elem), Reducer(curve.morder)
        for g in gens:
            for u in _monomials_of_weight(weights, w - _weight(curve, g)):
                r = normal_form(g.times_term(1, u), rows)[0]
                if r:
                    rows.append(r)
        assert not normal_form(elem, rows)[0], key
        assert normal_form(elem, Reducer(curve.morder, gens))[0], key


def test_relation_image_examples():
    elem = ModElement(
        4,
        {
            (_x(3), Psi(0)): 1,
            (_x(1), Psi(2)): -1,
            (_x(0, 3), Phi(1, 2)): -1,
        },
    )
    assert not relation_image(C713, elem)
    assert relation_image(C713, module_term(4, (0,) * 4, Psi(0))) == C713.gset.psis[0]


def test_every_member_is_a_relation():
    for pr in SWEEP5:
        curve = Curve(pr)
        for _, elem in curve.sset.labeled():
            assert not relation_image(curve, elem)


def test_counts(p713, p832):
    assert syzygy_basis(p713).counts() == {"A": 6, "B": 3, "L": 2, "total": 11}
    assert syzygy_basis(p832).counts() == {"A": 0, "B": 1, "L": 0, "total": 1}
    for pr in SWEEP5:
        counts = syzygy_basis(pr).counts()
        assert counts["A"] == pr.p * (pr.p - pr.b)
        assert counts["B"] == pr.p * (pr.p - 1) // 2
        assert counts["L"] == sum(j * (j - 1) for j in range(2, pr.p))


def test_order_monomial_examples(p713):
    # a term is compared by the ring key of its projection
    ring = MORDER.ring
    assert MORDER.key(((0, 0, 0, 0), Psi(0)))[0] == ring.key((1, 0, 2, 0))  # X1*X3^2
    assert MORDER.key((_x(0), Phi(1, 2)))[0] == ring.key((1, 1, 0, 1))  # X0*X1*X2
    # the projection equals the image's leading monomial
    elem = module_term(4, _x(2), Psi(1))
    lm = ring.leading_monomial(relation_image(C713, elem))
    assert MORDER.key((_x(2), Psi(1)))[0] == ring.key(lm)


def test_module_compare_examples():
    # projections tie at X1*X3^3; the lower Psi index wins
    key = MORDER.key
    assert key((_x(3), Psi(0))) > key((_x(1), Psi(2)))
    assert key((_x(1), Psi(2))) < key((_x(3), Psi(0)))
    assert key((_x(1), Psi(2))) == key((_x(1), Psi(2)))
    # projections tie at X1*X2*X3^(a+1): Psi beats Phi
    a = P713.a
    assert key(((1, 1, 0, 0), Psi(2))) > key((_x(3, a + 1), Phi(1, 2)))
    # same projection on Phi terms: larger (j, i) wins
    assert key((_x(1), Phi(2, 2))) > key((_x(2), Phi(1, 2)))
    # distinct projections of equal weight resolve in the ring order:
    # X0^3*X1*X2 loses to X1*X3^3 on the right-most difference entry
    assert key((_x(0, 3), Phi(1, 2))) < key((_x(1), Psi(2)))


@given(st.data())
@settings(max_examples=80)
def test_module_order_multiplicative(data):
    monos = st.tuples(*[st.integers(0, 3)] * 4)
    symbols = [Psi(0), Psi(1), Psi(2), Phi(1, 1), Phi(1, 2), Phi(2, 2)]
    t1 = (data.draw(monos), data.draw(st.sampled_from(symbols)))
    t2 = (data.draw(monos), data.draw(st.sampled_from(symbols)))
    h = data.draw(monos)
    k1, k2 = MORDER.key(t1), MORDER.key(t2)
    s1, s2 = MORDER.key((mono_mul(t1[0], h), t1[1])), MORDER.key((mono_mul(t2[0], h), t2[1]))
    assert (s1 > s2, s1 == s2) == (k1 > k2, k1 == k2)


def test_leading_terms_match_display():
    for pr in SWEEP5:
        morder = ModuleOrder(pr)
        sset = syzygy_basis(pr)
        computed = {morder.leading_term(g)[0] for g in syzygy_members(sset)}
        assert computed == {term for _, term in syzygy._expected_leads(pr)}
        b = pr.b
        for (i, j), g in sset.A.items():
            assert morder.leading_term(g)[0] == (variable_monomial(pr.p, i), Psi(j))
        for (l, i, j), g in sset.L.items():
            assert morder.leading_term(g)[0] == (variable_monomial(pr.p, l), Phi(i, j))


def test_closed_forms_keep_integer_coefficients():
    # every closed form has unit coefficients and every basis a unit lead, so
    # no division leaves the integers; a Fraction here is a silent slow path
    pr = make_params(17, 3, 8)
    curve = Curve(pr)
    elems = groebner_generators(pr).polynomials() + syzygy_members(syzygy_basis(pr))
    for _, _, r, rel in schreyer_relations(curve):
        elems += [r, rel]
    assert all(type(c) is int for e in elems for c in e.terms.values())
    for table in (curve.ring_reducer, curve.module_reducer):
        assert all(type(lc) is int and lc in (1, -1) for _, lc in table.leads)


def test_module_normal_form_basics(p713):
    elems = syzygy_members(syzygy_basis(p713))
    a30 = C713.sset.A[3, 0]
    r, quots = normal_form(a30, Reducer(MORDER, [a30]))
    assert not r and quots[0] == poly_term(4, (0, 0, 0, 0))
    shifted = a30.times_term(1, _x(0))
    r, quots = normal_form(shifted, Reducer(MORDER, elems))
    assert not r
    k = elems.index(a30)
    assert quots == {k: poly_term(4, _x(0))}


def test_module_normal_form_recombines(p713):
    elems = syzygy_members(syzygy_basis(p713))
    probe = (C713.sset.A[1, 0].times_term(Fraction(3, 2), _x(2))
             + C713.sset.L[1, 2, 2].times_term(1, _x(0, 2)))
    r, quots = normal_form(probe, Reducer(MORDER, elems))
    assert all(quots.values())
    assert len(quots) < len(elems)  # most members are never used
    recombined = r
    for k, q in quots.items():
        for mono, c in q.terms.items():
            recombined = recombined + elems[k].times_term(c, mono)
    assert recombined == probe


def test_module_division_skips_the_lead_term_not_the_lead_monomial(p713):
    # no A/B/L member carries its lead monomial on a second symbol; g does,
    # so a division step that skipped every term on that monomial would
    # drop one and break f = sum q_k * basis_k + r
    for elem in syzygy_members(syzygy_basis(p713)):
        lead, _ = MORDER.leading_term(elem)
        assert [t for t in elem.terms if t[0] == lead[0]] == [lead]
    m = mono_mul(_x(1), _x(2))
    g = ModElement(4, {(m, Psi(0)): 1, (m, Phi(1, 1)): -1})
    (lm, sym), _ = MORDER.leading_term(g)
    assert lm == m and sym in (Psi(0), Phi(1, 1))
    f = ModElement(4, {(mono_mul(lm, _x(0)), sym): 3})
    r, quots = normal_form(f, Reducer(MORDER, [g]))
    assert quots == {0: poly_term(4, _x(0), 3)}
    assert sum((g.times_term(c, mono) for mono, c in quots[0].terms.items()), r) == f
    assert not [t for t in r.terms if t[1] == sym and mono_divides(lm, t[0])]
    assert len(r.terms) == 1


def test_ring_division_is_module_division_on_one_symbol(p713):
    # a ring basis lifted under a single symbol divides exactly as the ring does
    order = MORDER.ring
    basis = groebner_generators(p713).polynomials()
    lifted = [lift(g, Psi(0)) for g in basis]
    for f in (
        poly_term(4, (1, 1, 1, 0)),
        C713.gset.phis[1, 2] * C713.gset.psis[1] + poly_term(4, (2, 0, 3, 1), 5),
        poly_term(4, (0, 0, 4, 0), Fraction(3, 2)) - poly_term(4, (1, 0, 0, 5)),
    ):
        r, quots = normal_form(f, Reducer(order, basis))
        mr, mquots = normal_form(lift(f, Psi(0)), Reducer(MORDER, lifted))
        assert mr == lift(r, Psi(0))
        assert mquots == quots
        assert all(quots.values()) and set(quots) <= set(range(len(basis)))


def test_s_vectors_reduce(p713):
    elems = syzygy_members(syzygy_basis(p713))
    table = Reducer(MORDER, elems)
    pairs = C713.module_reducer.pairs()
    for x, y in pairs:
        r, _ = normal_form(s_polynomial(MORDER, elems[x], elems[y]), table)
        assert not r
    assert len(pairs) == 9


def test_s_vector_none_on_distinct_symbols():
    labels = [lab for lab, _ in C713.sset.labeled()]
    x, y = labels.index("A(1;1,0)"), labels.index("A(1;1,1)")
    assert (x, y) not in C713.module_reducer.pairs()
    with pytest.raises(ValueError):
        s_polynomial(MORDER, C713.sset.A[1, 0], C713.sset.A[1, 1])


def _module_s_vector(morder, g1, g2):
    # the S-vector builder of the old all-pairs scan: None across two symbols
    (m1, s1), c1 = morder.leading_term(g1)
    (m2, s2), c2 = morder.leading_term(g2)
    if s1 != s2:
        return None
    lcm = mono_lcm(m1, m2)
    return g1.times_term(Fraction(1) / c1, mono_div(lcm, m1)) - g2.times_term(
        Fraction(1) / c2, mono_div(lcm, m2)
    )


def _all_pairs_s_vectors(curve):
    # reference: the s-vectors-reduce record as a scan over every pair of the
    # module basis made it, as (passed, detail, witness)
    morder, table = curve.morder, curve.module_reducer
    labeled = curve.sset.labeled()
    pairs = 0
    for x in range(len(labeled)):
        for y in range(x + 1, len(labeled)):
            s = _module_s_vector(morder, labeled[x][1], labeled[y][1])
            if s is None:
                continue
            pairs += 1
            r, _ = normal_form(s, table)
            if r:
                witness = {"pair": [labeled[x][0], labeled[y][0]],
                           "remainder": mod_elem_to_json(morder, r)}
                return False, f"{pairs} same-symbol pairs", witness
    return True, f"{pairs} same-symbol pairs", None


def _s_vectors_record(curve):
    (check,) = [c for c in verify_syzygy_basis(curve).checks if c.name == "s-vectors-reduce"]
    return check.passed, check.detail, check.witness


def test_symbol_pairing_matches_the_all_pairs_scan():
    for pr in SWEEP5:
        curve = Curve(pr)
        assert _s_vectors_record(curve) == _all_pairs_s_vectors(curve), pr


def test_symbol_pairing_matches_the_all_pairs_scan_on_a_failing_basis(monkeypatch, p713):
    # a tail term X0*Phi(1,1) under the lead of A(1;1,1) leaves its lead alone
    # and breaks the third same-symbol S-vector
    tail = module_term(4, _x(0), Phi(1, 1))
    planted = planted_syzygies(p713, [(key, g + tail if key == ("A", (1, 1)) else g)
                                      for key, g in syzygy_basis(p713).keyed()])
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted)
    curve = Curve(p713)
    record = _s_vectors_record(curve)
    assert record == _all_pairs_s_vectors(curve)
    passed, detail, witness = record
    assert not passed
    assert detail == "3 same-symbol pairs"
    assert witness["pair"] == ["A(1;1,1)", "A(2;1,1)"]


def test_syzygy_check_divides_the_kept_pairs_and_the_harvest_at_p12(monkeypatch):
    # while the module identity holds the check keeps no pair for division
    # and builds no harvest; once it fails, it builds one, and every
    # same-symbol pair and every harvested relation is divided exactly once
    curve = Curve(make_params(41, 2, 12))
    calls, harvests = [], []
    divide, harvest = Reducer.divide, syzygy.schreyer_relations

    def divide_counted(table, f):
        # the harvest divides its ring S-pairs by the same method: count
        # only the divisions by the module basis
        if table is curve.module_reducer:
            calls.append(1)
        return divide(table, f)

    monkeypatch.setattr(Reducer, "divide", divide_counted)
    monkeypatch.setattr(syzygy, "schreyer_relations",
                        lambda curve: harvests.append(1) or harvest(curve))

    def details(report):
        assert report.passed
        return [c.detail for c in report.checks
                if c.name in ("s-vectors-reduce", "harvested-relations-reduce")]

    counted = ["4092 same-symbol pairs", "2701 harvested relations"]
    assert details(verify_syzygy_basis(curve)) == counted
    assert not calls and not harvests

    monkeypatch.setattr(syzygy, "_module_identity", lambda curve: False)
    assert details(verify_syzygy_basis(curve)) == counted
    assert len(harvests) == 1
    harvested = len(list(harvest(curve)))
    assert len(calls) == len(curve.module_reducer.pairs()) + harvested == 4092 + 2701


def test_a_failure_after_a_dropped_pair_keeps_the_all_pairs_record(monkeypatch, p713):
    # on Psi(0) the leads X1*X2, X1*X3, X2*X3 make (1, 2) a pair that a chain
    # criterion would drop; X0 with the tail Phi(1,1) breaks (1, 3), which
    # comes after (1, 2) in the x-major scan, while X1*X2*Phi(1,1) mends (0, 3)
    nv = p713.nvars
    labeled = [("T0", module_term(nv, (1, 1, 0, 0), Psi(0))),
               ("T1", module_term(nv, (1, 0, 1, 0), Psi(0))),
               ("T2", module_term(nv, (0, 1, 1, 0), Psi(0))),
               ("T3", module_term(nv, _x(0), Psi(0))
                + module_term(nv, (0,) * nv, Phi(1, 1))),
               ("T4", module_term(nv, (1, 1, 0, 0), Phi(1, 1)))]

    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, labeled))
    curve = Curve(p713)
    table = curve.module_reducer
    assert table.pairs() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    record = _s_vectors_record(curve)
    assert record == _all_pairs_s_vectors(curve)
    passed, detail, witness = record
    assert (passed, detail, witness["pair"]) == (False, "5 same-symbol pairs", ["T1", "T3"])


PLANTED_TRIPLES = [(7, 1, 3), (13, 2, 6), (9, 4, 2), (8, 3, 2), (11, 2, 5), (17, 3, 8), (22, 5, 7)]
PLANTINGS = 12  # per triple, seeded by the triple


def _plant_a_tail_term(curve, rng):
    # one member gains a term below its lead, coefficient -1, 1 or 2
    morder, keyed = curve.morder, list(curve.sset.keyed())
    symbols = list(curve.images)
    while True:
        k = rng.randrange(len(keyed))
        lead, _ = morder.leading_term(keyed[k][1])
        term = (tuple(rng.randrange(3) for _ in range(curve.params.nvars)), rng.choice(symbols))
        if morder.key(term) < morder.key(lead):
            break
    planted = list(keyed)
    tail = module_term(curve.params.nvars, *term, rng.choice((-1, 1, 2)))
    planted[k] = (keyed[k][0], keyed[k][1] + tail)
    return planted


def test_criterion_record_matches_the_all_pairs_scan_on_planted_tails(monkeypatch):
    for triple in PLANTED_TRIPLES:
        pr = make_params(*triple)
        base = Curve(pr)
        rows = list(schreyer_relations(base))
        rng = random.Random(sum(triple))
        failed = 0
        for _ in range(PLANTINGS):
            planted = _plant_a_tail_term(base, rng)
            with monkeypatch.context() as patch:
                patch.setattr(syzygy, "syzygy_basis",
                              lambda params: planted_syzygies(params, planted))
                curve = Curve(pr)
                # the ring side is not planted: its harvest is the base's
                patch.setattr(syzygy, "schreyer_relations", lambda curve: rows)
                record = _s_vectors_record(curve)
            assert record == _all_pairs_s_vectors(curve), triple
            failed += not record[0]
        # the one member of (8,3,2) has no pair to break
        assert failed or not base.module_reducer.pairs(), triple


def test_harvested_relations_reduce(p713):
    elems = syzygy_members(syzygy_basis(p713))
    rows = list(schreyer_relations(C713))
    assert len(rows) == 15
    assert [(i, j) for i, j, *_ in rows] == [(i, j) for j in range(6) for i in range(j)]
    for _, _, r, rel in rows:
        assert not r
        assert not relation_image(C713, rel)
        r, _ = normal_form(rel, Reducer(MORDER, elems))
        assert not r
    again = schreyer_relations(C713)
    assert [(i, j, r) for i, j, r, _ in again] == [(i, j, r) for i, j, r, _ in rows]


def test_a_harvested_element_that_is_no_relation_is_the_witness(monkeypatch, p713):
    # Psi(0) added to the third harvested element: its S-polynomial still
    # reduces to zero, but the element no longer evaluates to zero
    harvest = syzygy.schreyer_relations

    def planted(curve):
        rows = list(harvest(curve))
        i, j, r, rel = rows[2]
        rows[2] = (i, j, r, rel + module_term(4, (0, 0, 0, 0), Psi(0)))
        return rows

    monkeypatch.setattr(syzygy, "schreyer_relations", planted)
    monkeypatch.setattr(syzygy, "_certified", lambda table, expected: False)
    curve = Curve(p713)
    assert not curve.ring_certified
    report = verify_syzygy_basis(curve)
    assert _record(report, "s-vectors-reduce") == (True, "9 same-symbol pairs", None)
    assert _record(report, "harvested-relations-reduce") == (
        False, "3 harvested relations",
        {"pair": ["Phi(1,2)", "Phi(2,2)"], "problem": "harvested element is not a relation"})


def test_schreyer_vectors_are_syzygies(p713):
    rows = list(schreyer_relations(C713))
    n = len(C713.images)
    assert [(i, j) for i, j, _, _ in rows] == [(i, j) for j in range(n) for i in range(j)]
    assert C713.ring_reducer.pairs() == sorted((i, j) for i, j, _, _ in rows)
    for _, _, r, rel in rows:
        assert not r
        assert relation_image(C713, rel) == r


def test_schreyer_vectors_carry_the_remainder_of_a_non_groebner_basis(monkeypatch, p713):
    # X1^2 - 2*X2*X0 in place of phi(1,1) is not in the curve ideal: every pair
    # is still divided, and each relation evaluates to its remainder
    def planted(params):
        gset = groebner_generators(params)
        bad = Poly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 1): -2})
        return dataclasses.replace(gset, phis={**gset.phis, (1, 1): bad})

    monkeypatch.setattr(syzygy, "groebner_generators", planted)
    curve = Curve(p713)
    order, basis = curve.order, list(curve.images.values())
    rows = list(schreyer_relations(curve))
    assert len(rows) == len(basis) * (len(basis) - 1) // 2
    assert any(r for _, _, r, _ in rows)
    for i, j, r, rel in rows:
        assert relation_image(curve, rel) == r
        assert r == normal_form(s_polynomial(order, basis[i], basis[j]), Reducer(order, basis))[0]


def test_deleting_an_element_breaks_completeness(p713):
    # dropping L(1;2,2) leaves some harvested relation stuck
    kept = Reducer(MORDER, [g for lab, g in syzygy_basis(p713).labeled() if lab != "L(1;2,2)"])
    stuck = 0
    for *_, rel in schreyer_relations(C713):
        r, _ = normal_form(rel, kept)
        if r:
            stuck += 1
    assert stuck > 0


def _record(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check.passed, check.detail, check.witness


def _all_pairs_spoly_record(curve, rows):
    # reference: the s-polynomials-reduce record as the i-major scan over
    # the harvest of every ring pair made it
    labels = [lab for lab, _ in curve.gset.labeled()]
    for count, (i, j, r, _) in enumerate(sorted(rows, key=lambda row: row[:2]), 1):
        if r:
            witness = {"pair": [labels[i], labels[j]], "remainder": poly_to_json(curve.order, r)}
            return False, f"{count} pairs", witness
    return True, f"{len(rows)} pairs", None


def _all_pairs_harvest_record(curve, rows):
    # reference: the harvested-relations-reduce record as the j-major scan
    # over the harvest of every ring pair made it
    symbols = list(curve.images)
    for count, (i, j, r, rel) in enumerate(rows, 1):
        pair = [str(symbols[i]), str(symbols[j])]
        if r:
            bad = {"pair": pair, "problem": "S-polynomial does not reduce to zero"}
        elif relation_image(curve, rel):
            bad = {"pair": pair, "problem": "harvested element is not a relation"}
        else:
            r, _ = normal_form(rel, curve.module_reducer)
            bad = r and {"pair": pair, "remainder": mod_elem_to_json(curve.morder, r)}
        if bad:
            return False, f"{count} harvested relations", bad
    return True, f"{len(rows)} harvested relations", None


RING_PLANTINGS = 4  # per triple, seeded by the triple


def _plant_a_ring_tail_term(curve, rng):
    # one closed-form binomial gains a term below its lead, coefficient -1, 1 or 2
    order, gset = curve.order, curve.gset
    family, k = rng.choice([("phis", k) for k in sorted(gset.phis)]
                           + [("psis", k) for k in sorted(gset.psis)])
    g = getattr(gset, family)[k]
    lead = order.key(order.leading_monomial(g))
    while True:
        mono = tuple(rng.randrange(3) for _ in range(curve.params.nvars))
        if order.key(mono) < lead:
            break
    tail = poly_term(curve.params.nvars, mono, rng.choice((-1, 1, 2)))
    return dataclasses.replace(gset, **{family: {**getattr(gset, family), k: g + tail}})


def test_ring_criterion_records_match_the_all_pairs_scans_on_planted_tails(monkeypatch):
    for triple in PLANTED_TRIPLES:
        pr = make_params(*triple)
        base = Curve(pr)
        rng, failed = random.Random(sum(triple)), 0
        for _ in range(RING_PLANTINGS):
            gset = _plant_a_ring_tail_term(base, rng)
            with monkeypatch.context() as patch:
                patch.setattr(syzygy, "groebner_generators", lambda params: gset)
                curve = Curve(pr)
            spoly = _record(generators.verify_groebner_generators(curve), "s-polynomials-reduce")
            harvest = _record(verify_syzygy_basis(curve), "harvested-relations-reduce")
            rows = list(schreyer_relations(curve))
            assert spoly == _all_pairs_spoly_record(curve, rows), triple
            assert harvest == _all_pairs_harvest_record(curve, rows), triple
            failed += not spoly[0]
        # the leads X1^2 and X2^4 of (8,3,2) are coprime: no tail breaks their pair
        assert failed == (0 if triple == (8, 3, 2) else RING_PLANTINGS), triple


def _buchberger_record(curve):
    # reference: the buchberger-lt-ideal record as the leads of the reduced
    # Groebner basis of the closed-form set make it
    order = curve.order
    polys = curve.gset.polynomials()
    actual = {order.leading_monomial(g) for g in polys}
    reduced = [order.leading_monomial(g) for g in buchberger(order, polys)]
    new = [m for m in reduced if not any(mono_divides(a, m) for a in actual)]
    lost = [m for m in actual if not any(mono_divides(r, m) for r in reduced)]
    ok = not new and not lost
    witness = None if ok else {"new": sorted(map(list, new)), "lost": sorted(map(list, lost))}
    return ok, f"{len(reduced)} elements in the reduced basis", witness


def _replace_phi11(g):
    # g in place of phi(1,1)
    def replaced(params):
        gset = groebner_generators(params)
        return dataclasses.replace(gset, phis={**gset.phis, (1, 1): g})
    return replaced


def _with_multiple_and_negation(params):
    # X1*phi(1,1) and -phi(1,1) after the closed-form set, among the psis
    # under keys past p - b, which sort last: the closure holds a lead that
    # another lead divides, and two equal leads
    gset = groebner_generators(params)
    phi, top = gset.phis[(1, 1)], params.p - params.b
    extra = {top + 1: poly_term(params.nvars, variable_monomial(params.p, 1)) * phi,
             top + 2: -phi}
    return dataclasses.replace(gset, psis={**gset.psis, **extra})


def _dropped(gset, n):
    # the closed-form set without its n-th element in label order
    keys = [("phis", k) for k in sorted(gset.phis)] + [("psis", k) for k in sorted(gset.psis)]
    family, key = keys[n]
    return dataclasses.replace(gset, **{family: {k: g for k, g in getattr(gset, family).items()
                                                 if k != key}})


def _with_a_ring_tail_term(params):
    return _plant_a_ring_tail_term(Curve(params), random.Random(params.m0 + params.d + params.p))


@pytest.mark.parametrize("triple, planted", [
    *[pytest.param(t, None, id="-".join(map(str, t)))
      for t in ((7, 1, 3), (8, 3, 2), (13, 2, 6), (17, 3, 8))],
    pytest.param((7, 1, 3), _replace_phi11(Poly(4, {(2, 0, 0, 0): 2, (0, 1, 0, 1): -1})),
                 id="half-lead"),
    # X1^2 - X3^5 leads with X3^5
    pytest.param((7, 1, 3), _replace_phi11(Poly(4, {(2, 0, 0, 0): 1, (0, 0, 5, 0): -1})),
                 id="wrong-lead"),
    pytest.param((7, 1, 3), _with_multiple_and_negation, id="multiple-and-negation"),
    # not weight-homogeneous
    *[pytest.param(t, _with_a_ring_tail_term, id="tail-" + "-".join(map(str, t)))
      for t in ((13, 2, 6), (9, 4, 2), (17, 3, 8))],
])
def test_lead_ideal_record_matches_the_reduced_basis(monkeypatch, triple, planted):
    pr = make_params(*triple)
    if planted is not None:
        gset = planted(pr)
        monkeypatch.setattr(syzygy, "groebner_generators", lambda params: gset)
    curve = Curve(pr)
    record = _record(generators.verify_groebner_generators(curve), "buchberger-lt-ideal")
    assert record == _buchberger_record(curve)


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2), (13, 2, 6)])
def test_the_closure_holds_every_lead_of_g_so_none_is_lost(monkeypatch, triple):
    # buchberger-lt-ideal scans only for new leads: the closure it reads
    # when the certificate fails holds every lead of G, on the half-lead
    # plant and with each generator dropped, and its witness, if any,
    # loses no lead
    pr = make_params(*triple)
    base = Curve(pr)
    x2x0 = mono_mul(variable_monomial(pr.p, 2), variable_monomial(pr.p, 0))
    half = Poly(pr.nvars, {variable_monomial(pr.p, 1, 2): 2, x2x0: -1})
    plants = [_replace_phi11(half)]
    plants += [lambda params, k=k: _dropped(base.gset, k) for k in range(len(base.gset))]
    curves = []
    for planted in plants:
        with monkeypatch.context() as patch:
            patch.setattr(syzygy, "groebner_generators", planted)
            curves.append(Curve(pr))
    for n, curve in enumerate(curves):
        assert not curve.ring_certified, (triple, n)
        leads = set(curve.closure()[0].close().lead_monomials())
        assert set(curve.ring_reducer.lead_monomials()) <= leads, (triple, n)
        passed, _, witness = _record(generators.verify_groebner_generators(curve),
                                     "buchberger-lt-ideal")
        assert passed or witness["lost"] == [], (triple, n)


def _closure_record(curve):
    # reference: the closed-form-set-reduces record as the classical set's
    # closure, truncated at the heaviest closed-form weight, makes it
    order = curve.order
    top = max(order.weight(order.leading_monomial(g)) for g in curve.gset.polynomials())
    table = Closure(order, curve.patil.polynomials()).close(top)
    for lab, g in curve.gset.labeled():
        r, _ = normal_form(g, table)
        if r:
            return False, "", {"element": lab, "remainder": poly_to_json(order, r)}
    return True, "", None


def test_certified_records_match_the_closure_records(monkeypatch):
    # on each of the 206 triples the ring certificate holds and the
    # closed-form set divides to zero by the classical set, so no closure
    # is built, and the two records they decide are those that the
    # reduced basis of the closed-form set and the classical set's
    # truncated closure make
    built = []
    closure_init = Closure.__init__

    def count_closure(self, order, gens=()):
        built.append(order)
        closure_init(self, order, gens)

    assert len(SWEEP6) == 206
    for pr in SWEEP6:
        curve = Curve(pr)
        with monkeypatch.context() as patch:
            patch.setattr(Closure, "__init__", count_closure)
            lead_ideal = _record(generators.verify_groebner_generators(curve), "buchberger-lt-ideal")
            closed_form = _record(generators.verify_ideal_equality(curve), "closed-form-set-reduces")
        assert not built, pr
        assert curve.ring_certified
        assert lead_ideal == _buchberger_record(curve), pr
        assert closed_form == _closure_record(curve), pr


@pytest.mark.parametrize("triple, shortcuts", [
    ((7, 1, 3), 4), ((13, 2, 6), 7), ((9, 4, 2), 2), ((11, 2, 5), 6), ((17, 3, 8), 9),
])
def test_harvest_record_matches_the_all_pairs_scan_with_each_member_dropped(monkeypatch, triple,
                                                                           shortcuts):
    # no member can go: every drop leaves some harvested relation stuck,
    # although the S-vectors of what is left still reduce in the pinned
    # number of drops
    base = Curve(make_params(*triple))
    rows, keyed = list(schreyer_relations(base)), list(base.sset.keyed())
    monkeypatch.setattr(syzygy, "schreyer_relations", lambda curve: rows)
    assert base.ring_certified
    passed = 0
    for k in range(len(keyed)):
        planted = keyed[:k] + keyed[k + 1:]
        label = base.sset.label(keyed[k][0])
        # the basis lists every member but the k-th; the harvest is the base's
        with monkeypatch.context() as patch:
            patch.setattr(syzygy, "syzygy_basis",
                          lambda params: planted_syzygies(params, planted))
            curve = Curve(base.params)
        report = verify_syzygy_basis(curve)
        harvest = _record(report, "harvested-relations-reduce")
        assert harvest == _all_pairs_harvest_record(curve, rows), label
        assert not harvest[0], label
        passed += _record(report, "s-vectors-reduce")[0]
    assert passed == shortcuts


def test_both_identities_hold_where_the_all_pairs_scans_pass():
    # an identity must never pass what a scan would fail: on each triple both
    # hold, and every ring S-polynomial, module S-vector and harvested
    # relation divides to zero
    for pr in SWEEP5 + [make_params(17, 3, 8)]:
        curve = Curve(pr)
        assert curve.ring_certified and syzygy._module_identity(curve), pr
        rows = list(schreyer_relations(curve))
        assert _all_pairs_spoly_record(curve, rows)[0], pr
        assert _all_pairs_harvest_record(curve, rows)[0], pr
        assert _all_pairs_s_vectors(curve)[0], pr


@pytest.mark.parametrize("triple", PLANTED_TRIPLES)
def test_each_dropped_generator_fails_the_ring_identity(monkeypatch, triple):
    base = Curve(make_params(*triple))
    for k in range(len(base.images)):
        with monkeypatch.context() as patch:
            patch.setattr(syzygy, "groebner_generators", lambda params: _dropped(base.gset, k))
            curve = Curve(base.params)
        assert len(curve.images) == len(base.images) - 1
        assert not curve.ring_certified, (triple, k)


def _without_member(monkeypatch, base, k):
    # a Curve of base's triple whose syzygy basis lists every member but the
    # k-th, planted through the builder
    keyed = list(base.sset.keyed())
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "syzygy_basis",
                      lambda params: planted_syzygies(params, keyed[:k] + keyed[k + 1:]))
        curve = Curve(base.params)
    assert len(curve.module_reducer.basis) == len(keyed) - 1
    return curve


@pytest.mark.parametrize("triple", PLANTED_TRIPLES)
def test_sampled_dropped_syzygies_fail_the_module_identity(monkeypatch, triple):
    base = Curve(make_params(*triple))
    assert base.ring_certified
    rng = random.Random(sum(triple))
    for k in rng.sample(range(len(base.sset)), min(len(base.sset), 20)):
        curve = _without_member(monkeypatch, base, k)
        assert not syzygy._module_identity(curve), (triple, k)


@pytest.mark.parametrize("triple", [(17, 3, 8), (41, 2, 12), (71, 2, 24)])
def test_module_identity_matches_the_per_symbol_reference(monkeypatch, triple):
    # one K per distinct lead set gives the verdict of one K per symbol, on
    # the basis and with a sampled member dropped
    base = Curve(make_params(*triple))
    assert syzygy._module_identity(base) and module_identity_by_symbol(base)
    for k in random.Random(sum(triple)).sample(range(len(base.sset)), 2):
        curve = _without_member(monkeypatch, base, k)
        assert not syzygy._module_identity(curve), (triple, k)
        assert not module_identity_by_symbol(curve), (triple, k)


def test_the_module_closed_form_is_the_per_symbol_sum_of_the_predicted_leads():
    # the Horner sum of the module identity, less the N it folds in, equals
    # one numerator_all_pairs per symbol over the predicted lead sets, and
    # it is 1 - N
    assert len(GRID8) == 361
    for pr in GRID8:
        curve = Curve(pr)
        predicted = {}
        for _, (mono, sym) in syzygy._expected_leads(pr):
            predicted.setdefault(sym, []).append(mono)
        form = _add_shifted(syzygy._shape_module_sum(curve), apery_numerator(pr), sign=-1)
        assert form == module_sum_by_symbol(curve, lambda sym: predicted.get(sym, [])), pr
        assert form == _add_shifted({0: 1}, apery_numerator(pr), sign=-1), pr


def _count_bigatti(monkeypatch):
    # every lead set that reaches Bigatti's recursion, from either identity
    calls, numerator = [], hilbert_numerator

    def counted(weights, monos):
        calls.append(monos)
        return numerator(weights, monos)

    monkeypatch.setattr(generators, "hilbert_numerator", counted)
    monkeypatch.setattr(syzygy, "hilbert_numerator", counted)
    return calls


def test_only_leads_off_the_prediction_reach_bigattis_recursion(monkeypatch, capsys):
    calls = _count_bigatti(monkeypatch)
    pr = make_params(17, 3, 8)
    assert main(["verify", "--m0", "17", "--d", "3", "--p", "8"]) == 0
    assert calls == []
    # the half lead keeps every lead, and lies outside the ideal: the ring
    # identity is never asked, and members-are-relations fails before the
    # module identity is
    x2x0 = mono_mul(variable_monomial(6, 2), variable_monomial(6, 0))
    half = Poly(7, {variable_monomial(6, 1, 2): 2, x2x0: -1})
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "groebner_generators", _replace_phi11(half))
        assert main(["verify", "--m0", "13", "--d", "2", "--p", "6"]) == 1
    assert calls == []
    capsys.readouterr()
    # leads off the prediction on a Groebner basis: a multiple and a
    # negation of phi(1,1) after G, and two members' keys swapped, still
    # certify, by the recursion
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "groebner_generators", _with_multiple_and_negation)
        curve = Curve(pr)
    assert set(curve.ring_reducer.lead_monomials()) != expected_leading_monomials(pr)
    assert curve.ring_certified
    assert len(calls) == 1
    keyed = list(syzygy_basis(pr).keyed())
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "syzygy_basis",
                      lambda params: planted_syzygies(params, _swap(keyed, 0, len(keyed) // 2)))
        curve = Curve(pr)
    assert not curve.module_shape and syzygy._module_identity(curve)
    assert len(calls) > 1


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6)])
def test_a_lead_that_no_key_names_fails_the_module_shape(monkeypatch, triple):
    # one member planted past the keyed basis, under A(0;b,0), a key with no
    # prediction: X0*Psi(0) enlarges the lead module, so the identity, by
    # the recursion, fails; the report names the member by its label and
    # lists its lead with no expected term
    pr = make_params(*triple)
    base = Curve(pr)
    assert base.module_shape
    lead = (variable_monomial(pr.p, 0), Psi(0))
    keyed = list(base.sset.keyed()) + [(("A", (0, 0)), module_term(pr.nvars, *lead))]
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, keyed))
    curve = Curve(pr)
    # the planted key is new, so the keys stay distinct and the map
    # comparison alone fails the shape
    assert len(set(curve.keys)) == len(curve.keys) == len(base.keys) + 1
    assert not curve.module_shape and not syzygy._module_identity(curve)
    n, label = len(base.sset), f"A(0;{pr.b},0)"
    checks = {c.name: c for c in verify_syzygy_basis(curve).checks}
    assert checks["members-are-relations"].witness["element"] == label
    assert checks["members-are-relations"].detail == f"{n + 1} members"
    assert checks["leading-term-shape"].witness == {"mismatches": [
        {"element": label, "computed": term_to_json(lead), "expected": None}]}
    assert not checks["s-vectors-reduce"].passed


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2)])
def test_the_half_lead_plant_fails_the_ring_hypothesis(monkeypatch, triple):
    # 2*X1^2 - X2*X0 keeps every lead, so K(LT(G)) = N still holds; only the
    # hypothesis that G lies in the curve ideal rejects it, and the record
    # is then the all-pairs scan's: a failure at (7,1,3), while the two
    # coprime leads of (8,3,2) leave their one pair nothing to fail on
    pr = make_params(*triple)
    gset = groebner_generators(pr)
    x2x0 = mono_mul(variable_monomial(pr.p, 2), variable_monomial(pr.p, 0))
    half = Poly(pr.nvars, {variable_monomial(pr.p, 1, 2): 2, x2x0: -1})
    planted = dataclasses.replace(gset, phis={**gset.phis, (1, 1): half})
    monkeypatch.setattr(syzygy, "groebner_generators", lambda params: planted)
    curve = Curve(pr)
    leads = curve.ring_reducer.lead_monomials()
    assert hilbert_numerator(pr.exponent_weights, leads) == apery_numerator(pr)
    assert not curve.ring_certified
    spoly = _record(generators.verify_groebner_generators(curve), "s-polynomials-reduce")
    assert spoly == _all_pairs_spoly_record(curve, list(schreyer_relations(curve)))
    assert spoly[0] == (triple == (8, 3, 2))


def test_verify_syzygy_basis(p713, p832, p613):
    for pr in (p713, p832, p613):
        report = verify_syzygy_basis(Curve(pr))
        assert report.passed, [c.name for c in report.checks if not c.passed]


def _shape_record(report):
    return [rec for rec in report.to_records() if rec["check"] == "leading-term-shape"]


def _swap(keyed, i, j):
    planted = list(keyed)
    planted[i], planted[j] = (keyed[i][0], keyed[j][1]), (keyed[j][0], keyed[i][1])
    return planted


SHAPE_PLANTS = {
    "dropped-member": lambda keyed: keyed[:1] + keyed[2:],
    "extra-label": lambda keyed: keyed + [("planted", keyed[0][1])],
    "repeated-label": lambda keyed: keyed + [keyed[-1]],
    "swapped-leads": lambda keyed: _swap(keyed, 0, len(keyed) // 2),
    "repeated-lead": lambda keyed: keyed[:-1] + [(keyed[-1][0], keyed[0][1])],
}


def test_the_lead_shape_map_comparison_matches_the_three_tests_on_the_sweep():
    for pr in SWEEP5:
        curve = Curve(pr)
        record = _shape_record(verify_syzygy_basis(curve))
        assert record == _shape_record(leading_term_shape_three_tests(curve)), pr
        assert record[0]["status"] == "pass"


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 4, 2)])
@pytest.mark.parametrize("plant", sorted(SHAPE_PLANTS))
def test_the_lead_shape_map_comparison_matches_the_three_tests_on_plants(monkeypatch, triple,
                                                                       plant):
    # each plant fails the shape; a dropped member and a repeated label
    # leave no label mismatching its prediction, so the witness lists none
    planted = SHAPE_PLANTS[plant](list(syzygy_basis(make_params(*triple)).keyed()))
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, planted))
    curve = Curve(make_params(*triple))
    (record,) = _shape_record(verify_syzygy_basis(curve))
    assert [record] == _shape_record(leading_term_shape_three_tests(curve))
    assert record["status"] == "fail"
    assert (record["witness"] == {"mismatches": []}) == (plant in ("dropped-member",
                                                                   "repeated-label"))


# past SWEEP5: p = 12 with b = 1 and b = p (no A), p = 16 with b = 1 and 5
CLOSED_FORM_PARAMS = SWEEP5 + [make_params(*t) for t in ((25, 2, 12), (24, 1, 12),
                                                         (33, 2, 16), (37, 3, 16))]


def test_the_closed_forms_match_the_scans_of_a_walked_basis():
    # what a passing Curve takes in closed form, against the scans of the
    # module Reducer that a second walk builds: the members per family,
    # the same-symbol pairs, and the excluded-forms detail at bounds 2-4
    for pr in CLOSED_FORM_PARAMS:
        curve = Curve(pr)
        assert curve.module_shape, pr
        table = curve.module_reducer
        assert syzygy._shape_counts(pr) == syzygy._counts(curve.keys) == curve.counts, pr
        assert syzygy._shape_pair_count(pr) == table.pair_count(), pr
        for bound in (2, 3, 4):
            count = sum((bound + 1) ** high.count(inf) for *_, high in excluded_boxes(pr))
            (check,) = verify_excluded_leading_forms(curve, bound).checks
            assert check.detail == f"{count} family members with exponents <= {bound}", pr
        assert excluded_form_every_box(curve) is None, pr


def test_a_passing_verify_reports_the_closed_forms_and_keeps_no_member_table():
    # the details of a passing verify are those of the scans, and the Curve
    # keeps no container with an entry per member
    pr = make_params(17, 3, 8)
    curve, walked = Curve(pr), Curve(pr)
    n = len(walked.keys)
    reports = verification_bundle(curve, 2, 1000, 0)
    assert all(r.passed for r in reports)
    details = {c.name: c.detail for r in reports for c in r.checks}
    assert details["members-are-relations"] == f"{n} members" == "196 members"
    assert details["s-vectors-reduce"] == f"{walked.module_reducer.pair_count()} same-symbol pairs"
    assert details["module-leading-terms-incomparable"] == f"{n * (n - 1)} ordered pairs"
    assert curve._keys is None and curve._module_reducer is None
    held = [name for name in Curve.__slots__ if isinstance(getattr(curve, name), (list, dict, set))
            and len(getattr(curve, name)) >= n]
    assert held == []


SHAPE_GOLDEN = Path(__file__).parent / "golden" / "shape-plants.json"


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 4, 2)])
@pytest.mark.parametrize("plant", sorted(SHAPE_PLANTS))
def test_each_shape_plant_takes_the_scans_with_its_golden_records(monkeypatch, triple, plant):
    # a failing shape reads no closed form: the records of the syzygy and
    # excluded-forms reports are those of the scans over the walked leads
    # alone, kept in the golden file
    pr = make_params(*triple)
    planted = SHAPE_PLANTS[plant](list(syzygy_basis(pr).keyed()))
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, planted))
    curve = Curve(pr)
    assert not curve.module_shape and curve._module_reducer is None
    records = (verify_syzygy_basis(curve).to_records()
               + verify_excluded_leading_forms(curve, 3).to_records())
    assert curve.module_reducer.basis == [g for _, g in planted]
    golden = json.loads(SHAPE_GOLDEN.read_text(encoding="utf-8"))
    assert records == golden["%d-%d-%d %s" % (*triple, plant)]


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6)])
def test_the_walk_reads_every_member_past_the_first_shape_difference(monkeypatch, triple):
    # the first two members swapped fail the shape at the first member: the
    # last member, not a relation, is still read and named, and a zero
    # member in its place still raises
    pr = make_params(*triple)
    keyed = _swap(list(syzygy_basis(pr).keyed()), 0, 1)
    last = keyed[-1][0]
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, keyed))
    keyed[-1] = (last, _flip_first(keyed[-1][1]))
    curve = Curve(pr)
    assert not curve.module_shape and curve.non_relation[0] == last
    passed, _, witness = _record(verify_syzygy_basis(curve), "members-are-relations")
    assert not passed and witness["element"] == curve.sset.label(last)
    keyed[-1] = (last, ModElement.zero(pr.nvars))
    with pytest.raises(ZeroPolynomialError, match="the zero element has no leading term"):
        Curve(pr)


def _psi_past_the_top(monkeypatch, params):
    # psi(b, p-b+1), a copy of psi(b, p-b), planted in G
    def planted(params):
        gset, top = groebner_generators(params), params.p - params.b
        return dataclasses.replace(gset, psis={**gset.psis, top + 1: gset.psis[top]})

    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "groebner_generators", planted)
        return Curve(params)


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 4, 2)])
def test_a_psi_past_p_minus_b_leads_no_member_and_fails_the_module_identity(monkeypatch,
                                                                            triple):
    # its symbol is stamped as Psi(p-b) is and carries no member's lead, so
    # the closed-form sum gives it K = 1, as the per-symbol sum does, and
    # the identity fails; its images are packed, so the harvest evaluates
    pr = make_params(*triple)
    top = pr.p - pr.b
    curve = _psi_past_the_top(monkeypatch, pr)
    assert syzygy._stamp(pr, Psi(top + 1)) == syzygy._stamp(pr, Psi(top))
    assert curve.module_shape and curve.module_reducer.lead_monomials(Psi(top + 1)) == []
    form = _add_shifted(syzygy._shape_module_sum(curve), apery_numerator(pr), sign=-1)
    assert form == module_sum_by_symbol(curve, curve.module_reducer.lead_monomials)
    assert not syzygy._module_identity(curve) and not module_identity_by_symbol(curve)
    passed, _, witness = _record(verify_syzygy_basis(curve), "harvested-relations-reduce")
    assert not passed and witness["pair"][1] == f"Psi({top + 1})"


def _plant_symbol(gset, sym):
    # a copy of psi(b, p-b) or of phi(1, 1) planted in G on sym
    if isinstance(sym, Psi):
        top = gset.params.p - gset.params.b
        return dataclasses.replace(gset, psis={**gset.psis, sym.j: gset.psis[top]})
    return dataclasses.replace(gset, phis={**gset.phis, tuple(sym): gset.phis[1, 1]})


# symbols outside the ranges of syzygy._table, which no member carries
SYMBOL_PLANTS = {"psi-past-p-minus-b": lambda p, b: Psi(p - b + 1),
                 "phi-1-p": lambda p, b: Phi(1, p),
                 "phi-1-past-p": lambda p, b: Phi(1, p + 1),
                 "phi-0-1": lambda p, b: Phi(0, 1)}


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 4, 2)])
@pytest.mark.parametrize("plant", sorted(SYMBOL_PLANTS))
def test_the_closed_module_sum_gives_a_symbol_that_leads_no_member_k_1(monkeypatch, triple,
                                                                       plant):
    # the closed-form sum is Bigatti's on the leads the members carry, plus
    # N: a planted symbol leads no member, so its K is 1, whatever its
    # indices, and the identity fails
    pr = make_params(*triple)
    sym = SYMBOL_PLANTS[plant](pr.p, pr.b)
    monkeypatch.setattr(syzygy, "groebner_generators",
                        lambda params: _plant_symbol(groebner_generators(params), sym))
    curve = Curve(pr)
    leads = curve.module_reducer.lead_monomials
    assert curve.module_shape and sym in curve.images and leads(sym) == []
    bigatti = {}
    for s, image in curve.images.items():
        _add_shifted(bigatti, hilbert_numerator(pr.exponent_weights, leads(s)),
                     pr.weight(next(iter(image.terms))))
    assert bigatti == module_sum_by_symbol(curve, leads)
    assert syzygy._shape_module_sum(curve) == _add_shifted(bigatti, apery_numerator(pr))
    assert not syzygy._module_identity(curve) and not module_identity_by_symbol(curve)


def _fraction_coefficients(keyed):
    # every other member scaled by a Fraction: its terms and leads stay
    return [(key, g.scaled(Fraction(k + 2, 2))) for k, (key, g) in enumerate(keyed)]


def _rebuilt(keyed):
    # each member built outside the families, term by term through the
    # validating constructor, with monomials of its own
    return [(key, ModElement(g.nvars, {(tuple(list(m)), sym): c
                                       for (m, sym), c in g.terms.items()}))
            for key, g in keyed]


LEAD_PLANTS = {**SHAPE_PLANTS, "fraction-coefficients": _fraction_coefficients,
               "rebuilt": _rebuilt}


def _leads_are_leading_terms(curve):
    # the one-pass leads of both Reducers, against each element's own lead
    for table in (curve.ring_reducer, curve.module_reducer):
        assert table.leads == [table.order.leading_term(g) for g in table.basis]


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8), (41, 2, 12),
                                     (1000003, 999999, 3)])
def test_the_one_pass_leads_are_the_leading_terms(triple):
    pr = make_params(*triple)
    curve = Curve(pr)
    assert curve.ring_certified and curve.module_shape
    _leads_are_leading_terms(curve)
    # the prediction walks the keys in label order
    assert [key for key, _ in syzygy._expected_leads(pr)] == curve.keys


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 4, 2)])
@pytest.mark.parametrize("plant", sorted(LEAD_PLANTS))
def test_the_one_pass_leads_are_the_leading_terms_on_plants(monkeypatch, triple, plant):
    pr = make_params(*triple)
    planted = LEAD_PLANTS[plant](list(syzygy_basis(pr).keyed()))
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, planted))
    curve = Curve(pr)
    _leads_are_leading_terms(curve)
    assert curve.module_shape == (plant in ("fraction-coefficients", "rebuilt"))
    if plant == "fraction-coefficients":
        assert {type(lc) for _, lc in curve.module_reducer.leads} == {int, Fraction}


def test_the_one_pass_ring_leads_are_the_leading_terms_on_the_half_lead_plant(monkeypatch):
    for triple in HALF_LEAD_TRIPLES:
        curve = _half_lead_curve(monkeypatch, make_params(*triple))
        assert 2 in [lc for _, lc in curve.ring_reducer.leads]
        _leads_are_leading_terms(curve)


def test_a_curve_keys_each_basis_in_one_pass(monkeypatch):
    # no leading_term per element, and the packing fills the key part of
    # each symbol it meets, as leading_term does: G and the syzygy basis
    # take their leads from the Curve's one packing, the basis in the walk
    # that reads each member once.  On a failing shape, the module Reducer
    # takes its leads from that packing too, and no second one is built
    calls, packings, init = [], [], syzygy._Packing.__init__
    for order in (WeightOrder, ModuleOrder):
        monkeypatch.setattr(order, "leading_term", lambda self, g: calls.append(g))
    monkeypatch.setattr(syzygy._Packing, "__init__",
                        lambda self, *args: packings.append(self) or init(self, *args))
    curve = Curve(make_params(17, 3, 8))
    assert calls == [] and packings == [curve.packing]
    assert set(curve.morder._symbols) == set(curve.images)
    pr = make_params(13, 2, 6)
    for plant in sorted(SHAPE_PLANTS):
        planted = SHAPE_PLANTS[plant](list(syzygy_basis(pr).keyed()))
        monkeypatch.setattr(syzygy, "syzygy_basis",
                            lambda params: planted_syzygies(params, planted))
        packings.clear()
        curve = Curve(pr)
        assert not curve.module_shape
        assert len(curve.module_reducer.leads) == len(planted)
        assert calls == [] and packings == [curve.packing], plant


def test_a_curve_builds_its_table_once(monkeypatch):
    # the packing and every walk of the syzygy basis share one table: the
    # Curve's walk, the module Reducer's second walk, and any later one
    calls, table = [], syzygy._table
    monkeypatch.setattr(syzygy, "_table", lambda params: calls.append(params) or table(params))
    pr = make_params(17, 3, 8)
    curve = Curve(pr)
    curve.module_reducer
    assert len(curve.sset) == len(curve.keys)
    assert calls == [pr]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_the_packed_module_keys_sort_as_the_module_key(data):
    # every pair of terms drawn, as a two-term element in both orders, and
    # each term alone: a packing of the symbols, with no images, reads the
    # lead that key() picks, with exponents next to the top bit of the
    # field width it chooses as it packs each element's monomials.  The
    # terms m * stamp(u) * s and m * stamp(s) * u share their projection,
    # so the symbols' tie-break decides between them
    params = data.draw(st.sampled_from(KEY_PARAMS))
    _, psi, phi = syzygy._table(params)
    bits = data.draw(st.integers(1, 24))
    exponent = st.integers(0, 2) | st.integers(max(0, 2 ** bits - 3), 2 ** bits - 1)
    monos = data.draw(st.lists(st.tuples(*[exponent] * params.nvars), min_size=1, max_size=2))
    syms = data.draw(st.lists(st.sampled_from(psi + sorted(set(phi.values()))), min_size=1,
                              max_size=3, unique=True))
    terms = {(mono_mul(m, syzygy._stamp(params, u)), s) for m in monos for s in syms for u in syms}
    elems = [ModElement(params.nvars, {s: 1, t: -1}) for s in terms for t in terms]
    morder = ModuleOrder(params)
    pack = syzygy._Packing(morder, syms, {}, ())
    assert ([pack.read(g)[0][0] for g in elems]
            == [max(g.terms, key=morder.key) for g in elems])


def _module_leads_double_loop(curve):
    # the reference: every ordered pair of distinct leads, outer loop first,
    # until one lead divides another on the same symbol
    leads = [(lab, curve.morder.leading_term(g)[0]) for lab, g in curve.sset.labeled()]
    checked, offender = 0, None
    for la, (ma, sa) in leads:
        for lb, (mb, sb) in leads:
            if la == lb:
                continue
            checked += 1
            if sa == sb and mono_divides(ma, mb):
                offender = {"divisor": la, "multiple": lb}
                break
        if offender:
            break
    return offender is None, f"{checked} ordered pairs", offender


def _module_leads_record(curve):
    (check,) = [c for c in verify_syzygy_basis(curve).checks
                if c.name == "module-leading-terms-incomparable"]
    return check.passed, check.detail, check.witness


def test_module_lead_check_matches_the_double_loop():
    for pr in SWEEP5[::3] + [make_params(17, 3, 8)]:
        curve = Curve(pr)
        n = len(curve.sset)
        assert _module_leads_record(curve) == _module_leads_double_loop(curve) == (
            True, f"{n * (n - 1)} ordered pairs", None), pr


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (17, 3, 8)])
@pytest.mark.parametrize("before", [False, True])
@pytest.mark.parametrize("plant", ["copy", "unit", "multiple", "lone"])
def test_module_lead_check_finds_a_planted_dividing_lead(monkeypatch, triple, before, plant):
    pr = make_params(*triple)
    base = syzygy_basis(pr)
    nv, p = pr.nvars, pr.p
    x1x2 = mono_mul(variable_monomial(p, 1), variable_monomial(p, 2))
    planted = {
        "copy": base.labeled()[len(base) // 2][1],  # the same lead twice
        "unit": module_term(nv, (0,) * nv, Psi(0)),  # divides every lead on Psi(0)
        "multiple": module_term(nv, x1x2, Psi(0)),  # a multiple of the lead of A(1;b,0)
        "lone": module_term(nv, (0,) * nv, Phi(1, 1)),  # no other lead on Phi(1,1)
    }[plant]

    extra = [("planted", planted)]
    keyed = extra + list(base.keyed()) if before else list(base.keyed()) + extra
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, keyed))
    curve = Curve(pr)
    record = _module_leads_record(curve)
    assert record == _module_leads_double_loop(curve)
    assert record[0] == (plant == "lone")


def test_verify_excluded_leading_forms(p713):
    report = verify_excluded_leading_forms(C713, 5)
    assert report.passed
    with pytest.raises(ValueError):
        verify_excluded_leading_forms(C713, 0)


def _excluded_family_members(pr, bound):
    # brute-force reference: every member of every excluded family, walked
    # through its exponent box one tuple at a time
    p, b = pr.p, pr.b
    top = Psi(p - b)
    out = []
    for k in range(bound + 1):
        x0k = variable_monomial(p, 0, k)
        out += [("pure-X0", x0k, Psi(j)) for j in range(0, p - b + 1)]
        for i in range(1, p + 1):
            xi = variable_monomial(p, i)
            out.append(("X0-power-times-variable", mono_mul(x0k, xi), top))
            out.append(("Xp-power-times-variable", mono_mul(variable_monomial(p, p, k), xi), top))
    for i in range(1, p):
        for j in range(i, p):
            free = [variable_position(p, v) for v in [*range(j, p + 1), 0]]
            for exps in itertools.product(range(bound + 1), repeat=len(free)):
                mono = [0] * pr.nvars
                for pos, e in zip(free, exps):
                    mono[pos] = e
                out.append(("low-index-free-Phi", tuple(mono), Phi(i, j)))
    return out


def _lead_table(pr, elements):
    morder = ModuleOrder(pr)
    leads = {}
    for g in elements:
        (m, s), _ = morder.leading_term(g)
        leads.setdefault(s, []).append(m)
    return leads


def _in_lead_module(leads, mono, sym):
    return any(mono_divides(m, mono) for m in leads.get(sym, ()))


EXCLUDED_SWEEP = [pr for pr in SWEEP5 if pr.a <= 2 and pr.d == 1]


def test_excluded_forms_agree_with_box_walk():
    for pr in EXCLUDED_SWEEP:
        curve = Curve(pr)
        leads = _lead_table(pr, syzygy_members(curve.sset))
        for bound in (2, 3, 4):
            members = _excluded_family_members(pr, bound)
            assert not any(_in_lead_module(leads, m, s) for _, m, s in members)
            (check,) = verify_excluded_leading_forms(curve, bound).checks
            assert check.passed, (pr, bound, check.witness)
            assert check.detail == f"{len(members)} family members with exponents <= {bound}"


@pytest.mark.parametrize(
    "mono, sym",
    [
        (_x(0, 2), Psi(0)),  # X0^2*Psi(0): pure-X0
        (mono_mul(_x(1), _x(0, 2)), Psi(2)),  # X1*X0^2*Psi(2): X0 power times X1
        (mono_mul(_x(2), _x(3, 2)), Psi(2)),  # X2*X3^2*Psi(2): X3 power times X2
        (mono_mul(_x(3), _x(0, 2)), Phi(2, 2)),  # X3*X0^2*Phi(2,2): no X1 factor
    ],
)
def test_excluded_forms_catch_a_planted_lead(monkeypatch, mono, sym):
    pr = P713
    keyed = list(syzygy_basis(pr).keyed()) + [("planted", module_term(pr.nvars, mono, sym))]
    elements = [g for _, g in keyed]
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, keyed))
    leads = _lead_table(pr, elements)
    members = _excluded_family_members(pr, 3)
    walked = [(f, m, s) for f, m, s in members if _in_lead_module(leads, m, s)]
    assert walked

    (check,) = verify_excluded_leading_forms(Curve(pr), 3).checks
    assert not check.passed
    assert check.detail == f"{len(members)} family members with exponents <= 3"
    # the witness is a family member that a lead of its symbol divides: the
    # smallest one in its box, which for these plants is the planted term
    assert check.witness in [{"family": f, "term": term_to_json((m, s))} for f, m, s in walked]
    assert check.witness["term"] == term_to_json((mono, sym))


@pytest.mark.parametrize(
    "mono, sym, family, witness",
    [
        (_x(0, 4), Psi(0), "pure-X0", _x(0, 4)),
        (_x(3, 5), Psi(2), "Xp-power-times-variable", mono_mul(_x(1), _x(3, 5))),
        (mono_mul(_x(2), _x(0, 4)), Phi(1, 2), "low-index-free-Phi", mono_mul(_x(2), _x(0, 4))),
    ],
)
def test_excluded_forms_catch_a_lead_past_the_box(monkeypatch, mono, sym, family, witness):
    # each planted lead divides family members only past the box of bound
    # 3, where the walk finds none; the witness is the least member that it
    # divides, mono_lcm(lead, low): X3^5*Psi(2) first divides X1*X3^5*Psi(2)
    pr = P713
    keyed = list(syzygy_basis(pr).keyed()) + [("planted", module_term(pr.nvars, mono, sym))]
    elements = [g for _, g in keyed]
    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: planted_syzygies(params, keyed))
    leads = _lead_table(pr, elements)
    members = _excluded_family_members(pr, 3)
    assert not any(_in_lead_module(leads, m, s) for _, m, s in members)

    (check,) = verify_excluded_leading_forms(Curve(pr), 3).checks
    assert not check.passed
    assert check.detail == f"{len(members)} family members with exponents <= 3"
    assert check.witness == {"family": family, "term": term_to_json((witness, sym))}


@pytest.mark.parametrize("triple", [(13, 2, 6), (17, 3, 8)])
def test_excluded_forms_test_only_the_leads_that_can_divide_a_cap(monkeypatch, triple):
    # two members led on Psi(p-b) planted, one before the basis and one
    # after it: powers of X0 or X_p, one variable times such a power, and
    # leads that divide no cap; the witness, the first box hit and its
    # first lead, is that of every box tested against every lead
    pr = make_params(*triple)
    p, top, keyed = pr.p, Psi(pr.p - pr.b), list(syzygy_basis(pr).keyed())

    def x(v, e=1):
        return variable_monomial(p, v, e)

    monos = [x(0, 3), x(p, 4), mono_mul(x(3), x(0, 2)), mono_mul(x(p), x(0)),
             mono_mul(x(2), x(p, 5)), mono_mul(x(p - 1), x(p, 2)), mono_mul(x(1), x(2)), x(2, 2),
             mono_mul(mono_mul(x(1), x(p)), x(0))]
    families = Counter()
    for first, last in itertools.product(monos, repeat=2):
        planted = [("planted", module_term(pr.nvars, first, top)), *keyed,
                   ("planted", module_term(pr.nvars, last, top))]
        monkeypatch.setattr(syzygy, "syzygy_basis",
                            lambda params: planted_syzygies(params, planted))
        curve = Curve(pr)
        (check,) = verify_excluded_leading_forms(curve, 2).checks
        assert check.witness == excluded_form_every_box(curve), (first, last)
        families[None if check.passed else check.witness["family"]] += 1
    assert families.keys() == {None, "pure-X0", "X0-power-times-variable",
                               "Xp-power-times-variable"}


def test_excluded_instances(p713):
    leads = _lead_table(p713, syzygy_members(syzygy_basis(p713)))
    assert not _in_lead_module(leads, _x(0, 2), Psi(0))  # X0^2*Psi(0)
    assert not _in_lead_module(leads, _x(2, 3), Phi(1, 2))  # X2^3*Phi(1,2), no X1 factor
    assert _in_lead_module(leads, mono_mul(_x(1), _x(2)), Psi(2))


def test_verify_order_projection(p713):
    assert verify_order_projection(C713, samples=500, seed=11).passed


@pytest.mark.parametrize("samples, seed, term, lead", [
    (1000, 0, [0, 2, 3, 4], [0, 2, 8, 4]),
    (200, 3, [4, 3, 1, 2], [4, 3, 6, 2]),
])
def test_a_wrong_image_lead_is_the_projection_witness(monkeypatch, p713, samples, seed, term, lead):
    # X1^2 - X3^5 in place of phi(1,1): Phi(1,1) projects by X1^2, while its
    # image leads with X3^5; the witness is the first sampled term on it
    def replaced(params):
        gset = groebner_generators(params)
        bad = Poly(4, {(2, 0, 0, 0): 1, (0, 0, 5, 0): -1})
        return dataclasses.replace(gset, phis={**gset.phis, (1, 1): bad})

    monkeypatch.setattr(syzygy, "groebner_generators", replaced)
    (check,) = verify_order_projection(Curve(p713), samples=samples, seed=seed).checks
    assert (check.name, check.passed) == ("projection-matches-image-lead", False)
    assert check.detail == f"{samples} sampled terms, seed {seed}"
    assert check.witness == {"term": {"expo": term, "basis": {"kind": "Phi", "i": 1, "j": 1}},
                             "image-lead": lead}


PROJECTION_SAMPLES = (0, 1, 2, 5, 200, 1000)


def _same_projection_records(curve, oracle=order_projection_by_images):
    # a sweep's dict (drawn) keeps each symbol's first draw and judges only
    # those; a term's verdict depends on its symbol alone, so its record is
    # the one verify gets from every draw
    for seed in range(6):
        for samples in PROJECTION_SAMPLES:
            report = verify_order_projection(curve, samples, seed)
            shared = verify_order_projection(curve, samples, seed, drawn={})
            reference = oracle(curve, samples, seed)
            assert report.checks == reference.checks, (seed, samples)
            assert report.to_records() == reference.to_records() == shared.to_records(), (
                seed, samples)


PROJECTION_TRIPLES = [(7, 1, 3), (9, 1, 3), (5, 1, 2), (17, 3, 8), (1000003, 999999, 3)]


@pytest.mark.parametrize("triple", PROJECTION_TRIPLES)
def test_sampled_projection_record_matches_the_term_by_term_reference(triple):
    # (9,1,3) has b = p and (5,1,2) has p = 2
    _same_projection_records(Curve(make_params(*triple)))


# a planted image at (7,1,3) and the seeds whose first 5 draws miss its symbol
PROJECTION_PLANTS = {
    "phi(1,1) = X1^2 - X3^5": (Phi(1, 1), {(2, 0, 0, 0): 1, (0, 0, 5, 0): -1}, {0, 2, 3}),
    "psi(1) = X2*X3^2 - X2*X3^2*X0": (Psi(1), {(0, 1, 2, 0): 1, (0, 1, 2, 1): -1}, {1}),
    "phi(2,2) = X2^2 - X2^2*X0": (Phi(2, 2), {(0, 2, 0, 0): 1, (0, 2, 0, 1): -1}, {1, 5}),
    "phi(1,1) = X1^2 + X2*X0 - X3^5": (Phi(1, 1), {(2, 0, 0, 0): 1, (0, 1, 0, 1): 1,
                                                   (0, 0, 5, 0): -1}, {0, 2, 3}),
}


def _curve_with_image(monkeypatch, params, sym, terms):
    # a Curve whose closed-form set holds terms in place of sym's binomial
    def planted(params):
        gset = groebner_generators(params)
        if isinstance(sym, Psi):
            return dataclasses.replace(gset, psis={**gset.psis, sym.j: Poly(params.nvars, terms)})
        return dataclasses.replace(gset, phis={**gset.phis, sym: Poly(params.nvars, terms)})

    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "groebner_generators", planted)
        curve = Curve(params)
    assert curve.images[sym].terms == terms
    return curve


@pytest.mark.parametrize("sym, terms, missed", PROJECTION_PLANTS.values(), ids=PROJECTION_PLANTS)
def test_sampled_projection_record_matches_the_reference_on_a_planted_lead(monkeypatch, p713, sym,
                                                                          terms, missed):
    curve = _curve_with_image(monkeypatch, p713, sym, terms)
    _same_projection_records(curve)
    for seed in range(6):
        assert verify_order_projection(curve, 5, seed).passed == (seed in missed), seed
        assert not verify_order_projection(curve, 1000, seed).passed, seed


def test_a_shared_draw_serves_every_curve_of_its_shape(monkeypatch, p713):
    # one dict, filled by the first curve, gives each later curve with the
    # same p and b its own per-sample record: another d, and each plant
    curves = [C713, Curve(make_params(7, 2, 3))]
    curves += [_curve_with_image(monkeypatch, p713, sym, terms)
               for sym, terms, _ in PROJECTION_PLANTS.values()]
    for seed in range(6):
        for samples in PROJECTION_SAMPLES:
            drawn = {}
            for curve in curves:
                shared = verify_order_projection(curve, samples, seed, drawn=drawn)
                alone = verify_order_projection(curve, samples, seed)
                assert shared.to_records() == alone.to_records(), (seed, samples, curve.params)
            assert len(drawn) == 1


@pytest.mark.parametrize("triple", [(7, 1, 3), (17, 3, 8)])
def test_a_passing_projection_check_keys_each_sampled_term_once(monkeypatch, triple):
    # each image monomial is ring-keyed once and each symbol's projection
    # once; a sample then costs one ring key, of its drawn monomial
    curve = Curve(make_params(*triple))
    orders, ring, module = _order_state(curve), [], []
    ring_key, module_key = WeightOrder.key, ModuleOrder.key
    monkeypatch.setattr(WeightOrder, "key",
                        lambda self, mono: ring.append(mono) or ring_key(self, mono))
    monkeypatch.setattr(ModuleOrder, "key",
                        lambda self, term: module.append(term) or module_key(self, term))
    assert verify_order_projection(curve, 300, 7).passed
    draws = syzygy._draws(curve.params.nvars, len(curve.images), 300, 7)
    monos = [m for g in curve.images.values() for m in g.terms]
    assert Counter(ring) == Counter(monos + [m for m, _ in draws])
    one = (0,) * curve.params.nvars
    assert sorted(module, key=str) == sorted(((one, sym) for sym in curve.images), key=str)
    assert _order_state(curve) == orders


@pytest.mark.parametrize("case", [*PROJECTION_TRIPLES, *PROJECTION_PLANTS])
def test_the_per_symbol_projection_record_matches_the_sampled_one(monkeypatch, p713, case):
    # a passing curve, and each planted lead with the seeds that miss it
    if case in PROJECTION_PLANTS:
        sym, terms, _ = PROJECTION_PLANTS[case]
        curve = _curve_with_image(monkeypatch, p713, sym, terms)
    else:
        curve = Curve(make_params(*case))
        with monkeypatch.context() as patch:
            patch.setattr(random, "Random", None)  # a passing curve is decided with no draw
            assert order_projection_exact(curve, 1000, 0).passed
    _same_projection_records(curve, order_projection_exact)


def _flip_first(g):
    # g with the sign of its first term flipped: no longer a relation
    terms = dict(g.terms)
    first = next(iter(terms))
    terms[first] = -terms[first]
    return ModElement._raw(g.nvars, terms)


def _same_images(curve, elems):
    # the packed images equal the tuple products; the count of non-zero ones
    nonzero = 0
    for elem in elems:
        image = relation_image(curve, elem)
        assert image == relation_image_by_tuples(curve, elem), elem
        nonzero += bool(image)
    return nonzero


@pytest.mark.parametrize("triple", [(17, 3, 8), (1000003, 999999, 3)])
def test_packed_images_match_the_tuple_products_on_every_member(triple):
    # every member is a relation, and with one sign flipped none is; at
    # (1000003,999999,3) the exponents reach a + d = 1333333 and the fields
    # are 22 bits wide
    curve = Curve(make_params(*triple))
    members = curve.module_reducer.basis
    assert _same_images(curve, members) == 0
    assert _same_images(curve, [_flip_first(g) for g in members]) == len(members)
    assert curve.packing.width == max(max(m) for m in curve.packing.codes).bit_length() + 1


def test_packed_images_match_the_tuple_products_on_the_half_lead_harvest(monkeypatch):
    # the harvest of a set that is not a Groebner basis: fractional
    # cofactors, and elements whose images are non-zero remainders
    half = Poly(7, {variable_monomial(6, 1, 2): 2,
                    mono_mul(variable_monomial(6, 2), variable_monomial(6, 0)): -1})
    monkeypatch.setattr(syzygy, "groebner_generators", _replace_phi11(half))
    curve = Curve(make_params(13, 2, 6))
    rows = list(schreyer_relations(curve))
    assert _same_images(curve, [rel for *_, rel in rows]) == sum(bool(r) for _, _, r, _ in rows) > 0
    for _, _, r, rel in rows:
        assert relation_image(curve, rel) == r


def test_a_planted_member_evaluates_to_its_tuple_product():
    # a non-zero planted member, Psi(0) on X0^2 beside A(1;3,0)
    curve = Curve(make_params(17, 3, 8))
    planted = curve.sset.A[1, 0] + module_term(9, variable_monomial(8, 0, 2), Psi(0))
    image = relation_image(curve, planted)
    assert image and image == relation_image_by_tuples(curve, planted)
    assert image == curve.images[Psi(0)].times_term(1, variable_monomial(8, 0, 2))


def test_a_monomial_wider_than_the_fields_repacks_every_monomial():
    # X1 is packed by the first member; X0^(2^width) is not and does not
    # fit, so the sum starts again at a wider width, and the images of the
    # members, evaluated before and after, stay the tuple products
    curve = Curve(make_params(17, 3, 8))
    members = curve.module_reducer.basis
    assert _same_images(curve, members) == 0
    width = curve.packing.width
    wide = variable_monomial(8, 0, 2 ** width)
    elem = module_term(9, variable_monomial(8, 1), Psi(0)) + module_term(9, wide, Psi(1))
    assert _same_images(curve, [elem, members[0].times_term(3, wide)]) == 1
    assert curve.packing.width == width + 2
    assert _same_images(curve, members) == 0
    assert _same_images(curve, [_flip_first(g) for g in members]) == len(members)


def test_members_are_relations_evaluates_each_member_once(monkeypatch):
    # the walk that builds the Curve reads each member once, in label
    # order, for its lead and its image, and the passing check reads none
    # again: it evaluates no element at all
    calls, images, image, read = [], [], syzygy.relation_image, syzygy._Packing.read
    monkeypatch.setattr(syzygy, "relation_image",
                        lambda curve, elem: images.append(elem) or image(curve, elem))
    monkeypatch.setattr(syzygy._Packing, "read",
                        lambda pack, elem: calls.append(elem) or read(pack, elem))
    curve = Curve(make_params(17, 3, 8))
    members = [g for _, g in curve.sset.keyed()]
    assert calls == members and len(members) == 196
    assert verify_syzygy_basis(curve).passed
    assert calls == members and images == []


def test_a_curve_and_a_passing_verify_list_the_members_once(monkeypatch):
    # one walk, as the Curve is built; a passing verify walks none again,
    # as it builds no module Reducer
    calls, keyed = [], SyzygySet.keyed
    monkeypatch.setattr(SyzygySet, "keyed", lambda self: calls.append(self) or keyed(self))
    curve = Curve(make_params(17, 3, 8))
    assert all(r.passed for r in verification_bundle(curve, 2, 1000, 0))
    assert calls == [curve.sset]
    assert curve._module_reducer is None


def _module_reducers_built(monkeypatch):
    # every Reducer built over the module order, as it is built
    built, init = [], Reducer.__init__

    def watched(table, order, basis=(), leads=None):
        init(table, order, basis, leads)
        if not table.ring:
            built.append(table)

    monkeypatch.setattr(Reducer, "__init__", watched)
    return built


def test_a_passing_verify_builds_no_module_reducer(monkeypatch):
    # the walk keeps each member's lead and verdict, which every check of a
    # passing triple reads: no member is divided by, so none is kept
    built = _module_reducers_built(monkeypatch)
    curve = Curve(make_params(17, 3, 8))
    assert all(r.passed for r in verification_bundle(curve, 2, 1000, 0))
    assert built == [] and curve._module_reducer is None


def test_the_half_lead_plant_builds_the_module_reducer_once(monkeypatch):
    # the Curve builds none; the failing scans build one, on first use, by
    # a second walk, with the leads that walk reads
    built = _module_reducers_built(monkeypatch)
    curve = _half_lead_curve(monkeypatch, make_params(13, 2, 6))
    assert built == []
    assert not all(r.passed for r in verification_bundle(curve, 2, 1000, 0))
    assert built == [curve.module_reducer]
    read = curve.packing.read
    assert curve.module_reducer.leads == [read(g)[0] for _, g in curve.sset.keyed()]
    assert curve.module_reducer.basis == [g for _, g in curve.sset.keyed()]


def test_syzygy_basis_builds_no_member_until_keyed_is_walked(monkeypatch):
    # each member is built as the walk reaches it, and none before
    built, raw = [], ModElement._raw.__func__
    monkeypatch.setattr(ModElement, "_raw",
                        classmethod(lambda cls, *args: built.append(cls) or raw(cls, *args)))
    walk = syzygy_basis(make_params(17, 3, 8)).keyed()
    assert built == []
    assert next(walk)[0] == ("A", (1, 0)) and len(built) == 1
    rest = sum(1 for _ in walk)
    assert len(built) == 1 + rest == 196


HALF_LEAD_TRIPLES = [(7, 1, 3), (8, 3, 2), (13, 2, 6)]


def _half_lead_curve(monkeypatch, params):
    # 2*X1^2 - X2*X0 in place of phi(1,1): every lead kept, outside the ideal
    x2x0 = mono_mul(variable_monomial(params.p, 2), variable_monomial(params.p, 0))
    half = Poly(params.nvars, {variable_monomial(params.p, 1, 2): 2, x2x0: -1})
    with monkeypatch.context() as patch:
        patch.setattr(syzygy, "groebner_generators", _replace_phi11(half))
        return Curve(params)


def _holds_one_copy_of_g_and_distinct_keys(curve):
    # G in label order is the images' binomials in symbol order, and the
    # keys label the module Reducer's members, each once
    assert curve.ring_reducer.basis == list(curve.images.values()) == curve.gset.polynomials()
    assert len(curve.keys) == len(set(curve.keys)) == len(curve.module_reducer.basis)
    assert [curve.sset.label(key) for key in curve.keys] == [lab for lab, _ in curve.sset.labeled()]


def test_a_curve_holds_one_copy_of_g_and_each_key_once(monkeypatch, ladder):
    # the images and the ring Reducer come from one list, in label order,
    # and the keys and the module Reducer from one listing of the members
    for pr in ladder:
        curve = Curve(pr)
        assert curve.ring_certified and curve.module_shape
        _holds_one_copy_of_g_and_distinct_keys(curve)
    for triple in HALF_LEAD_TRIPLES:
        curve = _half_lead_curve(monkeypatch, make_params(*triple))
        assert not curve.ring_certified
        _holds_one_copy_of_g_and_distinct_keys(curve)


def _watch_the_harvest(monkeypatch):
    # the ring Reducers that the harvest divides by, and the Reducers it builds
    divided, built, inside = [], [], []
    divide, init, harvest = Reducer.divide, Reducer.__init__, syzygy.schreyer_relations

    def divide_watched(table, f):
        if inside and table.ring:
            divided.append(table)
        return divide(table, f)

    def init_watched(table, order, basis=(), leads=None):
        if inside:
            built.append(table)
        init(table, order, basis, leads)

    def harvest_watched(curve):
        inside.append(curve)
        try:
            return list(harvest(curve))
        finally:
            inside.pop()

    monkeypatch.setattr(Reducer, "divide", divide_watched)
    monkeypatch.setattr(Reducer, "__init__", init_watched)
    monkeypatch.setattr(syzygy, "schreyer_relations", harvest_watched)
    return divided, built


@pytest.mark.parametrize("case", [*HALF_LEAD_TRIPLES, "ladder"])
def test_a_failing_verify_harvests_by_the_ring_reducer(monkeypatch, ladder, case):
    # the half-lead plant fails the ring certificate, and so does each small
    # ladder triple with the certificate planted false: the harvest divides
    # every pair by curve.ring_reducer, and builds no Reducer of its own
    if case == "ladder":
        monkeypatch.setattr(syzygy, "_certified", lambda table, expected: False)
        curves = [Curve(pr) for pr in ladder if pr.p <= 8]
        monkeypatch.undo()
    else:
        curves = [_half_lead_curve(monkeypatch, make_params(*case))]
    for curve in curves:
        divided, built = _watch_the_harvest(monkeypatch)
        report = verify_syzygy_basis(curve)
        monkeypatch.undo()
        assert _record(report, "harvested-relations-reduce")[0] == (case == "ladder")
        assert divided == [curve.ring_reducer] * len(curve.ring_reducer.pairs())
        assert built == []


def _order_state(curve):
    # what the two orders of a Curve hold, each container copied, so that
    # one filled in place reads as a change; the module order's per-symbol
    # key parts aside, which grow with the symbols it meets
    ring, module = ({k: v.copy() if isinstance(v, (dict, list, set)) else v
                     for k, v in vars(order).items()} for order in (curve.order, curve.morder))
    module.pop("_symbols")
    return ring, module


def test_a_passing_verify_leaves_the_module_key_cache_empty(monkeypatch):
    # the orders hold no per-term state: a passing verify, and a failing
    # one that divides, leave both as the Curve built them
    for curve in (Curve(make_params(17, 3, 8)), _half_lead_curve(monkeypatch, P713)):
        built = _order_state(curve)
        reports = verification_bundle(curve, 2, 1000, 0)
        assert all(r.passed for r in reports) == curve.ring_certified
        assert _order_state(curve) == built


def _held_by_a_curve(params):
    # the bytes a built Curve holds, under tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = Curve(params)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return curve, held


def test_a_curve_at_p24_holds_at_most_1_1_mib():
    # a tripwire on the memory a Curve holds: G once, in its Reducer, and
    # no member, no key and no lead per member; the orders hold no term
    # keys.  A Curve at (71,2,24) held 0.80-0.97 MiB when this bound was set
    curve, held = _held_by_a_curve(make_params(71, 2, 24))
    assert curve.module_shape and curve.module_reducer.basis
    assert held <= 1.1 * 2**20, held / 2**20


def test_a_curve_at_p48_holds_at_most_6_2_mib():
    # the same tripwire at (145,2,48), with 37,976 members: their keys and
    # a table of their leads hold about 13 MiB.  A Curve held 5.2-5.4 MiB
    # when this bound was set
    curve, held = _held_by_a_curve(make_params(145, 2, 48))
    assert curve.module_shape and curve._keys is None and curve._module_reducer is None
    assert held <= 6.2 * 2**20, held / 2**20


def test_the_sampled_projection_check_builds_no_element_and_fills_no_key_cache(monkeypatch):
    # each sample multiplies into the image monomials and keys the products
    # once: no relation_image, no Poly or ModElement, and the orders stay
    # as built
    calls, built = [], []
    image, raw, init = syzygy.relation_image, SparseMap._raw.__func__, SparseMap.__init__
    curve = Curve(make_params(17, 3, 8))
    monkeypatch.setattr(syzygy, "relation_image",
                        lambda *args: calls.append(args) or image(*args))
    monkeypatch.setattr(SparseMap, "_raw", classmethod(lambda *args: built.append(args[0])
                                                       or raw(*args)))
    monkeypatch.setattr(SparseMap, "__init__", lambda *args: built.append(args[0]) or init(*args))
    orders = _order_state(curve)
    assert verify_order_projection(curve, 1000, 3).passed
    assert (len(calls), built) == (0, [])
    assert _order_state(curve) == orders


KEY_PARAMS = [make_params(*t) for t in ((7, 1, 3), (9, 1, 3), (17, 3, 8), (1000003, 999999, 3))]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_the_module_key_is_the_ring_key_of_the_projection(data):
    params = data.draw(st.sampled_from(KEY_PARAMS))
    _, psi, phi = syzygy._table(params)
    mono = data.draw(st.tuples(*[st.integers(0, 6)] * params.nvars))
    sym = data.draw(st.sampled_from(psi + sorted(set(phi.values()))))
    morder = ModuleOrder(params)
    key = morder.key((mono, sym))
    ring = WeightOrder(params)
    assert key == (ring.key(mono_mul(mono, syzygy._stamp(params, sym))),
                   syzygy._symbol_tiebreak(sym))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_combinations_stay_relations(data):
    elems = syzygy_members(syzygy_basis(P713))
    monos = st.tuples(*[st.integers(0, 2)] * 4)
    acc = ModElement.zero(4)
    for _ in range(data.draw(st.integers(1, 4))):
        g = data.draw(st.sampled_from(elems))
        coeff = data.draw(st.integers(-2, 2))
        acc = acc + g.times_term(coeff, data.draw(monos))
    assert not relation_image(C713, acc)


def test_mod_elem_json_roundtrip():
    elem = C713.sset.B[1, 2]
    data = mod_elem_to_json(MORDER, elem)
    assert data[0]["basis"] == {"kind": "Psi", "j": 2}
    assert mod_elem_from_json(4, data) == elem
