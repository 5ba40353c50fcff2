import copy
import dataclasses
import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import generators, make_params, syzygy
from monocurve.generators import groebner_generators, phi_binomial, psi_binomial
from monocurve.polyring import (
    Poly,
    Reducer,
    WeightOrder,
    ZeroPolynomialError,
    hilbert_numerator,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
    poly_to_json,
    s_polynomial,
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
    module_normal_form,
    phi_symbol,
    psi_symbol,
    relation_image,
    schreyer_relations,
    syzygy_A,
    syzygy_B,
    syzygy_L,
    syzygy_basis,
    format_mod_elem,
    term_to_json,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)
from monocurve.semigroup import apery_numerator
from oracles import _symbol_from_json, mod_elem_from_json, parameter_sweep

P713 = make_params(7, 1, 3)
C713 = Curve(P713)
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


def test_symbols_sort_by_their_text():
    # the order of the sampled projection check
    curve = Curve(make_params(13, 2, 6))
    assert [str(s) for s in sorted(curve.images, key=str)] == [
        "Phi(1,1)", "Phi(1,2)", "Phi(1,3)", "Phi(1,4)", "Phi(1,5)", "Phi(2,2)", "Phi(2,3)",
        "Phi(2,4)", "Phi(2,5)", "Phi(3,3)", "Phi(3,4)", "Phi(3,5)", "Phi(4,4)", "Phi(4,5)",
        "Phi(5,5)", "Psi(0)", "Psi(1)", "Psi(2)", "Psi(3)", "Psi(4)", "Psi(5)",
    ]


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


def test_every_constructor_checks_the_exponent_count():
    message = r"monomial \(1, 0, 0\) does not have 4 exponents"
    for build in (lambda: Poly.term(4, (1, 0, 0)),
                  lambda: Poly(4, {(1, 0, 0): 1}),
                  lambda: ModElement(4, {((1, 0, 0), Psi(0)): 1}),
                  lambda: ModElement.term(4, (1, 0, 0), Psi(0))):
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
    assert not relation_image(C713, elem)
    assert relation_image(C713, ModElement.term(4, (0,) * 4, Psi(0))) == psi_binomial(
        p713, 0
    )


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
    elem = ModElement.term(4, _x(2), Psi(1))
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
        computed = {morder.leading_term(g)[0] for g in sset.elements()}
        assert computed == set(syzygy._expected_leads(pr).values())
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
    elems = groebner_generators(pr).polynomials() + syzygy_basis(pr).elements()
    for _, _, r, rel in curve.harvest():
        elems += [r, rel]
    assert all(type(c) is int for e in elems for c in e.terms.values())
    for table in (curve.ring_reducer, curve.module_reducer):
        assert all(type(inv) is int for row in table.rows.values() for _, inv, *_ in row)


def test_module_normal_form_basics(p713):
    elems = syzygy_basis(p713).elements()
    a30 = syzygy_A(p713, 3, 0)
    r, quots = module_normal_form(a30, Reducer(MORDER, [a30]))
    assert not r and quots[0] == Poly.term(4, (0, 0, 0, 0))
    shifted = a30.times_term(1, _x(0))
    r, quots = module_normal_form(shifted, Reducer(MORDER, elems))
    assert not r
    k = elems.index(a30)
    assert quots == {k: Poly.term(4, _x(0))}


def test_module_normal_form_recombines(p713):
    elems = syzygy_basis(p713).elements()
    probe = syzygy_A(p713, 1, 0).times_term(Fraction(3, 2), _x(2)) + syzygy_L(
        p713, 1, 2, 2
    ).times_term(1, _x(0, 2))
    r, quots = module_normal_form(probe, Reducer(MORDER, elems))
    assert all(quots.values())
    assert len(quots) < len(elems)  # most members are never used
    recombined = r
    for k, q in quots.items():
        for mono, c in q.terms.items():
            recombined = recombined + elems[k].times_term(c, mono)
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
        r, quots = normal_form(f, Reducer(order, basis))
        mr, mquots = module_normal_form(ModElement.from_poly(f, Psi(0)), Reducer(MORDER, lifted))
        assert mr == ModElement.from_poly(r, Psi(0))
        assert mquots == quots
        assert all(quots.values()) and set(quots) <= set(range(len(basis)))


def test_s_vectors_reduce(p713):
    elems = syzygy_basis(p713).elements()
    table = Reducer(MORDER, elems)
    pairs = C713.module_reducer.pairs()
    for x, y in pairs:
        r, _ = module_normal_form(s_polynomial(MORDER, elems[x], elems[y]), table)
        assert not r
    assert len(pairs) == 9


def test_s_vector_none_on_distinct_symbols(p713):
    labels = [lab for lab, _ in C713.sset.labeled()]
    x, y = labels.index("A(1;1,0)"), labels.index("A(1;1,1)")
    assert (x, y) not in C713.module_reducer.pairs()
    with pytest.raises(ValueError):
        s_polynomial(MORDER, syzygy_A(p713, 1, 0), syzygy_A(p713, 1, 1))


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
            r, _ = module_normal_form(s, table)
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
    base = syzygy_basis(p713)
    A = dict(base.A)
    A[(1, 1)] = A[(1, 1)] + ModElement.term(4, _x(0), Phi(1, 1))
    planted = SyzygySet(params=p713, A=A, B=base.B, L=base.L)
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
    # and builds no harvest; once it fails, every same-symbol pair and every
    # harvested relation is divided exactly once
    curve = Curve(make_params(41, 2, 12))
    calls = []
    divide = syzygy.module_normal_form
    monkeypatch.setattr(syzygy, "module_normal_form",
                        lambda *args: calls.append(1) or divide(*args))

    def details(report):
        assert report.passed
        return [c.detail for c in report.checks
                if c.name in ("s-vectors-reduce", "harvested-relations-reduce")]

    counted = ["4092 same-symbol pairs", "2701 harvested relations"]
    assert details(verify_syzygy_basis(curve)) == counted
    assert not calls and curve._harvest is None

    monkeypatch.setattr(syzygy, "_module_identity", lambda curve: False)
    assert details(verify_syzygy_basis(curve)) == counted
    assert len(calls) == len(curve.module_reducer.pairs()) + len(curve.harvest()) == 4092 + 2701


def test_a_failure_after_a_dropped_pair_keeps_the_all_pairs_record(monkeypatch, p713):
    # on Psi(0) the leads X1*X2, X1*X3, X2*X3 make (1, 2) a pair that a chain
    # criterion would drop; X0 with the tail Phi(1,1) breaks (1, 3), which
    # comes after (1, 2) in the x-major scan, while X1*X2*Phi(1,1) mends (0, 3)
    nv = p713.nvars
    labeled = [("T0", ModElement.term(nv, (1, 1, 0, 0), Psi(0))),
               ("T1", ModElement.term(nv, (1, 0, 1, 0), Psi(0))),
               ("T2", ModElement.term(nv, (0, 1, 1, 0), Psi(0))),
               ("T3", ModElement.term(nv, _x(0), Psi(0))
                + ModElement.term(nv, (0,) * nv, Phi(1, 1))),
               ("T4", ModElement.term(nv, (1, 1, 0, 0), Phi(1, 1)))]

    class Planted(SyzygySet):
        def labeled(self):
            return labeled

    monkeypatch.setattr(syzygy, "syzygy_basis", lambda params: Planted(params, {}, {}, {}))
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
    morder, labeled = curve.morder, curve.sset.labeled()
    symbols = list(curve.images)
    while True:
        k = rng.randrange(len(labeled))
        lead, _ = morder.leading_term(labeled[k][1])
        term = (tuple(rng.randrange(3) for _ in range(curve.params.nvars)), rng.choice(symbols))
        if morder.key(term) < morder.key(lead):
            break
    planted = list(labeled)
    tail = ModElement.term(curve.params.nvars, *term, rng.choice((-1, 1, 2)))
    planted[k] = (labeled[k][0], labeled[k][1] + tail)
    return planted


def test_criterion_record_matches_the_all_pairs_scan_on_planted_tails(monkeypatch):
    for triple in PLANTED_TRIPLES:
        pr = make_params(*triple)
        base = Curve(pr)
        rng = random.Random(sum(triple))
        failed = 0
        for _ in range(PLANTINGS):
            planted = _plant_a_tail_term(base, rng)

            class Planted(SyzygySet):
                def labeled(self):
                    return planted

            with monkeypatch.context() as patch:
                patch.setattr(syzygy, "syzygy_basis",
                              lambda params: Planted(params, {}, {}, {}))
                curve = Curve(pr)
            # the ring side is not planted
            curve._harvest = base.harvest()
            record = _s_vectors_record(curve)
            assert record == _all_pairs_s_vectors(curve), triple
            failed += not record[0]
        # the one member of (8,3,2) has no pair to break
        assert failed or not base.module_reducer.pairs(), triple


def test_harvested_relations_reduce(p713):
    elems = syzygy_basis(p713).elements()
    rows = schreyer_relations(C713)
    assert len(rows) == 15
    assert [(i, j) for i, j, *_ in rows] == [(i, j) for j in range(6) for i in range(j)]
    for _, _, r, rel in rows:
        assert not r
        assert not relation_image(C713, rel)
        r, _ = module_normal_form(rel, Reducer(MORDER, elems))
        assert not r
    assert C713.harvest() is C713.harvest()
    assert [(i, j, r) for i, j, r, _ in C713.harvest()] == [(i, j, r) for i, j, r, _ in rows]


def test_a_harvested_element_that_is_no_relation_is_the_witness(monkeypatch, p713):
    # Psi(0) added to the third harvested element: its S-polynomial still
    # reduces to zero, but the element no longer evaluates to zero
    harvest = syzygy.schreyer_relations

    def planted(curve):
        rows = harvest(curve)
        i, j, r, rel = rows[2]
        rows[2] = (i, j, r, rel + ModElement.term(4, (0, 0, 0, 0), Psi(0)))
        return rows

    monkeypatch.setattr(syzygy, "schreyer_relations", planted)
    monkeypatch.setattr(syzygy.Curve, "ring_certified", lambda self: False)
    report = verify_syzygy_basis(Curve(p713))
    assert _record(report, "s-vectors-reduce") == (True, "9 same-symbol pairs", None)
    assert _record(report, "harvested-relations-reduce") == (
        False, "3 harvested relations",
        {"pair": ["Phi(1,2)", "Phi(2,2)"], "problem": "harvested element is not a relation"})


def test_schreyer_vectors_are_syzygies(p713):
    rows = schreyer_relations(C713)
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
    rows = schreyer_relations(curve)
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
        r, _ = module_normal_form(rel, kept)
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
            r, _ = module_normal_form(rel, curve.module_reducer)
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
    tail = Poly.term(curve.params.nvars, mono, rng.choice((-1, 1, 2)))
    return dataclasses.replace(gset, **{family: {**getattr(gset, family), k: g + tail}})


def test_ring_criterion_records_match_the_all_pairs_scans_on_planted_tails(monkeypatch):
    # Buchberger on a planted set checks nothing compared here, and need
    # not be homogeneous, so it is left out
    monkeypatch.setattr(generators, "buchberger", lambda order, gens: list(gens))
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
            rows = schreyer_relations(curve)
            assert spoly == _all_pairs_spoly_record(curve, rows), triple
            assert harvest == _all_pairs_harvest_record(curve, rows), triple
            failed += not spoly[0]
        # the leads X1^2 and X2^4 of (8,3,2) are coprime: no tail breaks their pair
        assert failed == (0 if triple == (8, 3, 2) else RING_PLANTINGS), triple


@pytest.mark.parametrize("triple, shortcuts", [
    ((7, 1, 3), 4), ((13, 2, 6), 7), ((9, 4, 2), 2), ((11, 2, 5), 6), ((17, 3, 8), 9),
])
def test_harvest_record_matches_the_all_pairs_scan_with_each_member_dropped(triple, shortcuts):
    # no member can go: every drop leaves some harvested relation stuck,
    # although the S-vectors of what is left still reduce in the pinned
    # number of drops
    base = Curve(make_params(*triple))
    rows, labeled = base.harvest(), base.sset.labeled()
    assert base.ring_certified()
    passed = 0
    for k in range(len(labeled)):
        planted = labeled[:k] + labeled[k + 1:]

        class Planted(SyzygySet):
            def labeled(self):
                return planted

        # the ring side is the base's, its harvest and verdict included
        curve = copy.copy(base)
        curve.sset = Planted(base.params, {}, {}, {})
        curve.module_reducer = Reducer(base.morder, [g for _, g in planted])
        report = verify_syzygy_basis(curve)
        harvest = _record(report, "harvested-relations-reduce")
        assert harvest == _all_pairs_harvest_record(curve, rows), labeled[k][0]
        assert not harvest[0], labeled[k][0]
        passed += _record(report, "s-vectors-reduce")[0]
    assert passed == shortcuts


def test_both_identities_hold_where_the_all_pairs_scans_pass():
    # an identity must never pass what a scan would fail: on each triple both
    # hold, and every ring S-polynomial, module S-vector and harvested
    # relation divides to zero
    for pr in SWEEP5 + [make_params(17, 3, 8)]:
        curve = Curve(pr)
        assert curve.ring_certified() and syzygy._module_identity(curve), pr
        rows = schreyer_relations(curve)
        assert _all_pairs_spoly_record(curve, rows)[0], pr
        assert _all_pairs_harvest_record(curve, rows)[0], pr
        assert _all_pairs_s_vectors(curve)[0], pr


@pytest.mark.parametrize("triple", PLANTED_TRIPLES)
def test_each_dropped_generator_fails_the_ring_identity(triple):
    base = Curve(make_params(*triple))
    for k in range(len(base.images)):
        curve = copy.copy(base)
        curve.images = {sym: g for n, (sym, g) in enumerate(base.images.items()) if n != k}
        curve.ring_reducer = Reducer(base.order, curve.images.values())
        curve._ring_certified = None
        assert not curve.ring_certified(), (triple, k)


@pytest.mark.parametrize("triple", PLANTED_TRIPLES)
def test_sampled_dropped_syzygies_fail_the_module_identity(triple):
    base = Curve(make_params(*triple))
    assert base.ring_certified()
    elements = base.sset.elements()
    rng = random.Random(sum(triple))
    for k in rng.sample(range(len(elements)), min(len(elements), 20)):
        curve = copy.copy(base)
        curve.module_reducer = Reducer(base.morder, elements[:k] + elements[k + 1:])
        assert not syzygy._module_identity(curve), (triple, k)


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
    leads = [lm for lm, *_ in curve.ring_reducer.rows[None]]
    assert hilbert_numerator(pr.exponent_weights, leads) == apery_numerator(pr)
    assert not curve.ring_certified()
    spoly = _record(generators.verify_groebner_generators(curve), "s-polynomials-reduce")
    assert spoly == _all_pairs_spoly_record(curve, schreyer_relations(curve))
    assert spoly[0] == (triple == (8, 3, 2))


def test_verify_syzygy_basis(p713, p832, p613):
    for pr in (p713, p832, p613):
        report = verify_syzygy_basis(Curve(pr))
        assert report.passed, [c.name for c in report.checks if not c.passed]


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
        "unit": ModElement.term(nv, (0,) * nv, Psi(0)),  # divides every lead on Psi(0)
        "multiple": ModElement.term(nv, x1x2, Psi(0)),  # a multiple of the lead of A(1;b,0)
        "lone": ModElement.term(nv, (0,) * nv, Phi(1, 1)),  # no other lead on Phi(1,1)
    }[plant]

    class Planted(SyzygySet):
        def labeled(self):
            extra = [("planted", planted)]
            return extra + super().labeled() if before else super().labeled() + extra

    monkeypatch.setattr(syzygy, "syzygy_basis",
                        lambda params: Planted(params=params, A=base.A, B=base.B, L=base.L))
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
        leads = _lead_table(pr, curve.sset.elements())
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
    elements = syzygy_basis(pr).elements() + [ModElement.term(pr.nvars, mono, sym)]

    class Planted:
        def elements(self):
            return elements

    monkeypatch.setattr("monocurve.syzygy.syzygy_basis", lambda params: Planted())
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


def test_excluded_instances(p713):
    leads = _lead_table(p713, syzygy_basis(p713).elements())
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


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_combinations_stay_relations(data):
    elems = syzygy_basis(P713).elements()
    monos = st.tuples(*[st.integers(0, 2)] * 4)
    acc = ModElement.zero(4)
    for _ in range(data.draw(st.integers(1, 4))):
        g = data.draw(st.sampled_from(elems))
        coeff = data.draw(st.integers(-2, 2))
        acc = acc + g.times_term(coeff, data.draw(monos))
    assert not relation_image(C713, acc)


def test_mod_elem_json_roundtrip(p713):
    elem = syzygy_B(p713, 1, 2)
    data = mod_elem_to_json(MORDER, elem)
    assert data[0]["basis"] == {"kind": "Psi", "j": 2}
    assert mod_elem_from_json(4, data) == elem
