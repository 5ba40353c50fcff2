import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from monocurve import make_params, parameter_sweep, syzygy
from monocurve.generators import groebner_generators, phi_binomial, psi_binomial
from monocurve.polyring import (
    Poly,
    Reducer,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normal_form,
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
    expected_module_leading_terms,
    is_relation,
    mod_elem_from_json,
    mod_elem_to_json,
    module_normal_form,
    order_monomial,
    phi_symbol,
    psi_symbol,
    relation_image,
    schreyer_relations,
    syzygy_A,
    syzygy_B,
    syzygy_L,
    syzygy_basis,
    term_to_json,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)

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
    assert is_relation(C713, elem)
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
    assert order_monomial(p713, (0, 0, 0, 0), Psi(0)) == (1, 0, 2, 0)  # X1*X3^2
    assert order_monomial(p713, _x(0), Phi(1, 2)) == (1, 1, 0, 1)  # X0*X1*X2
    # the projection equals the image's leading monomial
    elem = ModElement.term(4, _x(2), Psi(1))
    lm = MORDER.ring.leading_monomial(relation_image(C713, elem))
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
    r, quots = module_normal_form(MORDER, a30, [a30])
    assert not r and quots[0] == Poly.term(4, (0, 0, 0, 0))
    shifted = a30.times_term(1, _x(0))
    r, quots = module_normal_form(MORDER, shifted, elems)
    assert not r
    k = elems.index(a30)
    assert quots == {k: Poly.term(4, _x(0))}


def test_module_normal_form_recombines(p713):
    elems = syzygy_basis(p713).elements()
    probe = syzygy_A(p713, 1, 0).times_term(Fraction(3, 2), _x(2)) + syzygy_L(
        p713, 1, 2, 2
    ).times_term(1, _x(0, 2))
    for divisors in (elems, Reducer(MORDER, elems)):
        r, quots = module_normal_form(MORDER, probe, divisors)
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
        r, quots = normal_form(order, f, basis)
        mr, mquots = module_normal_form(MORDER, ModElement.from_poly(f, Psi(0)), lifted)
        assert mr == ModElement.from_poly(r, Psi(0))
        assert mquots == quots
        assert all(quots.values()) and set(quots) <= set(range(len(basis)))


def test_s_vectors_reduce(p713):
    elems = syzygy_basis(p713).elements()
    pairs = C713.module_reducer.pairs()
    for x, y in pairs:
        r, _ = module_normal_form(MORDER, s_polynomial(MORDER, elems[x], elems[y]), elems)
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
            r, _ = module_normal_form(morder, s, table)
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


def test_harvested_relations_reduce(p713):
    elems = syzygy_basis(p713).elements()
    rows = schreyer_relations(C713)
    assert len(rows) == 15
    assert [(i, j) for i, j, *_ in rows] == [(i, j) for j in range(6) for i in range(j)]
    for _, _, r, rel in rows:
        assert not r
        assert is_relation(C713, rel)
        r, _ = module_normal_form(MORDER, rel, elems)
        assert not r
    assert C713.harvest() is C713.harvest()
    assert [(i, j, r) for i, j, r, _ in C713.harvest()] == [(i, j, r) for i, j, r, _ in rows]


def test_deleting_an_element_breaks_completeness(p713):
    # dropping L(1;2,2) leaves some harvested relation stuck
    kept = [g for lab, g in syzygy_basis(p713).labeled() if lab != "L(1;2,2)"]
    stuck = 0
    for *_, rel in schreyer_relations(C713):
        r, _ = module_normal_form(MORDER, rel, kept)
        if r:
            stuck += 1
    assert stuck > 0


def test_verify_syzygy_basis(p713, p832, p613):
    for pr in (p713, p832, p613):
        report = verify_syzygy_basis(Curve(pr))
        assert report.passed, [c.name for c in report.failures()]


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
    assert is_relation(C713, acc)


def test_mod_elem_json_roundtrip(p713):
    elem = syzygy_B(p713, 1, 2)
    data = mod_elem_to_json(MORDER, elem)
    assert data[0]["basis"] == {"kind": "Psi", "j": 2}
    assert mod_elem_from_json(4, data) == elem
