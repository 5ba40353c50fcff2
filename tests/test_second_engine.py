"""The predicted ring and module leads from a second Groebner engine: sympy's.

Every other oracle runs on the library's own division and closure, so a
fault shared by the engine and an oracle could pass both.  Here sympy
computes the reduced Groebner basis of the closed-form set under the
curve's weight order, written from README's definition of that order:
compare weights (X_i weighs m_i), and break a tie on the right-most
exponent difference, where the larger monomial has the smaller exponent.
Its leads are the predicted ones, and its elements, made monic, are
those of oracles.buchberger, which runs on the library's closure.

For the module, each syzygy member sum c * m * T_sym becomes a
polynomial in K[X, T], one variable T_sym per symbol, and every product
T_i * T_j joins it.  A monomial x^alpha * T^beta is ordered by the ring
key of its projection alpha + sum beta_sym * stamp(sym), where stamp(sym)
is the lead monomial of the symbol's binomial (X_{b+j} * X_p^a for
Psi(j), X_i * X_j for Phi(i, j)), then by the T exponents read from the
largest symbol down: Psi beats Phi, a lower Psi index wins, and Phi
pairs compare by (j, i).  On the T-linear monomials that is the module
order, and the T-linear part of the reduced basis is a Groebner basis of
the module the members generate.  None of the library's order keys,
stamps or tie-breaks is imported.
"""

from fractions import Fraction

import pytest

from monocurve import make_params, syzygy_basis
from monocurve.generators import expected_leading_monomials, groebner_generators
from monocurve.polyring import Poly, WeightOrder, mono_mul, variable_monomial
from monocurve.syzygy import ModElement, Phi, Psi, _expected_leads
from oracles import buchberger, parameter_sweep

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import MonomialOrder  # noqa: E402

# p = 2..5, a = 1..2, every b and every d <= 3 coprime to m0
GRID5 = list(parameter_sweep(range(2, 6), range(1, 3), range(1, 4)))


class CurveOrder(MonomialOrder):
    """The weight order on exponent tuples (X1, ..., Xp, X0), as an
    ascending sort key: the weight, then the exponents read from the
    right, negated."""

    alias = "curve"
    is_global = True

    def __init__(self, weights):
        self.weights = tuple(weights)

    def __call__(self, monomial):
        weight = sum(e * w for e, w in zip(monomial, self.weights))
        return weight, tuple(-e for e in reversed(monomial))

    def __eq__(self, other):
        return isinstance(other, CurveOrder) and other.weights == self.weights

    def __hash__(self):
        return hash(self.weights)


def _minimal(monos) -> set:
    monos = set(monos)
    return {m for m in monos
            if not any(n != m and all(a <= b for a, b in zip(n, m)) for n in monos)}


def _sympy_basis(params, order) -> list:
    # sympy's reduced Groebner basis of the closed-form set, with the
    # variables in tuple order, as sympy Polys
    xs = sympy.symbols(f"x1:{params.p + 1}") + (sympy.Symbol("x0"),)
    polys = [sum(int(c) * sympy.Mul(*(x ** e for x, e in zip(xs, m))) for m, c in g.terms.items())
             for g in groebner_generators(params).polynomials()]
    return [sympy.Poly(g, *xs) for g in sympy.groebner(polys, *xs, order=order).exprs]


def _sympy_leads(params, order) -> set:
    # the leading monomials of sympy's reduced Groebner basis
    return {g.monoms(order=order)[0] for g in _sympy_basis(params, order)}


def _monic(terms) -> frozenset:
    # an element as its (exponent, Fraction) pairs, divided by the
    # coefficient of its lead, the first of terms
    terms = [(m, Fraction(int(sympy.numer(c)), int(sympy.denom(c)))) for m, c in terms]
    lead = terms[0][1]
    return frozenset((m, c / lead) for m, c in terms)


def _library_basis(params, polys) -> set:
    # oracles.buchberger's reduced basis of polys, each element made monic
    order = WeightOrder(params)
    return {_monic(sorted(g.terms.items(), key=lambda t: order.key(t[0]), reverse=True))
            for g in buchberger(order, polys)}


def test_sympys_reduced_basis_leads_with_the_predicted_monomials():
    assert len(GRID5) == 59
    for pr in GRID5:
        order = CurveOrder(pr.generators[1:] + pr.generators[:1])
        assert _minimal(_sympy_leads(pr, order)) == _minimal(expected_leading_monomials(pr)), pr


def test_sympys_reduced_basis_is_the_library_oracles():
    # element by element, monic, on every triple; with the half-lead plant
    # 2*X1^2 - X2*X0 in place of phi(1,1) on the library's side, which lies
    # outside the curve ideal, the two bases differ on every triple
    assert len(GRID5) == 59
    for pr in GRID5:
        order = CurveOrder(pr.generators[1:] + pr.generators[:1])
        theirs = {_monic(g.terms(order=order)) for g in _sympy_basis(pr, order)}
        gset = groebner_generators(pr)
        assert theirs == _library_basis(pr, gset.polynomials()), pr
        x2x0 = mono_mul(variable_monomial(pr.p, 2), variable_monomial(pr.p, 0))
        half = Poly(pr.nvars, {variable_monomial(pr.p, 1, 2): 2, x2x0: -1})
        planted = [half if g is gset.phis[1, 1] else g for g in gset.polynomials()]
        assert theirs != _library_basis(pr, planted), pr


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 2, 4)])
def test_the_lex_order_leads_with_other_monomials(triple):
    # the check can fail: under lex, with X1 largest, the leads differ
    pr = make_params(*triple)
    assert _minimal(_sympy_leads(pr, "lex")) != _minimal(expected_leading_monomials(pr))


# ---------------------------------------------------------------------------
# the module leads


def _stamp(params, sym) -> tuple:
    # the lead monomial of the symbol's binomial, as an exponent tuple
    p, stamp = params.p, [0] * (params.p + 1)
    at = [p] + list(range(p))  # X_i sits at i - 1, X_0 last
    if isinstance(sym, Psi):
        stamp[at[p]] += params.a
        stamp[at[params.b + sym.j]] += 1
    else:
        stamp[at[sym.i]] += 1
        stamp[at[sym.j]] += 1
    return tuple(stamp)


def _ranked(params) -> list:
    # every symbol, the largest first: Psi(0), ..., Psi(p-b), then the Phi
    # by (j, i) descending
    p, b = params.p, params.b
    phis = sorted((Phi(i, j) for j in range(1, p) for i in range(1, j + 1)),
                  key=lambda s: (s.j, s.i), reverse=True)
    return [Psi(j) for j in range(p - b + 1)] + phis


class ModuleTOrder(MonomialOrder):
    """The order on x^alpha * T^beta, variables (X1, ..., Xp, X0) then one T
    per symbol in ranked order: the ring key of the projection, then beta
    read from the first T."""

    alias = "module-t"
    is_global = True

    def __init__(self, weights, stamps):
        self.weights, self.stamps = tuple(weights), tuple(stamps)

    def __call__(self, monomial):
        n = len(self.weights)
        projection = list(monomial[:n])
        for e, stamp in zip(monomial[n:], self.stamps):
            projection = [x + e * y for x, y in zip(projection, stamp)]
        weight = sum(e * w for e, w in zip(projection, self.weights))
        return weight, tuple(-e for e in reversed(projection)), tuple(monomial[n:])

    def __eq__(self, other):
        return (isinstance(other, ModuleTOrder)
                and (other.weights, other.stamps) == (self.weights, self.stamps))

    def __hash__(self):
        return hash((self.weights, self.stamps))


def _sympy_module_leads(params, members, ranked) -> dict:
    # the minimal T-linear leads of sympy's reduced basis, per symbol
    n = params.nvars
    xs = sympy.symbols(f"x1:{params.p + 1}") + (sympy.Symbol("x0"),)
    ts = sympy.symbols(f"t0:{len(ranked)}")
    place = {sym: k for k, sym in enumerate(ranked)}
    gens = xs + ts
    polys = [sum(int(c) * sympy.Mul(*(x ** e for x, e in zip(xs, m))) * ts[place[sym]]
                 for (m, sym), c in g.terms.items()) for g in members]
    polys += [ts[i] * ts[j] for i in range(len(ts)) for j in range(i, len(ts))]
    order = ModuleTOrder(params.generators[1:] + params.generators[:1],
                         [_stamp(params, sym) for sym in ranked])
    basis = sympy.groebner(polys, *gens, order=order)
    leads = {}
    for g in basis.exprs:
        lead = sympy.Poly(g, *gens).monoms(order=order)[0]
        if sum(lead[n:]) == 1:
            leads.setdefault(ranked[lead[n:].index(1)], set()).add(lead[:n])
    return {sym: _minimal(monos) for sym, monos in leads.items()}


def _predicted_module_leads(params) -> dict:
    leads = {}
    for _, (mono, sym) in _expected_leads(params):
        leads.setdefault(sym, set()).add(mono)
    return {sym: _minimal(monos) for sym, monos in leads.items()}


MODULE_TRIPLES = [(5, 1, 2), (7, 2, 2), (7, 1, 3), (8, 3, 3)]


@pytest.mark.parametrize("triple", MODULE_TRIPLES)
def test_sympys_module_basis_leads_with_the_predicted_terms(triple):
    pr = make_params(*triple)
    members = [g for _, g in syzygy_basis(pr).keyed()]
    leads = _sympy_module_leads(pr, members, _ranked(pr))
    assert leads == _predicted_module_leads(pr)


def test_the_reversed_symbol_ranking_leads_with_other_terms():
    # the check can fail: with the T exponents read from the smallest
    # symbol, the leads differ on every triple
    for triple in MODULE_TRIPLES:
        pr = make_params(*triple)
        members = [g for _, g in syzygy_basis(pr).keyed()]
        leads = _sympy_module_leads(pr, members, _ranked(pr)[::-1])
        assert leads != _predicted_module_leads(pr), triple


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 3)])
def test_one_flipped_sign_in_the_first_l_member_changes_the_leads(triple):
    pr = make_params(*triple)
    sset = syzygy_basis(pr)
    first = min(sset.L)
    terms = dict(sset.L[first].terms)
    term = next(iter(terms))
    terms[term] = -terms[term]
    members = [ModElement(pr.nvars, terms) if key == ("L", first) else g
               for key, g in sset.keyed()]
    assert _sympy_module_leads(pr, members, _ranked(pr)) != _predicted_module_leads(pr)
