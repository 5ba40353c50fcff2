"""The predicted ring leads from a second Groebner engine: sympy's.

Every other oracle runs on the library's own division and closure, so a
fault shared by the engine and an oracle could pass both.  Here sympy
computes the reduced Groebner basis of the closed-form set under the
curve's weight order, written from README's definition of that order:
compare weights (X_i weighs m_i), and break a tie on the right-most
exponent difference, where the larger monomial has the smaller exponent.
None of the library's order keys is imported.
"""

import pytest

from monocurve import make_params
from monocurve.generators import expected_leading_monomials, groebner_generators
from oracles import parameter_sweep

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


def _sympy_leads(params, order) -> set:
    # the leading monomials of sympy's reduced Groebner basis of the
    # closed-form set, with the variables in tuple order
    xs = sympy.symbols(f"x1:{params.p + 1}") + (sympy.Symbol("x0"),)
    polys = [sum(int(c) * sympy.Mul(*(x ** e for x, e in zip(xs, m))) for m, c in g.terms.items())
             for g in groebner_generators(params).polynomials()]
    basis = sympy.groebner(polys, *xs, order=order)
    return {sympy.Poly(g, *xs).monoms(order=order)[0] for g in basis.exprs}


def test_sympys_reduced_basis_leads_with_the_predicted_monomials():
    assert len(GRID5) == 59
    for pr in GRID5:
        order = CurveOrder(pr.generators[1:] + pr.generators[:1])
        assert _minimal(_sympy_leads(pr, order)) == _minimal(expected_leading_monomials(pr)), pr


@pytest.mark.parametrize("triple", [(7, 1, 3), (13, 2, 6), (9, 2, 4)])
def test_the_lex_order_leads_with_other_monomials(triple):
    # the check can fail: under lex, with X1 largest, the leads differ
    pr = make_params(*triple)
    assert _minimal(_sympy_leads(pr, "lex")) != _minimal(expected_leading_monomials(pr))
