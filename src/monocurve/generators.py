"""Closed-form generating sets for the curve ideal, and their verification.

Two generating sets are built.  The primary one pairs quadratic
binomials phi(i, j) = X_i*X_j - X_eps*X_{i+j-eps} with the power
binomials psi(b, i) = X_{b+i}*X_p^a - X_i*X_0^(a+d); it is a minimal
Groebner basis under the weighted order.  The classical set of Patil is
built alongside for cross-checks: both sets generate the same ideal and
have the same cardinality.

Every verification routine returns a VerificationReport and records a
witness on failure instead of raising.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .polyring import (
    Mono,
    Poly,
    Reducer,
    WeightOrder,
    buchberger,
    in_curve_ideal,
    mono_divides,
    mono_mul,
    mono_to_name,
    normal_form,
    poly_to_json,
    s_polynomial,
    variable_monomial,
)
from .report import VerificationReport
from .semigroup import CurveParams


def epsilon(i: int, j: int, p: int) -> int:
    """i + j capped at p: i + j when i + j < p, else p."""
    return i + j if i + j < p else p


def tau(i: int, j: int, p: int) -> int:
    """0 when i + j < p, else p."""
    return 0 if i + j < p else p


def phi_binomial(params: CurveParams, i: int, j: int) -> Poly:
    """The quadratic binomial X_i*X_j - X_eps(i,j)*X_{i+j-eps(i,j)}.

    Indices are restricted to [1, p-1]; the pair is unordered.
    """
    p = params.p
    if not (1 <= i <= p - 1 and 1 <= j <= p - 1):
        raise IndexError(f"phi indices ({i}, {j}) outside [1, {p - 1}]")
    e = epsilon(i, j, p)
    lead = mono_mul(variable_monomial(p, i), variable_monomial(p, j))
    tail = mono_mul(variable_monomial(p, e), variable_monomial(p, i + j - e))
    return Poly(params.nvars, {lead: 1}) - Poly(params.nvars, {tail: 1})


def psi_binomial(params: CurveParams, i: int) -> Poly:
    """The power binomial X_{b+i}*X_p^a - X_i*X_0^(a+d) for i in [0, p-b].

    At i = 0 the trailing term collapses to X_0^(a+d+1); at i = p - b the
    leading term collapses to X_p^(a+1).
    """
    p, a, b, d = params.p, params.a, params.b, params.d
    if not 0 <= i <= p - b:
        raise IndexError(f"psi index {i} outside [0, {p - b}]")
    lead = mono_mul(variable_monomial(p, b + i), variable_monomial(p, p, a))
    tail = mono_mul(variable_monomial(p, i), variable_monomial(p, 0, a + d))
    return Poly(params.nvars, {lead: 1}) - Poly(params.nvars, {tail: 1})


@dataclass(frozen=True)
class GeneratorSet:
    """The closed-form basis: phis keyed by (i, j) with i <= j, psis by i."""

    params: CurveParams
    phis: dict
    psis: dict

    def __len__(self) -> int:
        return len(self.phis) + len(self.psis)

    def labeled(self) -> list[tuple[str, Poly]]:
        """Canonical (label, polynomial) pairs: phis by (i, j), then psis."""
        b = self.params.b
        out = [(f"phi({i},{j})", g) for (i, j), g in sorted(self.phis.items())]
        out += [(f"psi({b},{i})", g) for i, g in sorted(self.psis.items())]
        return out

    def polynomials(self) -> list[Poly]:
        return [g for _, g in self.labeled()]


def groebner_generators(params: CurveParams) -> GeneratorSet:
    """Build the full closed-form set: p(p-1)/2 phis and p-b+1 psis."""
    p, b = params.p, params.b
    phis = {
        (i, j): phi_binomial(params, i, j)
        for i in range(1, p)
        for j in range(i, p)
    }
    psis = {i: psi_binomial(params, i) for i in range(0, p - b + 1)}
    return GeneratorSet(params=params, phis=phis, psis=psis)


@dataclass(frozen=True)
class PatilSet:
    """The classical generating set, with Y identified as X_p.

    xis are keyed by unordered pairs (i, j) in [1, p-2]; phis by
    i in [0, p-2]; psis by j in [0, p-b-1]; theta stands alone.
    """

    params: CurveParams
    xis: dict
    phis: dict
    psis: dict
    theta: Poly

    def __len__(self) -> int:
        return len(self.xis) + len(self.phis) + len(self.psis) + 1

    def labeled(self) -> list[tuple[str, Poly]]:
        b = self.params.b
        out = [(f"xi({i},{j})", g) for (i, j), g in sorted(self.xis.items())]
        out += [(f"phi_{i}", g) for i, g in sorted(self.phis.items())]
        out += [(f"psi_{b},{j}", g) for j, g in sorted(self.psis.items())]
        out.append(("theta", self.theta))
        return out

    def polynomials(self) -> list[Poly]:
        return [g for _, g in self.labeled()]


def patil_generators(params: CurveParams) -> PatilSet:
    p, a, b, d = params.p, params.a, params.b, params.d
    nv = params.nvars

    def term(*factors) -> Poly:
        mono = (0,) * nv
        for idx, power in factors:
            mono = mono_mul(mono, variable_monomial(p, idx, power))
        return Poly(nv, {mono: 1})

    xis = {}
    for i in range(1, p - 1):
        for j in range(i, p - 1):
            if i + j <= p - 1:
                xis[(i, j)] = term((i, 1), (j, 1)) - term((i + j, 1), (0, 1))
            else:
                xis[(i, j)] = term((i, 1), (j, 1)) - term((i + j + 1 - p, 1), (p - 1, 1))
    phis = {
        i: term((i + 1, 1), (p - 1, 1)) - term((i, 1), (p, 1)) for i in range(0, p - 1)
    }
    psis = {
        j: term((b + j, 1), (p, a)) - term((j, 1), (0, a + d)) for j in range(0, p - b)
    }
    theta = term((p, a + 1)) - term((p - b, 1), (0, a + d))
    return PatilSet(params=params, xis=xis, phis=phis, psis=psis, theta=theta)


def expected_leading_monomials(params: CurveParams) -> set:
    """The predicted leading-monomial set: X_i*X_j plus X_{b+i}*X_p^a."""
    p, a, b = params.p, params.a, params.b
    out = set()
    for i in range(1, p):
        for j in range(i, p):
            out.add(mono_mul(variable_monomial(p, i), variable_monomial(p, j)))
    for i in range(0, p - b + 1):
        out.add(mono_mul(variable_monomial(p, b + i), variable_monomial(p, p, a)))
    return out


def is_standard_shape(params: CurveParams, mono: Mono) -> bool:
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


def standard_monomials(params: CurveParams, bound: int) -> list:
    """Monomials with exponents <= bound outside the leading-term ideal."""
    order = WeightOrder(params)
    lms = [order.leading_monomial(g) for g in groebner_generators(params).polynomials()]
    out = []
    for mono in itertools.product(range(bound + 1), repeat=params.nvars):
        if not any(mono_divides(lm, mono) for lm in lms):
            out.append(mono)
    return out


# ---------------------------------------------------------------------------
# verification


def verify_groebner_generators(params: CurveParams) -> VerificationReport:
    """The closed-form set is a Groebner basis with the predicted lead terms.

    Three checks: the computed leading monomials match the closed-form
    set; every S-polynomial reduces to zero against the set itself; and
    an independent Buchberger run produces no new leading monomial.
    """
    order = WeightOrder(params)
    gset = groebner_generators(params)
    labels = [lab for lab, _ in gset.labeled()]
    polys = gset.polynomials()
    report = VerificationReport(params)

    expected = expected_leading_monomials(params)
    actual = {order.leading_monomial(g) for g in polys}
    report.add(
        "leading-term-set",
        actual == expected,
        detail=f"{len(actual)} leading monomials",
        witness=None
        if actual == expected
        else {
            "unexpected": sorted(map(list, actual - expected)),
            "missing": sorted(map(list, expected - actual)),
        },
    )

    table = Reducer(order, polys)
    witness = None
    pairs = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            pairs += 1
            r, _ = normal_form(order, s_polynomial(order, polys[i], polys[j]), table)
            if r:
                witness = {
                    "pair": [labels[i], labels[j]],
                    "remainder": poly_to_json(order, r),
                }
                break
        if witness:
            break
    report.add("s-polynomials-reduce", witness is None, detail=f"{pairs} pairs", witness=witness)

    reduced = buchberger(order, polys)
    new = [
        order.leading_monomial(g)
        for g in reduced
        if not any(mono_divides(m, order.leading_monomial(g)) for m in actual)
    ]
    reduced_lms = [order.leading_monomial(g) for g in reduced]
    lost = [m for m in actual if not any(mono_divides(r, m) for r in reduced_lms)]
    report.add(
        "buchberger-lt-ideal",
        not new and not lost,
        detail=f"{len(reduced)} elements in the reduced basis",
        witness=None
        if not new and not lost
        else {"new": sorted(map(list, new)), "lost": sorted(map(list, lost))},
    )
    return report


def pairwise_lt_division(order: WeightOrder, labeled) -> dict | None:
    """First (divisor, multiple) pair among distinct leading monomials, or None."""
    lms = [(lab, order.leading_monomial(g)) for lab, g in labeled]
    for pos_a, (la, ma) in enumerate(lms):
        for pos_b, (lb, mb) in enumerate(lms):
            if pos_a == pos_b:
                continue
            if mono_divides(ma, mb):
                return {"divisor": la, "multiple": lb, "monomials": [list(ma), list(mb)]}
    return None


def verify_minimality(params: CurveParams, deep: bool = False) -> VerificationReport:
    """No leading term divides another; optionally, no member is redundant.

    The deep check removes one element at a time, closes the rest under
    Buchberger, and confirms the removed element does not reduce to zero.
    """
    order = WeightOrder(params)
    gset = groebner_generators(params)
    labeled = gset.labeled()
    report = VerificationReport(params)

    offender = pairwise_lt_division(order, labeled)
    n = len(labeled)
    report.add(
        "leading-terms-incomparable",
        offender is None,
        detail=f"{n * (n - 1)} ordered pairs",
        witness=offender,
    )

    if deep:
        redundant = None
        for k, (lab, g) in enumerate(labeled):
            others = [h for n, (_, h) in enumerate(labeled) if n != k]
            closure = buchberger(order, others)
            r, _ = normal_form(order, g, closure)
            if not r:
                redundant = {"element": lab}
                break
        report.add(
            "no-redundant-generator",
            redundant is None,
            detail=f"{len(labeled)} one-left-out closures",
            witness=redundant,
        )
    return report


def verify_ideal_equality(params: CurveParams) -> VerificationReport:
    """Both generating sets span the same ideal and have equal size."""
    order = WeightOrder(params)
    gset = groebner_generators(params)
    patil = patil_generators(params)
    report = VerificationReport(params)

    report.add(
        "cardinalities-match",
        len(gset) == len(patil),
        detail=f"{len(gset)} closed-form vs {len(patil)} classical generators",
    )

    gtable = Reducer(order, gset.polynomials())
    stuck = None
    for lab, g in patil.labeled():
        r, _ = normal_form(order, g, gtable)
        if r:
            stuck = {"element": lab, "remainder": poly_to_json(order, r)}
            break
    report.add("classical-set-reduces", stuck is None, witness=stuck)

    closure = Reducer(order, buchberger(order, patil.polynomials()))
    stuck = None
    for lab, g in gset.labeled():
        r, _ = normal_form(order, g, closure)
        if r:
            stuck = {"element": lab, "remainder": poly_to_json(order, r)}
            break
    report.add("closed-form-set-reduces", stuck is None, witness=stuck)

    # rewriting identities tying the two sets together
    p = params.p
    broken = []
    for (i, j), xi in patil.xis.items():
        target = phi_binomial(params, i, j)
        if i + j <= p - 1:
            ok = xi == target
        else:
            ok = xi + patil.phis[i + j - p] == target
        if not ok:
            broken.append(f"xi({i},{j})")
    for i, g in patil.phis.items():
        if g != phi_binomial(params, i + 1, p - 1):
            broken.append(f"phi_{i}")
    for j, g in patil.psis.items():
        if g != psi_binomial(params, j):
            broken.append(f"psi_{params.b},{j}")
    if patil.theta != psi_binomial(params, p - params.b):
        broken.append("theta")
    report.add(
        "rewriting-identities",
        not broken,
        detail=f"{len(patil)} identities",
        witness=None if not broken else {"elements": broken},
    )
    return report


def verify_standard_monomials(params: CurveParams, bound: int) -> VerificationReport:
    """Enumerated standard monomials match the closed-form shape and are
    pairwise inequivalent under the parameterization map."""
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    order = WeightOrder(params)
    lms = [
        order.leading_monomial(g) for g in groebner_generators(params).polynomials()
    ]
    report = VerificationReport(params)

    std = []
    mismatch = None
    for mono in itertools.product(range(bound + 1), repeat=params.nvars):
        outside = not any(mono_divides(lm, mono) for lm in lms)
        if outside:
            std.append(mono)
        if outside != is_standard_shape(params, mono):
            mismatch = {"monomial": list(mono), "outside_lt_ideal": outside}
            break
    report.add(
        "standard-monomial-shape",
        mismatch is None,
        detail=f"{len(std)} standard monomials with exponents <= {bound}",
        witness=mismatch,
    )

    collision = None
    nv = params.nvars
    checked = 0
    for x in range(len(std)):
        for y in range(x + 1, len(std)):
            checked += 1
            diff = Poly(nv, {std[x]: 1}) - Poly(nv, {std[y]: 1})
            if in_curve_ideal(params, diff):
                collision = {"pair": [mono_to_name(std[x]), mono_to_name(std[y])]}
                break
        if collision:
            break
    report.add(
        "standard-monomials-eta-distinct",
        collision is None,
        detail=f"{checked} pairs",
        witness=collision,
    )
    return report
