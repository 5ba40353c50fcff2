"""Closed-form generating sets for the curve ideal, and their verification.

Two generating sets are built.  The primary one pairs quadratic
binomials phi(i, j) = X_i*X_j - X_eps*X_{i+j-eps} with the power
binomials psi(b, i) = X_{b+i}*X_p^a - X_i*X_0^(a+d); it is a minimal
Groebner basis under the weighted order.  The classical set of Patil is
built alongside for cross-checks: both sets generate the same ideal and
have the same cardinality.

Every verification routine takes the triple's syzygy.Curve, which holds
both sets, the ring order and a Reducer of the closed-form basis, built
once.  It returns a VerificationReport and records a witness on failure
instead of raising.  Standard monomials are reached as an order ideal
from 1 and compared with the paper's shape, written out in closed form;
no check walks the exponent box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .polyring import (
    Closure,
    Poly,
    Reducer,
    WeightOrder,
    _first_dividing_pair,
    buchberger,
    mono_divides,
    mono_mul,
    mono_one,
    mono_to_name,
    normal_form,
    poly_to_json,
    variable_monomial,
)
from .report import VerificationReport
from .semigroup import CurveParams

if TYPE_CHECKING:
    from .syzygy import Curve


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


def standard_shape(params: CurveParams, bound: int) -> list:
    """The paper's standard monomials with exponents <= bound, ascending.

    They are X0^e * X_p^n * u, where u is 1 or one X_i with i in [1, p-1],
    n <= a, and n <= a - 1 whenever i >= b; the X0 exponent e is free.
    Built from (p, a, b) alone, never from lead terms, as an outside
    oracle for standard_monomials.
    """
    p, a, b = params.p, params.a, params.b
    out = []
    for i in range(p):  # u = X_i, and u = 1 at i = 0
        core = tuple(int(k == i) for k in range(1, p))
        top = a - 1 if i >= b else a
        out += [core + (n, e) for n in range(min(top, bound) + 1) for e in range(bound + 1)]
    return sorted(out)


def standard_monomials(curve: Curve, bound: int) -> list:
    """Monomials with exponents <= bound outside the leading-term ideal, in
    ascending order.  They form an order ideal, reached from 1 by raising
    one exponent at a time and never entering a multiple of a lead."""
    lms = [lm for lm, *_ in curve.ring_reducer.rows[None]]
    one = mono_one(curve.params.nvars)
    seen, stack, out = {one}, [one], []
    while stack:
        mono = stack.pop()
        if any(mono_divides(lm, mono) for lm in lms):
            continue
        out.append(mono)
        for pos, e in enumerate(mono):
            up = mono[:pos] + (e + 1,) + mono[pos + 1:]
            if e < bound and up not in seen:
                seen.add(up)
                stack.append(up)
    return sorted(out)


# ---------------------------------------------------------------------------
# verification


def verify_groebner_generators(curve: Curve) -> VerificationReport:
    """The closed-form set is a Groebner basis with the predicted lead terms.

    Three checks: the computed leading monomials match the closed-form
    set; every S-polynomial reduces to zero against the set itself; and
    an independent Buchberger run produces no new leading monomial.  The
    identity K(LT(G)) = N, once every element lies in the curve ideal,
    decides the S-polynomials (Curve.ring_certified), and the detail
    counts every pair.  Otherwise the harvest of every pair (curve.harvest)
    is scanned i-major, and the first failure is the witness.
    """
    params, order = curve.params, curve.order
    labels, polys = zip(*curve.gset.labeled())
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

    witness = None
    pairs = len(polys) * (len(polys) - 1) // 2
    if not curve.ring_certified():
        for pairs, (i, j, r, _) in enumerate(sorted(curve.harvest(), key=lambda row: row[:2]), 1):
            if r:
                witness = {"pair": [labels[i], labels[j]], "remainder": poly_to_json(order, r)}
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


def _mixed_weight(params: CurveParams, labeled) -> dict | None:
    """The first (label, polynomial) whose terms carry more than one weight,
    as a witness with its distinct weights ascending, or None."""
    for lab, g in labeled:
        weights = sorted({params.weight(m) for m in g.terms})
        if len(weights) > 1:
            return {"element": lab, "weights": weights}
    return None


def _rank(order: WeightOrder, polys) -> int:
    """The dimension of the span of polys over the rationals: the rows of a
    Reducer grown by each non-zero remainder.  Division subtracts u * row,
    a linear combination only when u = 1, as here: the forms of
    _redundant_by_weight share one weight, so a lead divides one of their
    monomials only when it equals it."""
    rows = Reducer(order)
    for g in polys:
        remainder = rows.divide(g)[0]
        if remainder:
            rows.append(remainder)
    return len(rows.basis)


def _redundant_by_weight(order: WeightOrder, labeled) -> str | None:
    """The label of the first weight-homogeneous generator that lies in the
    ideal of the others, or None; see verify_minimality."""
    by_weight = {}
    for k, (_, g) in enumerate(labeled):
        by_weight.setdefault(order.weight(order.leading_monomial(g)), []).append(k)
    grown = Closure(order)
    first = len(labeled)
    for w in sorted(by_weight):
        table = grown.close(w)
        same = by_weight[w]
        forms = [normal_form(labeled[k][1], table)[0] for k in same]
        full = _rank(order, forms)
        for n, k in enumerate(same):
            if k < first and _rank(order, forms[:n] + forms[n + 1:]) == full:
                first = k
                break
        for k in same:
            grown.add(labeled[k][1])
    return labeled[first][0] if first < len(labeled) else None


def verify_minimality(curve: Curve, deep: bool = False) -> VerificationReport:
    """No leading term divides another; optionally, no member is redundant.

    The deep check first confirms that every element has a single weight,
    and fails with the first that does not, and its weights.  Otherwise a
    generator g of weight w lies in the ideal of the others exactly when
    it lies in their span at weight w: the multiples of the lighter
    generators there, plus the other generators of weight w themselves.
    One Closure, grown weight by weight, decides that for every g: closed
    up to w with only the lighter generators added, it is a Groebner basis
    of theirs up to weight w (polyring.Closure.close), so normal forms
    modulo it are unique and linear there.  g is then redundant exactly
    when the normal forms of the weight-w generators lose rank without
    g's, which includes g's normal form being zero.  The generators of
    weight w join the closure afterwards.  The witness is the redundant
    generator that comes first in label order, and the detail counts the
    generators tested.  The cost is one closure up to the heaviest weight,
    in S-pairs rather than in m0 or d.
    """
    params, order = curve.params, curve.order
    labeled = curve.gset.labeled()
    report = VerificationReport(params)

    leads = [(order.leading_monomial(g), k) for k, (_, g) in enumerate(labeled)]
    first = _first_dividing_pair([leads])
    offender = None if first is None else {
        "divisor": labeled[first[0]][0], "multiple": labeled[first[1]][0],
        "monomials": [list(leads[k][0]) for k in first]}
    n = len(labeled)
    report.add(
        "leading-terms-incomparable",
        offender is None,
        detail=f"{n * (n - 1)} ordered pairs",
        witness=offender,
    )

    if deep:
        redundant = _mixed_weight(params, labeled)
        if redundant is None:
            first = _redundant_by_weight(order, labeled)
            redundant = None if first is None else {"element": first}
        report.add(
            "no-redundant-generator",
            redundant is None,
            detail=f"{len(labeled)} one-left-out closures",
            witness=redundant,
        )
    return report


def verify_ideal_equality(curve: Curve) -> VerificationReport:
    """Both generating sets span the same ideal and have equal size.

    The classical set reduces by the closed-form basis; the closed-form
    set reduces by the classical set's closure truncated at the heaviest
    closed-form weight, once every element of both sets is confirmed to
    have a single weight (see verify_minimality).
    """
    params, order, gset, patil = curve.params, curve.order, curve.gset, curve.patil
    report = VerificationReport(params)

    report.add(
        "cardinalities-match",
        len(gset) == len(patil),
        detail=f"{len(gset)} closed-form vs {len(patil)} classical generators",
    )

    stuck = None
    for lab, g in patil.labeled():
        r, _ = normal_form(g, curve.ring_reducer)
        if r:
            stuck = {"element": lab, "remainder": poly_to_json(order, r)}
            break
    report.add("classical-set-reduces", stuck is None, witness=stuck)

    # the classical set's closure up to the heaviest closed-form element
    stuck = _mixed_weight(params, patil.labeled() + gset.labeled())
    if stuck is None:
        top = max(params.weight(order.leading_monomial(g)) for g in gset.polynomials())
        table = Closure(order, patil.polynomials()).close(top)
        for lab, g in gset.labeled():
            r, _ = normal_form(g, table)
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


def verify_standard_monomials(curve: Curve, bound: int) -> VerificationReport:
    """Standard monomials match the closed-form shape (standard_shape is an
    outside oracle) and have pairwise distinct weights, i.e. distinct
    images under X_i -> T^(m_i).

    A mismatch is the smallest monomial in one list but not the other:
    the first one a walk over the whole exponent box would meet.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    params = curve.params
    report = VerificationReport(params)

    std = standard_monomials(curve, bound)
    walked = set(std)
    differ = walked.symmetric_difference(standard_shape(params, bound))
    mismatch = None
    if differ:
        mono = min(differ)
        mismatch = {"monomial": list(mono), "outside_lt_ideal": mono in walked}
        # report only the standard monomials up to the mismatch, in box order
        std = [m for m in std if m <= mono]
    report.add(
        "standard-monomial-shape",
        mismatch is None,
        detail=f"{len(std)} standard monomials with exponents <= {bound}",
        witness=mismatch,
    )

    # the first colliding (x, y) in pair order, and the pairs tried up to it
    first, pairs = {}, []
    for y, mono in enumerate(std):
        x = first.setdefault(params.weight(mono), y)
        if x < y:
            pairs.append((x, y))
    n = len(std)
    checked, collision = n * (n - 1) // 2, None
    if pairs:
        x, y = min(pairs)
        checked = x * (n - 1) - x * (x - 1) // 2 + (y - x)
        collision = {"pair": [mono_to_name(std[x]), mono_to_name(std[y])]}
    report.add(
        "standard-monomials-eta-distinct",
        collision is None,
        detail=f"{checked} pairs",
        witness=collision,
    )
    return report
