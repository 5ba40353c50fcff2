"""Closed-form generating sets for the curve ideal, and their verification.

Two generating sets are built.  The primary one pairs quadratic
binomials phi(i, j) = X_i*X_j - X_eps*X_{i+j-eps} with the power
binomials psi(b, i) = X_{b+i}*X_p^a - X_i*X_0^(a+d); it is a minimal
Groebner basis under the weighted order.  The classical set of Patil is
built alongside for cross-checks: both sets generate the same ideal and
have the same cardinality.  Each set reads one table of the triple's
unit monomials (_units), and fills each family in one loop over its own
index range; a member is read from its family's map, as
groebner_generators(params).phis[i, j].

Every verification routine takes the triple's syzygy.Curve, which holds
both sets, the ring order, the ring Reducer of the closed-form set G,
the one copy of G, its leads and pairs that a ring check reads, and the
one closure of G, built only when a certificate fails: the
Hilbert-series certificate (_certified), in closed form when the leads
of G are the predicted ones, that G is a Groebner basis, or the count of
minimal generators per weight (_minimal_by_count) that it is minimal.
It returns a VerificationReport and records a witness on failure instead
of raising.
The standard-monomial checks hold for all exponents.  A passing triple
decides them, and both reductions of the ideal equality, from closed
forms and the ring certificate: it walks no exponent box and divides
nothing.  bound caps only the counts in their details and the search
for the witness of a failure, where the standard monomials are reached
as an order ideal from 1 and compared with the paper's shape, written
out in closed form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

from .polyring import (
    Closure,
    Poly,
    Reducer,
    WeightOrder,
    _first_dividing_pair,
    _minimal,
    hilbert_numerator,
    mono_divides,
    mono_mul,
    mono_one,
    mono_to_name,
    normal_form,
    poly_to_json,
    variable_monomial,
)
from .report import VerificationReport
from .semigroup import CurveParams, _add_shifted, _apery_by_mp, _betti_1, apery_numerator

if TYPE_CHECKING:
    from .syzygy import Curve


def epsilon(i: int, j: int, p: int) -> int:
    """i + j capped at p: i + j when i + j < p, else p."""
    return i + j if i + j < p else p


def _units(params: CurveParams) -> list:
    """The unit monomials of one triple, each built once: X_k at index k
    for k in [0, p] (X0 sits last, polyring.variable_position), then X_p^a
    and X_0^(a+d).  Each family is filled from them in one loop."""
    p, a, zeros = params.p, params.a, (0,) * params.p
    units = [zeros + (1,)] + [zeros[:k - 1] + (1,) + zeros[k - 1:] for k in range(1, p + 1)]
    return units + [zeros[:p - 1] + (a, 0), zeros + (a + params.d,)]


def _family_phi(params: CurveParams, units: list) -> dict:
    """phi(i, j) = X_i*X_j - X_eps(i,j)*X_{i+j-eps(i,j)}, keyed by (i, j)
    for 1 <= i <= j <= p-1.  The two monomials of a binomial differ, so
    its terms are written directly."""
    p, nv, out = params.p, params.nvars, {}
    for i in range(1, p):
        for j in range(i, p):
            e = epsilon(i, j, p)
            lead, tail = mono_mul(units[i], units[j]), mono_mul(units[e], units[i + j - e])
            out[i, j] = Poly._raw(nv, {lead: 1, tail: -1})
    return out


def _family_psi(params: CurveParams, units: list) -> dict:
    """psi(b, i) = X_{b+i}*X_p^a - X_i*X_0^(a+d) for i in [0, p-b], keyed by
    i.  At i = 0 the trailing term collapses to X_0^(a+d+1); at i = p - b
    the leading term collapses to X_p^(a+1)."""
    p, b, nv = params.p, params.b, params.nvars
    xpa, x0ad = units[p + 1], units[p + 2]
    return {i: Poly._raw(nv, {mono_mul(units[b + i], xpa): 1, mono_mul(units[i], x0ad): -1})
            for i in range(p - b + 1)}


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


def _closed_form(params: CurveParams) -> tuple[dict, dict]:
    """The phis and the psis of the closed-form set, from one table."""
    units = _units(params)
    return _family_phi(params, units), _family_psi(params, units)


def groebner_generators(params: CurveParams) -> GeneratorSet:
    """Build the full closed-form set: p(p-1)/2 phis and p-b+1 psis."""
    return GeneratorSet(params, *_closed_form(params))


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
    p, b, nv, x = params.p, params.b, params.nvars, _units(params)
    xpa, x0ad = x[p + 1], x[p + 2]

    def binomial(lead, tail) -> Poly:
        return Poly._raw(nv, {lead: 1, tail: -1})

    xis = {}
    for i in range(1, p - 1):
        for j in range(i, p - 1):
            k, u = (i + j, 0) if i + j <= p - 1 else (i + j + 1 - p, p - 1)
            xis[i, j] = binomial(mono_mul(x[i], x[j]), mono_mul(x[k], x[u]))
    phis = {i: binomial(mono_mul(x[i + 1], x[p - 1]), mono_mul(x[i], x[p])) for i in range(p - 1)}
    psis = {j: binomial(mono_mul(x[b + j], xpa), mono_mul(x[j], x0ad)) for j in range(p - b)}
    theta = binomial(mono_mul(xpa, x[p]), mono_mul(x[p - b], x0ad))
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
    one exponent at a time and never entering a multiple of a lead.  When
    the exponent at pos of a standard monomial is raised to e, a lead that
    divides the result carries exactly e at pos, as it does not divide the
    monomial, so only those leads are tested."""
    lms = curve.ring_reducer.lead_monomials()
    one = mono_one(curve.params.nvars)
    if one in lms:
        return []
    at = {}
    for lm in lms:
        for pos, e in enumerate(lm):
            if e:
                at.setdefault((pos, e), []).append(lm)
    seen, out = {one}, [one]
    for mono in out:
        for pos, e in enumerate(mono):
            up = mono[:pos] + (e + 1,) + mono[pos + 1:]
            if e < bound and up not in seen:
                seen.add(up)
                if not any(mono_divides(lm, up) for lm in at.get((pos, e + 1), ())):
                    out.append(up)
    return sorted(out)


# ---------------------------------------------------------------------------
# verification


def verify_groebner_generators(curve: Curve) -> VerificationReport:
    """The closed-form set is a Groebner basis with the predicted lead terms.

    Three checks, on G as the ring Reducer holds it: the leading monomials
    are the predicted ones (Curve.predicted_leads); every S-polynomial
    reduces to zero against G itself; and the reduced Groebner basis of
    the ideal of G has no new leading monomial.  The identity K(LT(G)) =
    N, once every element lies in the curve ideal, decides both Groebner
    claims (Curve.ring_certified): in closed form when the leads are the
    predicted ones, as the first check finds, and by Bigatti's recursion
    on any other lead set.  The S-pair detail then counts every pair, and
    the reduced basis leads with the minimal leads of G.  Otherwise every
    pair is divided x-major, and the first non-zero remainder is the
    witness; and the triple's one closure (Curve.closure), closed
    untruncated, is a Groebner basis of the ideal of G.

    The reduced Groebner basis has one element per minimal generator of
    the lead ideal (Cox, Little, O'Shea, section 2.7), so the distinct
    leads that no other divides stand for it.  The closure can hold equal
    leads, and a later lead can divide an earlier one.  No lead of G is
    lost: the leads read are G's own when the certificate holds, and the
    closure's otherwise, which holds each element of G made monic, so a
    minimal lead divides each.  Only new leads are scanned for, and the
    witness keeps an empty "lost" list.
    """
    params, order, table = curve.params, curve.order, curve.ring_reducer
    labels = [lab for lab, _ in curve.gset.labeled()]
    report = VerificationReport(params)

    expected = curve.predicted_leads
    actual = set(table.lead_monomials())
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

    witness, leads, pairs = None, actual, table.pair_count()
    if not curve.ring_certified:
        pairs, pair, r = table.first_unreduced()
        if pair:
            witness = {"pair": [labels[k] for k in pair], "remainder": poly_to_json(order, r)}
        leads = curve.closure()[0].close().lead_monomials()
    report.add("s-polynomials-reduce", witness is None, detail=f"{pairs} pairs", witness=witness)

    # a lead in both sets divides itself, so only the others are scanned
    reduced = _minimal(leads)
    new = [r for r in reduced if r not in actual and not any(mono_divides(m, r) for m in actual)]
    report.add(
        "buchberger-lt-ideal",
        not new,
        detail=f"{len(reduced)} elements in the reduced basis",
        witness={"new": sorted(map(list, new)), "lost": []} if new else None,
    )
    return report


def _first_mixed(weighed) -> dict | None:
    """The first (label, weights) with more than one weight, as a witness
    with its weights ascending, or None."""
    for lab, weights in weighed:
        if len(weights) > 1:
            return {"element": lab, "weights": sorted(weights)}
    return None


def _mixed_weight(params: CurveParams, labeled) -> dict | None:
    """The first (label, polynomial) whose terms carry more than one weight,
    as a witness with its distinct weights ascending, or None."""
    return _first_mixed((lab, {params.weight(m) for m in g.terms}) for lab, g in labeled)


def _weight_sums(params: CurveParams, g: Poly) -> dict:
    """g's coefficient sum at each weight of its terms.  g lies in the
    curve ideal I, the kernel of X_i -> t^{m_i}, exactly when every sum is
    0, and its distinct weights are the keys."""
    sums, weight = {}, params.weight
    for m, c in g.terms.items():
        w = weight(m)
        sums[w] = sums.get(w, 0) + c
    return sums


def _first_stuck(labeled, table: Reducer) -> dict | None:
    """The first (label, polynomial) with a non-zero remainder by table, as
    a witness with that remainder, or None."""
    for lab, g in labeled:
        r, _ = normal_form(g, table)
        if r:
            return {"element": lab, "remainder": poly_to_json(table.order, r)}
    return None


def _shape_by_mp(params: CurveParams) -> dict:
    """S(t)(1 - t^{m_p}), where S(t) sums t^w over the paper's shape free of
    X0, the X_p^n * u of standard_shape: per u, 1 or X_i with i in [1, p-1],
    t^{w(u)}(1 - t^{(top+1) m_p}), with top = a, or a - 1 once i >= b."""
    gens, mp, series = params.generators, params.generators[-1], {}
    for i in range(params.p):  # u = X_i, and u = 1 at i = 0
        w = gens[i] if i else 0
        _add_shifted(series, {w: 1, w + (params.a + (i < params.b)) * mp: -1})
    return series


def _certified(table: Reducer, expected: set) -> bool:
    """Whether the basis G of the ring Reducer table, of one weight per
    element (see _mixed_weight), is a Groebner basis of the curve ideal I:
    each element lies in I, as its coefficients sum to 0, and K(LT(G)) =
    N.  Then <LT(G)>, inside LT(I), has the Hilbert series of I and equals
    it (Macaulay; Cox, Little, O'Shea, sections 5.2 and 2.7).

    expected is expected_leading_monomials(params), built once per Curve
    (Curve.predicted_leads).  When the leads of G are those, the standard
    monomials of LT(G) are X0^e times the shape X_p^n * u, a free
    K[X0]-module, so K(LT(G)) = S(t) prod_{i=1..p}(1 - t^{m_i}) and N =
    A(t) prod_{i=1..p}(1 - t^{m_i}): the identity is S(t)(1 - t^{m_p}) =
    A(t)(1 - t^{m_p}), O(p) terms on each side (_shape_by_mp,
    semigroup._apery_by_mp).  Any other lead set goes to Bigatti's
    recursion (polyring.hilbert_numerator)."""
    params, leads = table.order.params, table.lead_monomials()
    if any(sum(g.terms.values()) for g in table.basis):
        return False
    if set(leads) == expected:
        return _shape_by_mp(params) == _apery_by_mp(params)
    return hilbert_numerator(params.exponent_weights, leads) == apery_numerator(params)


def _minimal_by_count(table: Reducer) -> bool:
    """Whether the basis G of the ring Reducer table, once certified a
    Groebner basis of the curve ideal I (Curve.ring_certified), is minimal:
    G generates I, so by graded Nakayama it holds at least beta_1(w)
    elements of each weight w, the number of minimal generators of I there
    (semigroup._betti_1), and no element is redundant exactly when every
    weight of G carries exactly beta_1(w) of them."""
    counts = Counter(map(table.order.weight, table.lead_monomials()))
    return _betti_1(table.order.params, counts) == counts


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


def _closure_by_weight(table: Reducer) -> tuple[Closure, list]:
    """One Closure of the basis of the ring Reducer table, grown weight by
    weight: at each lead weight w, ascending, it is closed up to w, the
    weight-w generators are divided by it in list order, and then they
    join it.  Returns the Closure, holding every generator and closed only
    up to the heaviest (close() resumes it to a Groebner basis of their
    ideal), and per weight the (index, normal form) of each of its
    generators; see verify_minimality."""
    order, basis = table.order, table.basis
    by_weight = {}
    for k, (lm, _) in enumerate(table.leads):
        by_weight.setdefault(order.weight(lm), []).append(k)
    grown = Closure(order)
    forms = []
    for w in sorted(by_weight):
        closed = grown.close(w)
        forms.append([(k, normal_form(basis[k], closed)[0]) for k in by_weight[w]])
        for k in by_weight[w]:
            grown.append(basis[k])
    return grown, forms


def _redundant_by_weight(order: WeightOrder, forms) -> int | None:
    """The index of the first weight-homogeneous generator that lies in the
    ideal of the others, or None, from the per-weight normal forms of
    _closure_by_weight; see verify_minimality."""
    first = None
    for same in forms:
        polys = [f for _, f in same]
        full = _rank(order, polys)
        for n, (k, _) in enumerate(same):
            if (first is None or k < first) and _rank(order, polys[:n] + polys[n + 1:]) == full:
                first = k
                break
    return first


def verify_minimality(curve: Curve, deep: bool = False) -> VerificationReport:
    """No leading term divides another; optionally, no member is redundant.

    The deep check first confirms that every element has a single weight,
    and fails with the first that does not, and its weights (a certified
    G has one weight per element already).  When the
    ring certificate holds (Curve.ring_certified), counting the elements
    per weight against beta_1 decides the check (_minimal_by_count), and
    no closure is built.  Otherwise, or when a count differs, the rank
    tests name the witness.  A generator g of weight w lies in the ideal
    of the others exactly when it lies in their span at weight w: the
    multiples of the lighter generators there, plus the other generators
    of weight w themselves.  The triple's one Closure, grown weight by
    weight (Curve.closure), decides that for every g: closed up to w with
    only the lighter generators added, it is a Groebner basis of theirs up
    to weight w (polyring.Closure.close), so normal forms modulo it are
    unique and linear there.  g is then redundant exactly when the normal
    forms of the weight-w generators lose rank without g's, which includes
    g's normal form being zero.  The generators of weight w join the
    closure afterwards.  The witness is the redundant generator that comes
    first in label order, and the detail counts the generators, as it did
    when each was tested by a closure of its own.
    """
    params, table, labeled = curve.params, curve.ring_reducer, curve.gset.labeled()
    labels = [lab for lab, _ in labeled]
    report = VerificationReport(params)

    first = _first_dividing_pair(table)
    offender = None if first is None else {
        "divisor": labels[first[0]], "multiple": labels[first[1]],
        "monomials": [list(table.leads[k][0]) for k in first]}
    n = len(table.basis)
    report.add(
        "leading-terms-incomparable",
        offender is None,
        detail=f"{n * (n - 1)} ordered pairs",
        witness=offender,
    )

    if deep:
        redundant = None if curve.ring_certified else _mixed_weight(params, labeled)
        if redundant is None and not (curve.ring_certified and _minimal_by_count(table)):
            first = _redundant_by_weight(curve.order, curve.closure()[1])
            redundant = None if first is None else {"element": labels[first]}
        report.add(
            "no-redundant-generator",
            redundant is None,
            detail=f"{n} one-left-out closures",
            witness=redundant,
        )
    return report


def verify_ideal_equality(curve: Curve) -> VerificationReport:
    """Both generating sets span the same ideal and have equal size.

    A passing triple divides nothing.  Once G, the closed-form set (the
    ring Reducer), is certified a Groebner basis of the curve ideal I
    (Curve.ring_certified), a classical binomial reduces to zero by G
    exactly when it lies in I (_weight_sums).  The classical set is
    divided by G, for the first remainder, only when one does not, or
    when G is not certified.  An element of G that a rewriting identity
    writes as a classical element or a sum of two lies in the classical
    ideal.  Should one not, once every element of both sets has a single
    weight, G is divided by the classical set, where a zero remainder
    proves membership; only if a remainder is left must G reduce by the
    classical set's closure, truncated at the heaviest weight of G.
    """
    params, order, table, patil = curve.params, curve.order, curve.ring_reducer, curve.patil
    labeled = curve.gset.labeled()
    report = VerificationReport(params)

    report.add(
        "cardinalities-match",
        len(labeled) == len(patil),
        detail=f"{len(labeled)} closed-form vs {len(patil)} classical generators",
    )

    # each classical element weighed once, for both its membership in I
    # and its distinct weights
    classical = patil.labeled()
    weighed = [(lab, _weight_sums(params, g)) for lab, g in classical]
    in_ideal = curve.ring_certified and not any(any(s.values()) for _, s in weighed)
    stuck = None if in_ideal else _first_stuck(classical, table)
    report.add("classical-set-reduces", stuck is None, witness=stuck)

    # rewriting identities: each closed form as a classical element or a
    # sum of two
    p, b, (phi, psi) = params.p, params.b, _closed_form(params)
    identities = [(f"xi({i},{j})", xi + patil.phis[i + j - p] if i + j > p - 1 else xi, phi[i, j])
                  for (i, j), xi in patil.xis.items()]
    identities += [(f"phi_{i}", g, phi[i + 1, p - 1]) for i, g in patil.phis.items()]
    identities += [(f"psi_{b},{j}", g, psi[j]) for j, g in patil.psis.items()]
    identities.append(("theta", patil.theta, psi[p - b]))
    sums = {lhs for _, lhs, _ in identities}

    # division by the classical set, and its closure up to the heaviest
    # closed-form element only when a remainder is left; a certified G has
    # one weight per element already (Curve.ring_certified)
    stuck = _first_mixed(weighed) or (None if curve.ring_certified
                                      else _mixed_weight(params, labeled))
    if (stuck is None and not all(g in sums for g in table.basis)
            and _first_stuck(labeled, Reducer(order, patil.polynomials()))):
        top = max(params.weight(lm) for lm in table.lead_monomials())
        stuck = _first_stuck(labeled, Closure(order, patil.polynomials()).close(top))
    report.add("closed-form-set-reduces", stuck is None, witness=stuck)

    broken = [lab for lab, lhs, rhs in identities if lhs != rhs]
    report.add(
        "rewriting-identities",
        not broken,
        detail=f"{len(patil)} identities",
        witness=None if not broken else {"elements": broken},
    )
    return report


def _shape_weights_distinct(params: CurveParams) -> bool:
    """Whether the members of the paper's shape have pairwise distinct
    weights, over all exponents, in O(p).  X0^e * X_p^n * u, with u = X_i,
    or i = 0 for u = 1, weighs (e + n + [i >= 1])*m0 + (n*p + i)*d.  The
    values n*p + i of the shape are distinct, as i < p.  When they lie in
    [0, m0 - 1] and gcd(m0, d) = 1, the weights of two members are equal
    mod m0 only when they share (n, i), and then their e differs."""
    p, a, b, m0 = params.p, params.a, params.b, params.m0
    largest = max(i + p * (a - 1 if i >= b else a) for i in range(p))
    return largest < m0 and gcd(m0, params.d) == 1


def verify_standard_monomials(curve: Curve, bound: int) -> VerificationReport:
    """Standard monomials match the closed-form shape (standard_shape is an
    outside oracle) and have pairwise distinct weights, i.e. distinct
    images under X_i -> T^(m_i), for all exponents.

    The minimal monomials outside the shape are E =
    expected_leading_monomials(params) (Curve.predicted_leads), and two
    monomial ideals are equal exactly when their minimal generators are, so
    the standard monomials are the shape exactly when the minimal leads of
    G are E.  The weights
    then differ (_shape_weights_distinct), and the details count the
    shape's members with exponents <= bound, in closed form, and their
    pairs: a passing check allocates nothing of the bound's size.

    Only a failing shape walks the box, for its witness: the order-ideal
    walk (standard_monomials) is compared with standard_shape, and a
    mismatch is the smallest monomial in one list but not the other, the
    first one a walk over the whole exponent box would meet.  With none in
    the box, it is the smallest monomial in one of the two minimal sets
    but not the other: the smallest monomial, over all exponents, that is
    standard by one and not by the other.  The walk's list, up to the
    mismatch, is then searched for the first pair of equal weight.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    params = curve.params
    report = VerificationReport(params)

    leads, expected = curve.ring_reducer.lead_monomials(), curve.predicted_leads
    exact = set(leads) == expected or set(_minimal(leads)) == expected
    mismatch = std = None
    if exact:
        # the shape's size: per u = X_i (1 at i = 0), n <= top and e <= bound
        p, a, b = params.p, params.a, params.b
        n = sum((min(a - 1 if i >= b else a, bound) + 1) * (bound + 1) for i in range(p))
    else:
        std = standard_monomials(curve, bound)
        walked = set(std)
        differ = walked.symmetric_difference(standard_shape(params, bound))
        if differ:
            mono = min(differ)
            mismatch = {"monomial": list(mono), "outside_lt_ideal": mono in walked}
            # report only the standard monomials up to the mismatch, in box order
            std = [m for m in std if m <= mono]
        else:
            # a minimal lead outside E is not standard; a member of E that
            # is not a minimal lead is
            mono = min(expected.symmetric_difference(_minimal(leads)))
            mismatch = {"monomial": list(mono), "outside_lt_ideal": mono in expected}
        n = len(std)
    report.add(
        "standard-monomial-shape",
        mismatch is None,
        detail=f"{n} standard monomials with exponents <= {bound}",
        witness=mismatch,
    )

    checked, collision = n * (n - 1) // 2, None
    if not (exact and _shape_weights_distinct(params)):
        if std is None:
            std = standard_shape(params, bound)
        # the first colliding (x, y) in pair order, and the pairs tried up to it
        first, pairs = {}, []
        for y, mono in enumerate(std):
            x = first.setdefault(params.weight(mono), y)
            if x < y:
                pairs.append((x, y))
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
