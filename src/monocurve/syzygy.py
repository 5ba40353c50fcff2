"""The free module over the ring presenting the relations among the
closed-form generators, and the Groebner basis of its syzygy submodule.

Module elements are sums of terms (monomial, symbol) where the symbol is
either Psi(j), standing for the power binomial psi(b, j), or Phi(i, j)
(canonically i <= j), standing for the quadratic binomial phi(i, j).
The evaluation map sends a term to monomial * binomial; an element is a
relation when its image is zero.

Two index conventions matter everywhere and are applied at construction
time, never stored:
  * Phi(i, j) = Phi(j, i), so pairs are kept sorted;
  * Phi(i, j) is zero whenever either index leaves [1, p-1].  Indices 0
    and p do occur in the syzygy displays; dropping them agrees with the
    fact that the quadratic binomial built from such an index vanishes
    identically, which is what the kernel checks confirm.

Terms are ordered by comparing their projections (monomial times the
lead monomial of the symbol's binomial) under the ring order, with a
fixed symbol tie-break: lower Psi index wins, Psi beats Phi, and Phi
pairs compare by (j, i).

ModElement is a polyring.SparseMap keyed by (monomial, symbol), with
Poly's arithmetic and validating constructor, and ModuleOrder a
polyring.TermOrder.  module_normal_form runs the ring's division loop
(polyring.Reducer): a module basis is prepared once with its lead terms
grouped by symbol, where a ring basis has the one symbol None.
S-vectors come from the ring's S-pair builder, polyring.s_polynomial,
for the pairs of basis elements whose leads share a symbol, read from
those groups (Reducer.pairs).  schreyer_relations lifts each S-pair of
the ring basis to a module element.  The excluded families of module
terms are boxes of exponents, each tested against the grouped lead terms
through its largest member.

Both Groebner claims are decided by one Hilbert-series identity each
(Curve.ring_certified, _module_identity), in terms of N, the Hilbert
numerator of the curve ideal (semigroup.apery_numerator), and K, that of
a monomial ideal (polyring.hilbert_numerator).  A passing triple divides
no S-pair; when an identity or a hypothesis fails, the checks scan every
pair and name the first failure with its witness and count.

A Curve holds what every check of one triple shares, each built once,
and every verify_* report takes one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .generators import (
    _mixed_weight,
    epsilon,
    groebner_generators,
    patil_generators,
    phi_binomial,
    psi_binomial,
    tau,
)
from .polyring import (
    Mono,
    Poly,
    Reducer,
    SparseMap,
    TermOrder,
    WeightOrder,
    ZeroPolynomialError,
    _exact,
    _first_dividing_pair,
    _join_signed,
    _json_terms,
    _term_text,
    hilbert_numerator,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_to_name,
    normal_form,
    poly_to_json,
    s_polynomial,
    variable_monomial,
)
from .report import VerificationReport
from .semigroup import CurveParams, _add_shifted, apery_numerator


# Symbols are named tuples, so that hashing and comparing a module term
# (monomial, symbol) runs in C.  A symbol never shares a dict or a sort
# with a bare tuple, and Psi and Phi differ in length, so none equals
# another of the other kind.


class Psi(NamedTuple):
    j: int

    def __str__(self) -> str:
        return f"Psi({self.j})"


class Phi(NamedTuple):
    i: int
    j: int

    def __str__(self) -> str:
        return f"Phi({self.i},{self.j})"


def psi_symbol(params: CurveParams, j: int) -> Psi:
    if not 0 <= j <= params.p - params.b:
        raise IndexError(f"Psi index {j} outside [0, {params.p - params.b}]")
    return Psi(j)


def phi_symbol(params: CurveParams, i: int, j: int) -> Phi | None:
    """Canonical Phi symbol, or None when the zero convention applies."""
    if i > j:
        i, j = j, i
    if i < 1 or j > params.p - 1:
        return None
    return Phi(i, j)


class ModElement(SparseMap):
    """Element of the free module: map (monomial, symbol) -> non-zero coefficient."""

    __slots__ = ()

    @staticmethod
    def _key(term, nvars: int):
        mono, sym = term
        return (Poly._key(mono, nvars), sym)

    @staticmethod
    def _shift(term, mono: Mono):
        return (mono_mul(term[0], mono), term[1])

    @classmethod
    def term(cls, nvars: int, mono: Mono, sym, coeff=1) -> "ModElement":
        # the check of _key, written out: projection builds many terms
        if len(mono) != nvars:
            raise ValueError(f"monomial {mono} does not have {nvars} exponents")
        coeff = _exact(coeff)
        return cls._raw(nvars, {(tuple(mono), sym): coeff} if coeff else {})

    @classmethod
    def from_poly(cls, poly: Poly, sym) -> "ModElement":
        return cls._raw(poly.nvars, {(m, sym): c for m, c in poly.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "ModElement(0)"
        parts = [
            f"{c}*{mono_to_name(m)}*{s}" for (m, s), c in sorted(self.terms.items(), key=str)
        ]
        return f"ModElement({' + '.join(parts)})"


# ---------------------------------------------------------------------------
# evaluation and the module order


def relation_image(curve: Curve, elem: ModElement) -> Poly:
    """Evaluate an element: sum of coeff * monomial * symbol image."""
    images = curve.images
    acc = {}
    for (mono, sym), c in elem.terms.items():
        for m2, c2 in images[sym].terms.items():
            mm = mono_mul(mono, m2)
            v = acc.get(mm, 0) + c * c2
            if v:
                acc[mm] = v
            elif mm in acc:
                del acc[mm]
    return Poly._raw(curve.params.nvars, acc)


def _stamp(params: CurveParams, sym) -> Mono:
    """The predicted lead monomial of a symbol's binomial: X_p^a * X_{b+j}
    for Psi(j), X_i * X_j for Phi(i, j)."""
    p = params.p
    if isinstance(sym, Psi):
        return mono_mul(variable_monomial(p, p, params.a), variable_monomial(p, params.b + sym.j))
    return mono_mul(variable_monomial(p, sym.i), variable_monomial(p, sym.j))


def _symbol_tiebreak(sym) -> tuple:
    # ascending key: larger symbols get larger tuples
    if isinstance(sym, Psi):
        return (1, -sym.j, 0)
    return (0, sym.j, sym.i)


class ModuleOrder(TermOrder):
    """Total order on module terms: projection first, symbol tie-break second.

    key() is the ring key of the projection m * _stamp(sym), which
    verify_order_projection checks against the lead of the term's image,
    and the tie-break, each symbol's stamp and tie-break computed once.
    """

    def __init__(self, params: CurveParams):
        self.params = params
        self.ring = WeightOrder(params)
        self._cache = {}
        self._symbols = {}

    def key(self, term):
        k = self._cache.get(term)
        if k is None:
            mono, sym = term
            known = self._symbols.get(sym)
            if known is None:
                known = self._symbols[sym] = (_stamp(self.params, sym), _symbol_tiebreak(sym))
            k = (self.ring.key(mono_mul(mono, known[0])), known[1])
            self._cache[term] = k
        return k

    def leading_term(self, elem: ModElement):
        if not elem.terms:
            raise ZeroPolynomialError("the zero element has no leading term")
        term = max(elem.terms, key=self.key)
        return term, elem.terms[term]


# ---------------------------------------------------------------------------
# the three syzygy families


def syzygy_A(params: CurveParams, i: int, j: int) -> ModElement:
    """Relation led by X_i * Psi(j), for i in [1, p] and j in [0, p-b-1].

    Multiplying psi(b, j) by X_i re-expresses the product through the
    next power binomial and quadratic corrections.
    """
    p, a, b, d = params.p, params.a, params.b, params.d
    if not 1 <= i <= p:
        raise IndexError(f"index i = {i} outside [1, {p}]")
    if not 0 <= j <= p - b - 1:
        raise IndexError(f"index j = {j} outside [0, {p - b - 1}]")
    nv = params.nvars
    e = epsilon(i, b + j, p)
    elem = ModElement.term(nv, variable_monomial(p, i), psi_symbol(params, j))
    elem -= ModElement.term(
        nv, variable_monomial(p, b + i + j - e), psi_symbol(params, e - b)
    )
    sym = phi_symbol(params, i, b + j)
    if sym is not None:
        elem -= ModElement.term(nv, variable_monomial(p, p, a), sym)
    sym = phi_symbol(params, i, j)
    if sym is not None:
        elem += ModElement.term(nv, variable_monomial(p, 0, a + d), sym)
    sym = phi_symbol(params, b + i + j - p, p - b)
    if sym is not None:
        elem -= ModElement.term(nv, variable_monomial(p, 0, a + d), sym)
    return elem


def syzygy_B(params: CurveParams, i: int, j: int) -> ModElement:
    """Koszul-style relation led by X_i * X_j * Psi(p-b), i <= j in [1, p-1].

    The quadratic binomial times the top power symbol cancels against the
    top power binomial times the quadratic symbol.
    """
    p, b = params.p, params.b
    if not (1 <= i <= j <= p - 1):
        raise IndexError(f"indices ({i}, {j}) must satisfy 1 <= i <= j <= {p - 1}")
    quad = phi_binomial(params, i, j)
    top = psi_binomial(params, p - b)
    return ModElement.from_poly(quad, psi_symbol(params, p - b)) - ModElement.from_poly(
        top, phi_symbol(params, i, j)
    )


def syzygy_L(params: CurveParams, l: int, i: int, j: int) -> ModElement:
    """Relation led by X_l * Phi(i, j), for i <= j, l < j, all in [1, p-1].

    Exchanges the outer multiplier between two quadratic symbols, with
    capped-index corrections.
    """
    p = params.p
    if not (1 <= i <= j <= p - 1 and 1 <= l < j):
        raise IndexError(f"indices (l={l}; i={i}, j={j}) violate i <= j, l < j in [1, {p - 1}]")
    nv = params.nvars
    elem = ModElement.term(nv, variable_monomial(p, l), phi_symbol(params, i, j))
    elem -= ModElement.term(nv, variable_monomial(p, j), phi_symbol(params, i, l))
    t = tau(i, j, p)
    sym = phi_symbol(params, i + j - t, l)
    if sym is not None:
        elem += ModElement.term(nv, variable_monomial(p, t), sym)
    t = tau(i, l, p)
    sym = phi_symbol(params, i + l - t, j)
    if sym is not None:
        elem -= ModElement.term(nv, variable_monomial(p, t), sym)
    return elem


@dataclass(frozen=True)
class SyzygySet:
    """The full syzygy basis, keyed by family and index tuple."""

    params: CurveParams
    A: dict
    B: dict
    L: dict

    def __len__(self) -> int:
        return len(self.A) + len(self.B) + len(self.L)

    def counts(self) -> dict:
        return {"A": len(self.A), "B": len(self.B), "L": len(self.L), "total": len(self)}

    def labeled(self) -> list[tuple[str, ModElement]]:
        b = self.params.b
        out = [(f"A({i};{b},{j})", g) for (i, j), g in sorted(self.A.items())]
        out += [(f"B({i},{j})", g) for (i, j), g in sorted(self.B.items())]
        out += [(f"L({l};{i},{j})", g) for (l, i, j), g in sorted(self.L.items())]
        return out

    def elements(self) -> list[ModElement]:
        return [g for _, g in self.labeled()]


def syzygy_basis(params: CurveParams) -> SyzygySet:
    """Build all three families over their index ranges."""
    p, b = params.p, params.b
    A = {
        (i, j): syzygy_A(params, i, j)
        for i in range(1, p + 1)
        for j in range(0, p - b)
    }
    B = {
        (i, j): syzygy_B(params, i, j)
        for i in range(1, p)
        for j in range(i, p)
    }
    L = {
        (l, i, j): syzygy_L(params, l, i, j)
        for j in range(2, p)
        for i in range(1, j + 1)
        for l in range(1, j)
    }
    return SyzygySet(params=params, A=A, B=B, L=L)


def _expected_leads(params: CurveParams) -> dict:
    """The predicted leading term of each basis element, keyed by its label."""
    p, b = params.p, params.b
    out = {}
    for i in range(1, p + 1):
        for j in range(0, p - b):
            out[f"A({i};{b},{j})"] = (variable_monomial(p, i), Psi(j))
    for i in range(1, p):
        for j in range(i, p):
            out[f"B({i},{j})"] = (
                mono_mul(variable_monomial(p, i), variable_monomial(p, j)),
                Psi(p - b),
            )
    for j in range(2, p):
        for i in range(1, j + 1):
            for l in range(1, j):
                out[f"L({l};{i},{j})"] = (variable_monomial(p, l), Phi(i, j))
    return out


# ---------------------------------------------------------------------------
# one prepared triple


class Curve:
    """The objects every check of one triple shares, each built once.

    order is the ring order inside morder, so the triple has one key
    cache per order.  images maps each module symbol to its binomial in
    label order; ring_reducer divides by those binomials in that order
    and module_reducer by the syzygy basis in its label order.  The key
    caches grow as the checks run, and ring_certified() and harvest()
    are computed on first use; everything else is read, never changed,
    so a caller that needs to extend a basis builds its own Reducer.
    """

    __slots__ = ("params", "morder", "order", "gset", "patil", "sset", "images",
                 "ring_reducer", "module_reducer", "_ring_certified", "_harvest")

    def __init__(self, params: CurveParams):
        self.params = params
        self.morder = ModuleOrder(params)
        self.order = self.morder.ring
        self.gset = groebner_generators(params)
        self.patil = patil_generators(params)
        self.sset = syzygy_basis(params)
        self.images = {Phi(i, j): g for (i, j), g in sorted(self.gset.phis.items())}
        self.images.update((Psi(j), g) for j, g in sorted(self.gset.psis.items()))
        self.ring_reducer = Reducer(self.order, self.images.values())
        self.module_reducer = Reducer(self.morder, self.sset.elements())
        self._ring_certified = self._harvest = None

    def ring_certified(self) -> bool:
        """Whether the closed-form set G is a Groebner basis of the curve
        ideal I, computed once: G lies in I (each element has one weight
        and coefficients summing to 0), and K(LT(G)) = N, so <LT(G)>, which
        lies in LT(I), has the Hilbert series of I and equals LT(I)."""
        if self._ring_certified is None:
            in_ideal = (_mixed_weight(self.params, self.images.items()) is None
                        and not any(sum(g.terms.values()) for g in self.images.values()))
            leads = [lm for lm, *_ in self.ring_reducer.rows[None]]
            self._ring_certified = in_ideal and (
                hilbert_numerator(self.params.exponent_weights, leads) == apery_numerator(self.params))
        return self._ring_certified

    def harvest(self) -> list:
        """schreyer_relations of the ring basis, computed once and kept;
        only a check whose identity fails reads it."""
        if self._harvest is None:
            self._harvest = schreyer_relations(self)
        return self._harvest


# ---------------------------------------------------------------------------
# module division and S-vectors


def module_normal_form(elem: ModElement, table: Reducer):
    """Divide a module element by the basis of the module Reducer table.

    A term (monomial, symbol) is reducible by a basis element whose lead
    term carries the same symbol and a dividing monomial.  Returns
    (remainder, quotients); quotients maps each basis index the division
    used to its ring polynomial.
    """
    return table.divide(elem)


def schreyer_relations(curve: Curve) -> list:
    """Each S-pair of the closed-form basis, j-major, divided once by
    curve.ring_reducer, as (i, j, remainder, element).  The element, the
    pair's two cofactors minus the division's quotients on the generators'
    symbols, evaluates to the remainder.  So the basis is a Groebner basis
    exactly when every remainder is zero, and the elements then generate
    the relations among it (Schreyer; Eisenbud, Commutative Algebra,
    15.5); no coprime pair is skipped, as its Koszul relation can be one
    of the generators."""
    order, table = curve.order, curve.ring_reducer
    symbols = list(curve.images)  # in the order of the ring reducer's basis
    rows = table.rows[None]
    out = []
    for i, j in sorted(table.pairs(), key=lambda pair: pair[::-1]):
        r, quots = normal_form(s_polynomial(order, table.basis[i], table.basis[j]), table)
        terms = {(m, symbols[k]): -c for k, q in quots.items() for m, c in q.terms.items()}
        # the cofactors reach the lcm, above every quotient term: no overlap
        lcm = mono_lcm(rows[i][0], rows[j][0])
        for k, sign in ((i, 1), (j, -1)):
            terms[(mono_div(lcm, rows[k][0]), symbols[k])] = sign * rows[k][1]
        out.append((i, j, r, ModElement._raw(curve.params.nvars, terms)))
    return out


# ---------------------------------------------------------------------------
# verification


def _module_identity(curve: Curve) -> bool:
    """Whether sum_sym t^{w(image(sym))} K(M_sym) = 1 - N, for the leads
    M_sym of the syzygy basis on each symbol.  Once G is a Groebner basis
    of I, the syzygy module Syz is the kernel of the free module F onto I,
    graded by the images, so HS(F/Syz) = HS(I) has numerator 1 - N; a
    basis inside Syz is a Groebner basis of it exactly when its leads
    give F/<LT(basis)> that series (Macaulay, symbol by symbol)."""
    params, rows = curve.params, curve.module_reducer.rows
    series = {}
    for sym, image in curve.images.items():
        leads = [lm for lm, *_ in rows.get(sym, ())]
        shift = params.weight(next(iter(image.terms)))
        _add_shifted(series, hilbert_numerator(params.exponent_weights, leads), shift)
    return series == _add_shifted({0: 1}, apery_numerator(params), sign=-1)


def verify_syzygy_basis(curve: Curve) -> VerificationReport:
    """Full check of the syzygy basis: (a) every member evaluates to zero;
    (b) the leading terms match the per-family prediction; (c) every
    S-vector of two members whose leads share a symbol reduces to zero
    against the basis; (d) every S-polynomial of the generators reduces to
    zero, and every relation harvested from those reductions is a relation
    that reduces to zero against the basis; (e) no lead divides another.

    (c) and (d) are decided by one identity (_module_identity) once (a)
    passed and the ring identity holds (Curve.ring_certified): the basis
    is then a Groebner basis of the syzygy module, which holds every
    S-vector and every harvested relation, and the details count every
    pair.  Otherwise the S-vectors are divided x-major and the harvest of
    every ring pair (curve.harvest) is scanned j-major; the first failure
    of each is its witness and ends its count.
    """
    params, morder, table = curve.params, curve.morder, curve.module_reducer
    labeled = curve.sset.labeled()
    report = VerificationReport(params)

    bad = None
    for lab, g in labeled:
        image = relation_image(curve, g)
        if image:
            bad = {"element": lab, "image": poly_to_json(morder.ring, image)}
            break
    report.add("members-are-relations", bad is None, detail=f"{len(labeled)} members", witness=bad)
    members_ok = bad is None

    predicted = _expected_leads(params)
    actual = {lab: morder.leading_term(g)[0] for lab, g in labeled}
    shape_ok = (
        set(actual.values()) == set(predicted.values())
        and len(set(actual.values())) == len(labeled)
    )
    mismatch = []
    for lab, term in actual.items():
        want = predicted.get(lab)  # None for a label with no prediction
        if term != want:
            mismatch.append({"element": lab, "computed": term_to_json(term),
                             "expected": None if want is None else term_to_json(want)})
    report.add(
        "leading-term-shape",
        shape_ok and not mismatch,
        detail=f"{len(labeled)} leading terms",
        witness=None if shape_ok and not mismatch else {"mismatches": mismatch[:3]},
    )

    # one identity decides (c) and (d); if it or a hypothesis fails, both scan
    certified = members_ok and curve.ring_certified() and _module_identity(curve)
    bad = None
    count = sum(len(row) * (len(row) - 1) // 2 for row in table.rows.values())
    if not certified:
        for count, (x, y) in enumerate(table.pairs(), 1):
            s = s_polynomial(morder, table.basis[x], table.basis[y])
            r, _ = module_normal_form(s, table)
            if r:
                bad = {"pair": [labeled[x][0], labeled[y][0]],
                       "remainder": mod_elem_to_json(morder, r)}
                break
    report.add("s-vectors-reduce", bad is None, detail=f"{count} same-symbol pairs", witness=bad)

    symbols, bad = list(curve.images), None
    count = len(symbols) * (len(symbols) - 1) // 2
    if not certified:
        for count, (i, j, r, rel) in enumerate(curve.harvest(), 1):
            pair = [str(symbols[i]), str(symbols[j])]
            if r:
                bad = {"pair": pair, "problem": "S-polynomial does not reduce to zero"}
            elif relation_image(curve, rel):
                bad = {"pair": pair, "problem": "harvested element is not a relation"}
            else:
                r, _ = module_normal_form(rel, table)
                bad = {"pair": pair, "remainder": mod_elem_to_json(morder, r)} if r else None
            if bad:
                break
    report.add(
        "harvested-relations-reduce",
        bad is None,
        detail=f"{count} harvested relations",
        witness=bad,
    )

    # the first dividing (x, y) in the order of a double loop over all
    # leads, and the ordered pairs that loop would have tried up to it
    first = _first_dividing_pair(table.rows.values())
    n = len(labeled)
    checked, offender = n * (n - 1), None
    if first is not None:
        x, y = first
        checked = x * (n - 1) + (y if x < y else y + 1)
        offender = {"divisor": labeled[x][0], "multiple": labeled[y][0]}
    report.add(
        "module-leading-terms-incomparable",
        offender is None,
        detail=f"{checked} ordered pairs",
        witness=offender,
    )
    return report


def term_to_json(term) -> dict:
    mono, sym = term
    return {"expo": list(mono), "basis": _symbol_json(sym)}


def verify_excluded_leading_forms(curve: Curve, bound: int) -> VerificationReport:
    """No member of the excluded families lies in the leading-term module.

    The families are: X_0^k Psi(j); X_0^k X_i Psi(p-b); X_p^k X_i
    Psi(p-b); and X^alpha Phi(i, j) with no variable X_l, 0 < l < j,
    dividing X^alpha.  With exponents capped at the bound, each family is
    a box under one symbol, and a lead term divides some member of a box
    exactly when it divides its largest member.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    params = curve.params
    p, b = params.p, params.b
    leads = curve.module_reducer.rows
    one = mono_one(params.nvars)
    x0, xp, top = variable_monomial(p, 0, bound), variable_monomial(p, p, bound), Psi(p - b)
    boxes = [("pure-X0", Psi(j), one, x0) for j in range(0, p - b + 1)]
    for i in range(1, p + 1):
        xi = variable_monomial(p, i)
        boxes.append(("X0-power-times-variable", top, xi, mono_mul(xi, x0)))
        boxes.append(("Xp-power-times-variable", top, xi, mono_mul(xi, xp)))
    for i in range(1, p):
        for j in range(i, p):
            caps = (0,) * (j - 1) + (bound,) * (p - j + 2)
            boxes.append(("low-index-free-Phi", Phi(i, j), one, caps))

    report = VerificationReport(params)
    bad = None
    for family, sym, low, high in boxes:
        lead = next((m for m, *_ in leads.get(sym, ()) if mono_divides(m, high)), None)
        if lead is not None:
            bad = {"family": family, "term": term_to_json((mono_lcm(lead, low), sym))}
            break
    count = sum(math.prod(h - l + 1 for l, h in zip(low, high)) for _, _, low, high in boxes)
    report.add(
        "excluded-forms-stay-excluded",
        bad is None,
        detail=f"{count} family members with exponents <= {bound}",
        witness=bad,
    )
    return report


def verify_order_projection(curve: Curve, samples: int = 1000, seed: int = 0) -> VerificationReport:
    """Sampled check that the order projection of a single term equals the
    leading monomial of its image."""
    rng = random.Random(seed)
    params = curve.params
    symbols = sorted(curve.images, key=str)
    bad = None
    for _ in range(samples):
        mono = tuple(rng.randrange(0, 5) for _ in range(params.nvars))
        sym = symbols[rng.randrange(len(symbols))]
        elem = ModElement.term(params.nvars, mono, sym)
        image = relation_image(curve, elem)
        lm = curve.order.leading_monomial(image)
        if curve.order.key(lm) != curve.morder.key((mono, sym))[0]:
            bad = {"term": term_to_json((mono, sym)), "image-lead": list(lm)}
            break
    report = VerificationReport(params)
    report.add(
        "projection-matches-image-lead",
        bad is None,
        detail=f"{samples} sampled terms, seed {seed}",
        witness=bad,
    )
    return report


# ---------------------------------------------------------------------------
# serialization


def _symbol_json(sym) -> dict:
    if isinstance(sym, Psi):
        return {"kind": "Psi", "j": sym.j}
    return {"kind": "Phi", "i": sym.i, "j": sym.j}


def mod_elem_to_json(morder: ModuleOrder, elem: ModElement) -> list[dict]:
    """Terms as {"coeff", "expo", "basis"}, sorted descending."""
    return _json_terms(morder, elem, term_to_json)


def format_mod_elem(morder: ModuleOrder, elem: ModElement) -> str:
    def spell(term, c):
        body = _term_text(term[0], c)
        return str(term[1]) if body == "1" else f"{body}*{term[1]}"

    return _join_signed(morder, elem, spell)
