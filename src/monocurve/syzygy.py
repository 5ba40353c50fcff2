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

ModElement is a polyring.SparseMap keyed by (monomial, symbol), and
ModuleOrder a polyring.TermOrder.  module_normal_form runs the ring's
division loop (polyring.Reducer): a module basis is prepared once with
its lead terms grouped by symbol, where a ring basis has the one symbol
None.  S-vectors come from the ring's S-pair builder,
polyring.s_polynomial, for the pairs of basis elements whose leads share
a symbol, read from those groups (Reducer.pairs).  The excluded families
of module terms are boxes of exponents, each tested against the grouped
lead terms through its largest member.

A Curve holds what every check of one triple shares, each built once:
both orders (one key cache each), both generating sets, the syzygy
basis, the symbol images and a prepared Reducer for the ring basis and
for the module basis.  On first use it also keeps the one S-pair harvest
of the ring basis (schreyer_relations), which both the Groebner check of
the generators and the completeness check of the syzygies read.  Every
verify_* report takes a Curve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .generators import (
    GeneratorSet,
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
    _join_signed,
    _json_terms,
    _term_text,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_to_name,
    poly_to_json,
    s_polynomial,
    schreyer_syzygies,
    variable_monomial,
)
from .report import VerificationReport
from .semigroup import CurveParams


@dataclass(frozen=True, order=True)
class Psi:
    j: int

    def __str__(self) -> str:
        return f"Psi({self.j})"


@dataclass(frozen=True, order=True)
class Phi:
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

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for (mono, sym), coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} does not have {nvars} exponents")
                if coeff:
                    clean[(tuple(mono), sym)] = _exact(coeff)
        self.terms = clean

    @staticmethod
    def _shift(term, mono: Mono):
        return (mono_mul(term[0], mono), term[1])

    @classmethod
    def term(cls, nvars: int, mono: Mono, sym, coeff=1) -> "ModElement":
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


def labeled_generator_symbols(gset: GeneratorSet) -> list:
    """The generator list in canonical order with its module symbols."""
    out = [(Phi(i, j), g) for (i, j), g in sorted(gset.phis.items())]
    out += [(Psi(j), g) for j, g in sorted(gset.psis.items())]
    return out


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


def is_relation(curve: Curve, elem: ModElement) -> bool:
    return not relation_image(curve, elem)


def order_monomial(params: CurveParams, mono: Mono, sym) -> Mono:
    """The ring monomial by which a module term is compared.

    Psi(j) projects to X_p^a * X_{b+j}, Phi(i, j) to X_i * X_j, both
    multiplied by the term's own monomial.  This equals the leading
    monomial of the term's image, which is checked, not assumed.
    """
    p = params.p
    if isinstance(sym, Psi):
        stamp = mono_mul(
            variable_monomial(p, p, params.a), variable_monomial(p, params.b + sym.j)
        )
    else:
        stamp = mono_mul(variable_monomial(p, sym.i), variable_monomial(p, sym.j))
    return mono_mul(mono, stamp)


def _symbol_tiebreak(sym) -> tuple:
    # ascending key: larger symbols get larger tuples
    if isinstance(sym, Psi):
        return (1, -sym.j, 0)
    return (0, sym.j, sym.i)


class ModuleOrder(TermOrder):
    """Total order on module terms: projection first, symbol tie-break second."""

    def __init__(self, params: CurveParams):
        self.params = params
        self.ring = WeightOrder(params)
        self._cache = {}

    def key(self, term):
        k = self._cache.get(term)
        if k is None:
            mono, sym = term
            k = (self.ring.key(order_monomial(self.params, mono, sym)), _symbol_tiebreak(sym))
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


def expected_module_leading_terms(params: CurveParams) -> set:
    """The predicted leading terms of the syzygy basis, per family."""
    return set(_expected_leads(params).values())


# ---------------------------------------------------------------------------
# one prepared triple


class Curve:
    """The objects every check of one triple shares, each built once.

    order is the ring order inside morder, so the triple has one key
    cache per order.  images maps each module symbol to its binomial in
    label order; ring_reducer divides by those binomials in that order
    and module_reducer by the syzygy basis in its label order.  The key
    caches grow as the checks run, and harvest() is computed on first
    use; everything else is read, never changed, so a caller that needs
    to extend a basis builds its own Reducer.
    """

    __slots__ = ("params", "morder", "order", "gset", "patil", "sset", "images",
                 "ring_reducer", "module_reducer", "_harvest")

    def __init__(self, params: CurveParams):
        self.params = params
        self.morder = ModuleOrder(params)
        self.order = self.morder.ring
        self.gset = groebner_generators(params)
        self.patil = patil_generators(params)
        self.sset = syzygy_basis(params)
        self.images = dict(labeled_generator_symbols(self.gset))
        self.ring_reducer = Reducer(self.order, self.images.values())
        self.module_reducer = Reducer(self.morder, self.sset.elements())
        self._harvest = None

    def harvest(self) -> list:
        """schreyer_relations of this triple, computed once and kept."""
        if self._harvest is None:
            self._harvest = schreyer_relations(self)
        return self._harvest


# ---------------------------------------------------------------------------
# module division and S-vectors


def module_normal_form(morder: ModuleOrder, elem: ModElement, basis):
    """Divide a module element by a list of module elements, or by a
    Reducer of one.

    A term (monomial, symbol) is reducible by a basis element whose lead
    term carries the same symbol and a dividing monomial.  Returns
    (remainder, quotients); quotients maps each basis index the division
    used to its ring polynomial.
    """
    if not isinstance(basis, Reducer):
        basis = Reducer(morder, basis)
    return basis.divide(elem)


def schreyer_relations(curve: Curve) -> list:
    """The S-pair harvest of the closed-form basis, over the module symbols.

    One entry (i, j, remainder, element) per pair of ring basis indices
    i < j, in the j-major order of polyring.schreyer_syzygies, whose
    vectors become module elements: each element evaluates to its
    remainder, so it is a relation exactly when the remainder is zero.
    """
    symbols = list(curve.images)  # in the order of the ring reducer's basis
    nv = curve.params.nvars
    return [
        (i, j, r, ModElement._raw(nv, {(m, symbols[k]): c
                                       for k, q in vec.items() for m, c in q.terms.items()}))
        for i, j, r, vec in schreyer_syzygies(curve.ring_reducer)
    ]


# ---------------------------------------------------------------------------
# verification


def verify_syzygy_basis(curve: Curve) -> VerificationReport:
    """Full check of the syzygy basis.

    (a) every member evaluates to zero; (b) the computed leading terms
    match the per-family prediction; (c) every S-vector of two members
    whose leads share a symbol reduces to zero against the basis; (d)
    every S-polynomial of the generators reduced to zero (curve.harvest),
    and every relation harvested from those reductions reduces to zero
    against the basis; (e) no leading term divides another.
    """
    params, morder, table = curve.params, curve.morder, curve.module_reducer
    labeled = curve.sset.labeled()
    elements = [g for _, g in labeled]
    report = VerificationReport(params)

    bad = None
    for lab, g in labeled:
        image = relation_image(curve, g)
        if image:
            bad = {"element": lab, "image": poly_to_json(morder.ring, image)}
            break
    report.add("members-are-relations", bad is None, detail=f"{len(labeled)} members", witness=bad)

    predicted = _expected_leads(params)
    actual = {lab: morder.leading_term(g)[0] for lab, g in labeled}
    shape_ok = (
        set(actual.values()) == set(predicted.values())
        and len(set(actual.values())) == len(labeled)
    )
    mismatch = [
        {"element": lab, "computed": term_to_json(actual[lab]), "expected": term_to_json(predicted[lab])}
        for lab in actual
        if actual[lab] != predicted[lab]
    ]
    report.add(
        "leading-term-shape",
        shape_ok and not mismatch,
        detail=f"{len(labeled)} leading terms",
        witness=None if shape_ok and not mismatch else {"mismatches": mismatch[:3]},
    )

    bad = None
    count = 0
    for x, y in table.pairs():
        count += 1
        r, _ = module_normal_form(morder, s_polynomial(morder, elements[x], elements[y]), table)
        if r:
            bad = {"pair": [labeled[x][0], labeled[y][0]], "remainder": mod_elem_to_json(morder, r)}
            break
    report.add("s-vectors-reduce", bad is None, detail=f"{count} same-symbol pairs", witness=bad)

    symbols = list(curve.images)
    bad = None
    count = 0
    for i, j, r, rel in curve.harvest():
        count += 1
        pair = [str(symbols[i]), str(symbols[j])]
        if r:
            bad = {"pair": pair, "problem": "S-polynomial does not reduce to zero"}
        elif relation_image(curve, rel):
            bad = {"pair": pair, "problem": "harvested element is not a relation"}
        else:
            r, _ = module_normal_form(morder, rel, table)
            if r:
                bad = {"pair": pair, "remainder": mod_elem_to_json(morder, r)}
        if bad:
            break
    report.add(
        "harvested-relations-reduce",
        bad is None,
        detail=f"{count} harvested relations",
        witness=bad,
    )

    offender = None
    checked = 0
    leads = [(lab, actual[lab]) for lab, _ in labeled]
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
        if lm != order_monomial(params, mono, sym):
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


def _symbol_from_json(data) -> Psi | Phi:
    if data["kind"] == "Psi":
        return Psi(data["j"])
    if data["kind"] == "Phi":
        return Phi(data["i"], data["j"])
    raise ValueError(f"unknown basis symbol kind {data['kind']!r}")


def mod_elem_to_json(morder: ModuleOrder, elem: ModElement) -> list[dict]:
    """Terms as {"coeff", "expo", "basis"}, sorted descending."""
    return _json_terms(morder, elem, term_to_json)


def mod_elem_from_json(nvars: int, items) -> ModElement:
    return ModElement(
        nvars,
        {
            (tuple(t["expo"]), _symbol_from_json(t["basis"])): _exact(t["coeff"])
            for t in items
        },
    )


def format_mod_elem(morder: ModuleOrder, elem: ModElement) -> str:
    def spell(term, c):
        body = _term_text(term[0], c)
        return str(term[1]) if body == "1" else f"{body}*{term[1]}"

    return _join_signed(morder, elem, spell)
