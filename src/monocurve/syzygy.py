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
None.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .generators import (
    GeneratorSet,
    epsilon,
    groebner_generators,
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
    _join_signed,
    _json_terms,
    _term_text,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_to_name,
    poly_to_json,
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
    """Element of the free module: map (monomial, symbol) -> Fraction."""

    __slots__ = ()

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for (mono, sym), coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} does not have {nvars} exponents")
                if coeff:
                    clean[(tuple(mono), sym)] = Fraction(coeff)
        self.terms = clean

    @staticmethod
    def _shift(term, mono: Mono):
        return (mono_mul(term[0], mono), term[1])

    @classmethod
    def term(cls, nvars: int, mono: Mono, sym, coeff=1) -> "ModElement":
        coeff = Fraction(coeff)
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


def symbol_images(params: CurveParams, gset: GeneratorSet | None = None) -> dict:
    """Map every in-range symbol to the binomial it stands for."""
    gset = gset or groebner_generators(params)
    images = {Phi(i, j): g for (i, j), g in gset.phis.items()}
    images.update({Psi(j): g for j, g in gset.psis.items()})
    return images


def relation_image(params: CurveParams, elem: ModElement, images: dict | None = None) -> Poly:
    """Evaluate an element: sum of coeff * monomial * symbol image."""
    if images is None:
        images = symbol_images(params)
    acc = {}
    for (mono, sym), c in elem.terms.items():
        for m2, c2 in images[sym].terms.items():
            mm = mono_mul(mono, m2)
            v = acc.get(mm, 0) + c * c2
            if v:
                acc[mm] = v
            elif mm in acc:
                del acc[mm]
    return Poly._raw(params.nvars, acc)


def is_relation(params: CurveParams, elem: ModElement, images: dict | None = None) -> bool:
    return not relation_image(params, elem, images)


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
# module division and S-vectors


def module_normal_form(morder: ModuleOrder, elem: ModElement, basis):
    """Divide a module element by a list of module elements, or by a
    Reducer of one.

    A term (monomial, symbol) is reducible by a basis element whose lead
    term carries the same symbol and a dividing monomial.  Returns
    (remainder, quotients); the quotients are ring polynomials.
    """
    if not isinstance(basis, Reducer):
        basis = Reducer(morder, basis)
    return basis.divide(elem)


def module_s_vector(morder: ModuleOrder, g1: ModElement, g2: ModElement) -> ModElement | None:
    """Cancel the leading terms of two elements sharing a lead symbol.

    Returns None when the lead symbols differ (no cancellation exists).
    """
    (m1, s1), c1 = morder.leading_term(g1)
    (m2, s2), c2 = morder.leading_term(g2)
    if s1 != s2:
        return None
    lcm = mono_lcm(m1, m2)
    return g1.times_term(Fraction(1) / c1, mono_div(lcm, m1)) - g2.times_term(
        Fraction(1) / c2, mono_div(lcm, m2)
    )


def labeled_generator_symbols(gset: GeneratorSet) -> list:
    """The generator list in canonical order with its module symbols."""
    out = [(Phi(i, j), g) for (i, j), g in sorted(gset.phis.items())]
    out += [(Psi(j), g) for j, g in sorted(gset.psis.items())]
    return out


def schreyer_relations(params: CurveParams, gset: GeneratorSet | None = None):
    """Relations harvested from all S-polynomial reductions of the
    closed-form basis, expressed over the module symbols.

    Returns a list of ((label_i, label_j), element) pairs.  Raises
    polyring.NotGroebnerError if an S-polynomial fails to reduce, which
    would contradict the verified Groebner property.
    """
    gset = gset or groebner_generators(params)
    symbols = labeled_generator_symbols(gset)
    polys = [g for _, g in symbols]
    order = WeightOrder(params)
    nv = params.nvars
    out = []
    for i, j, vec in schreyer_syzygies(order, polys):
        elem = ModElement.zero(nv)
        for k, q in enumerate(vec):
            if q:
                elem += ModElement.from_poly(q, symbols[k][0])
        out.append(((str(symbols[i][0]), str(symbols[j][0])), elem))
    return out


# ---------------------------------------------------------------------------
# verification


def verify_syzygy_basis(params: CurveParams) -> VerificationReport:
    """Full check of the syzygy basis.

    (a) every member evaluates to zero; (b) the computed leading terms
    match the per-family prediction; (c) every same-symbol S-vector
    reduces to zero against the basis; (d) every harvested relation of
    the generators reduces to zero against the basis; (e) no leading
    term divides another.
    """
    morder = ModuleOrder(params)
    gset = groebner_generators(params)
    images = symbol_images(params, gset)
    sset = syzygy_basis(params)
    labeled = sset.labeled()
    elements = [g for _, g in labeled]
    report = VerificationReport(params)

    bad = None
    for lab, g in labeled:
        image = relation_image(params, g, images)
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

    table = Reducer(morder, elements)
    bad = None
    pairs = 0
    for x in range(len(elements)):
        for y in range(x + 1, len(elements)):
            s = module_s_vector(morder, elements[x], elements[y])
            if s is None:
                continue
            pairs += 1
            r, _ = module_normal_form(morder, s, table)
            if r:
                bad = {
                    "pair": [labeled[x][0], labeled[y][0]],
                    "remainder": mod_elem_to_json(morder, r),
                }
                break
        if bad:
            break
    report.add("s-vectors-reduce", bad is None, detail=f"{pairs} same-symbol pairs", witness=bad)

    bad = None
    count = 0
    for (pair, rel) in schreyer_relations(params, gset):
        count += 1
        if relation_image(params, rel, images):
            bad = {"pair": list(pair), "problem": "harvested element is not a relation"}
            break
        r, _ = module_normal_form(morder, rel, table)
        if r:
            bad = {"pair": list(pair), "remainder": mod_elem_to_json(morder, r)}
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


def verify_excluded_leading_forms(params: CurveParams, bound: int) -> VerificationReport:
    """No member of the excluded families lies in the leading-term module.

    The families are: X_0^k Psi(j); X_0^k X_i Psi(p-b); X_p^k X_i
    Psi(p-b); and X^alpha Phi(i, j) with no variable X_l, 0 < l < j,
    dividing X^alpha.  Exponents are capped at the bound.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    p, b = params.p, params.b
    morder = ModuleOrder(params)
    sset = syzygy_basis(params)
    lead_by_symbol = {}
    for _, g in sset.labeled():
        (m, s), _ = morder.leading_term(g)
        lead_by_symbol.setdefault(s, []).append(m)

    def excluded(mono, sym) -> bool:
        return not any(mono_divides(m, mono) for m in lead_by_symbol.get(sym, ()))

    phi_pairs = [(i, j) for i in range(1, p) for j in range(i, p)]

    def family_members():
        top = Psi(p - b)
        for k in range(bound + 1):
            x0k = variable_monomial(p, 0, k)
            for j in range(0, p - b + 1):
                yield "pure-X0", x0k, Psi(j)
            for i in range(1, p + 1):
                yield "X0-power-times-variable", mono_mul(x0k, variable_monomial(p, i)), top
                yield (
                    "Xp-power-times-variable",
                    mono_mul(variable_monomial(p, p, k), variable_monomial(p, i)),
                    top,
                )
        for (i, j) in phi_pairs:
            sym = Phi(i, j)
            free = list(range(j, p + 1)) + [0]
            for exps in itertools.product(range(bound + 1), repeat=len(free)):
                mono = mono_one(params.nvars)
                for v, e in zip(free, exps):
                    if e:
                        mono = mono_mul(mono, variable_monomial(p, v, e))
                yield "low-index-free-Phi", mono, sym

    report = VerificationReport(params)
    bad = None
    count = 0
    for family, mono, sym in family_members():
        count += 1
        if not excluded(mono, sym):
            bad = {"family": family, "term": term_to_json((mono, sym))}
            break
    report.add(
        "excluded-forms-stay-excluded",
        bad is None,
        detail=f"{count} family members with exponents <= {bound}",
        witness=bad,
    )
    return report


def verify_order_projection(params: CurveParams, samples: int = 1000, seed: int = 0) -> VerificationReport:
    """Sampled check that the order projection of a single term equals the
    leading monomial of its image."""
    rng = random.Random(seed)
    morder = ModuleOrder(params)
    images = symbol_images(params)
    symbols = sorted(images, key=str)
    p = params.p
    bad = None
    for _ in range(samples):
        mono = tuple(rng.randrange(0, 5) for _ in range(params.nvars))
        sym = symbols[rng.randrange(len(symbols))]
        elem = ModElement.term(params.nvars, mono, sym)
        image = relation_image(params, elem, images)
        lm = morder.ring.leading_monomial(image)
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
            (tuple(t["expo"]), _symbol_from_json(t["basis"])): Fraction(t["coeff"])
            for t in items
        },
    )


def format_mod_elem(morder: ModuleOrder, elem: ModElement) -> str:
    def spell(term, c):
        body = _term_text(term[0], c)
        return str(term[1]) if body == "1" else f"{body}*{term[1]}"

    return _join_signed(morder, elem, spell)
