"""The free module over the ring presenting the relations among the
closed-form generators, and the Groebner basis of its syzygy submodule.

Module elements are sums of terms (monomial, symbol) where the symbol is
either Psi(j), standing for the power binomial psi(b, j), or Phi(i, j)
(canonically i <= j), standing for the quadratic binomial phi(i, j).
The evaluation map sends a term to monomial * binomial; an element is a
relation when its image is zero.

syzygy_basis fills each family in one loop over its own index range,
from one table per triple (_table) of unit monomials and symbols, each
built once and shared by every term that carries it; a member is read
from its family's map, as syzygy_basis(params).L[l, i, j].  The table
applies two index conventions:
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
Poly's arithmetic and validating constructor, and ModuleOrder a pure
key function, as polyring.WeightOrder is.  normal_form divides it by a
module Reducer with the ring's division loop (polyring.Reducer), where a
ring basis has the one symbol None.
S-vectors take the ring's one S-pair path: a module Reducer lists and
counts the pairs of basis elements whose leads share a symbol, builds
each S-vector from the leads it holds and scans them
(Reducer.first_unreduced).  schreyer_relations lifts each S-pair of the
symbols' binomials to a module element, from the cofactors that
Reducer.s_pair returns with it, one pair at a time as its caller asks.
The excluded families of module terms are boxes of exponents, each
uncapped on its free variables and tested against the lead terms on its
symbol through its cap, for all exponents.

Both Groebner claims are decided by one Hilbert-series identity each
(Curve.ring_certified, _module_identity), in terms of N, the Hilbert
numerator of the curve ideal (semigroup.apery_numerator), and K, that of
a monomial ideal.  When the leads are the predicted ones, as the
leading-term-set and leading-term-shape comparisons find them
(generators._certified, Curve.module_shape), each K is known in closed form
and the identity compares O(p) series terms with Selmer's; any other
lead set goes to Bigatti's recursion (polyring.hilbert_numerator).  A
passing triple divides no S-pair; when an identity or a hypothesis
fails, the checks scan every pair and name the first failure with its
witness and count.  Members are keyed by family and index tuple
(SyzygySet.keyed), and a label is spelled only for output and witnesses.

A Curve holds what every check of one triple shares, built once from
the three builders and never changed: the ring certificate
(Curve.ring_certified), the lead-shape comparison (Curve.module_shape)
and the packed images are computed as it is built, and only the closure
of G waits for a failing certificate.  Every verify_* report takes one.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import starmap, zip_longest
from math import inf
from operator import add, eq, lshift, mul, sub
from typing import NamedTuple

from .generators import (
    _certified,
    _closure_by_weight,
    _mixed_weight,
    _family_phi,
    _family_psi,
    _units,
    epsilon,
    expected_leading_monomials,
    groebner_generators,
    patil_generators,
    tau,
)
from .polyring import (
    Closure,
    Mono,
    Poly,
    Reducer,
    SparseMap,
    WeightOrder,
    ZeroPolynomialError,
    _first_dividing_pair,
    _join_signed,
    _json_terms,
    _packed_keys,
    _term_text,
    hilbert_numerator,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    mono_to_name,
    normal_form,
    poly_to_json,
    variable_monomial,
)
from .report import VerificationReport
from .semigroup import CurveParams, _add_shifted, _times_one_minus, apery_numerator


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
    """Evaluate an element: sum of coeff * monomial * symbol image.

    A ring product on packed monomials (Curve.packing): each monomial of
    the images and of the elements is packed into one int once per Curve,
    so a product is one integer addition and the sum is keyed by ints.  A
    monomial not packed yet is packed with the rest of the element, and
    the sum starts again, as that may have widened every field.  Only a
    non-zero image is unpacked into the Poly it returns.
    """
    pack, terms = curve.packing, elem.terms
    while True:
        codes, images, acc = pack.codes, pack.images, {}
        for (mono, sym), c in terms.items():
            code = codes.get(mono)
            if code is None:
                break
            for code2, c2 in images[sym]:
                mm = code + code2
                v = acc.get(mm, 0) + c * c2
                if v:
                    acc[mm] = v
                else:
                    del acc[mm]
        else:
            return Poly._raw(curve.params.nvars, pack.unpack(acc) if acc else acc)
        pack.add(mono for mono, _ in terms)


class _Packing:
    """The monomials relation_image has met on one Curve, each packed into
    one int, variable k in bits [k * width, (k + 1) * width): codes maps a
    monomial to its int, and images each symbol to its binomial's terms as
    (int, coefficient) pairs.  Every exponent packed is below
    2**(width - 1), so the int of a product of two packed monomials is the
    sum of theirs, with no carry from one field into the next; a monomial
    with a larger exponent re-packs every monomial at a wider width."""

    __slots__ = ("nvars", "width", "codes", "images", "_binomials")

    def __init__(self, nvars: int, binomials: dict):
        self.nvars, self.width, self.codes, self.images = nvars, 0, {}, {}
        self._binomials = binomials
        self.add(m for g in binomials.values() for m in g.terms)

    def add(self, monos) -> None:
        """Pack each monomial of monos that is not packed yet."""
        codes = self.codes
        new = {m for m in monos if m not in codes}
        if not new:
            return
        width = max(map(max, new)).bit_length() + 1
        widen = width > self.width
        if widen:
            self.width = width
            new.update(codes)
        shifts = range(0, self.width * self.nvars, self.width)
        for m in new:
            codes[m] = sum(map(lshift, m, shifts))
        if widen:
            self.images = {sym: [(codes[m], c) for m, c in g.terms.items()]
                           for sym, g in self._binomials.items()}

    def unpack(self, acc: dict) -> dict:
        """acc, keyed by packed ints, keyed by exponent tuples."""
        width, mask = self.width, (1 << self.width) - 1
        shifts = range(0, width * self.nvars, width)
        return {tuple(code >> s & mask for s in shifts): c for code, c in acc.items()}


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


class ModuleOrder:
    """Total order on module terms: projection first, symbol tie-break second.

    key() is the ring key of the projection m * _stamp(sym), and the
    tie-break.  The ring key is additive in the monomial, so per symbol
    the weight and the negated reversed exponents of its stamp, and its
    tie-break, are computed once, in _symbols, and a term's key is theirs
    shifted by m: no product is built.  verify_order_projection keys each
    (1, sym) once and shifts it by each sampled m in the same way, to
    compare it with the lead of the term's image.  leading_term() keys
    each term as key() does, and leading_terms() keys every term of a
    whole basis in one pass, from packed ints.
    """

    def __init__(self, params: CurveParams):
        self.params = params
        self.ring = WeightOrder(params)
        self._symbols = {}

    def _symbol(self, sym) -> tuple:
        """The part of key() that sym alone decides, from _symbols: the
        weight and the negated reversed exponents of its stamp, and its
        tie-break."""
        known = self._symbols.get(sym)
        if known is None:
            weight, negrev = self.ring.key(_stamp(self.params, sym))
            known = self._symbols[sym] = (weight, negrev, _symbol_tiebreak(sym))
        return known

    def key(self, term):
        mono, sym = term
        weight, negrev, tiebreak = self._symbol(sym)
        return (self.ring.weight(mono) + weight,
                tuple(map(sub, negrev, reversed(mono)))), tiebreak

    def leading_term(self, elem: ModElement):
        if not elem.terms:
            raise ZeroPolynomialError("the zero element has no leading term")
        # key, with the weights bound here
        symbol, weights = self._symbol, self.params.exponent_weights
        lead = top = None
        for term in elem.terms:
            mono, sym = term
            weight, negrev, tiebreak = symbol(sym)
            key = ((sum(map(mul, mono, weights)) + weight, tuple(map(sub, negrev, reversed(mono)))),
                   tiebreak)
            if top is None or key > top:
                lead, top = term, key
        return lead, elem.terms[lead]

    def leading_terms(self, elems: list) -> list:
        """[leading_term(g) for g in elems], in one pass that keys each term
        occurrence with one int addition.  Each distinct monomial, and each
        symbol's stamp, is weighed and packed once (polyring._packed_keys),
        shifted above the rank of the symbols' tie-breaks, and a symbol's
        int is its stamp's plus its rank.  The sum of a term's two ints is
        then its projection's packed key above its symbol's rank, which
        sorts as key() does.  Each symbol's part of key() is filled in
        _symbols, as leading_term() fills it."""
        terms = set().union(*(g.terms for g in elems))
        ranked = sorted({sym for _, sym in terms}, key=lambda sym: self._symbol(sym)[2])
        stamps = [_stamp(self.params, sym) for sym in ranked]
        packed = _packed_keys(self.params.exponent_weights,
                              {mono for mono, _ in terms}.union(stamps), len(ranked).bit_length())
        parts = {sym: packed[stamp] + rank for rank, (sym, stamp) in enumerate(zip(ranked, stamps))}
        leads = []
        for g in elems:
            if not g.terms:
                raise ZeroPolynomialError("the zero element has no leading term")
            top = -1  # every key is at least 0
            for term in g.terms:
                mono, sym = term
                key = packed[mono] + parts[sym]
                if key > top:
                    lead, top = term, key
            leads.append((lead, g.terms[lead]))
        return leads


# ---------------------------------------------------------------------------
# the three syzygy families


def _table(params: CurveParams) -> tuple:
    """What the families of one triple share, each built once: its units
    (generators._units), Psi(j) at index j in [0, p-b], and Phi(i, j) for
    1 <= i <= j <= p-1 under (i, j) and (j, i), so a pair with an index
    outside [1, p-1] is absent: the symbol is zero.  No two terms of a
    member share a key, but for the cancelling pair of A."""
    p, phi = params.p, {}
    for i in range(1, p):
        for j in range(i, p):
            phi[i, j] = phi[j, i] = Phi(i, j)
    return _units(params), [Psi(j) for j in range(p - params.b + 1)], phi


def _family_A(params: CurveParams, table: tuple) -> dict:
    """A(i; b, j), led by X_i * Psi(j), for i in [1, p] and j in [0, p-b-1],
    keyed by (i, j): multiplying psi(b, j) by X_i re-expresses the product
    through the next power binomial and quadratic corrections."""
    p, b, nv = params.p, params.b, params.nvars
    x, psi, phi = table
    xpa, x0ad, out = x[p + 1], x[p + 2], {}
    for i in range(1, p + 1):
        for j in range(p - b):
            e = epsilon(i, b + j, p)
            terms = {(x[i], psi[j]): 1, (x[b + i + j - e], psi[e - b]): -1}
            corrections = [(xpa, phi.get((i, b + j)), -1)]
            if i != p - b:  # there the two X0 corrections carry one symbol and cancel
                corrections += [(x0ad, phi.get((i, j)), 1),
                                (x0ad, phi.get((b + i + j - p, p - b)), -1)]
            for m, sym, c in corrections:
                if sym is not None:
                    terms[m, sym] = c
            out[i, j] = ModElement._raw(nv, terms)
    return out


def _family_B(params: CurveParams, table: tuple) -> dict:
    """B(i, j), led by X_i * X_j * Psi(p-b), for 1 <= i <= j <= p-1, keyed
    by (i, j): phi(i, j) on Psi(p-b) less one copy of psi(b, p-b) on
    Phi(i, j), a Koszul-style relation."""
    x, psi, phi = table
    top = _family_psi(params, x)[params.p - params.b].terms.items()
    out = {}
    for (i, j), quad in _family_phi(params, x).items():
        terms = {(m, psi[-1]): c for m, c in quad.terms.items()}
        for m, c in top:
            terms[m, phi[i, j]] = -c
        out[i, j] = ModElement._raw(params.nvars, terms)
    return out


def _family_L(params: CurveParams, table: tuple) -> dict:
    """L(l; i, j), led by X_l * Phi(i, j), for i <= j and l < j in [1, p-1],
    keyed by (l, i, j): it exchanges the outer multiplier between two
    quadratic symbols, with capped-index corrections."""
    p, nv, out = params.p, params.nvars, {}
    x, _, phi = table
    for j in range(2, p):
        for i in range(1, j + 1):
            for l in range(1, j):
                t, u = tau(i, j, p), tau(i, l, p)
                terms = {(x[l], phi[i, j]): 1, (x[j], phi[i, l]): -1}
                for m, sym, c in ((x[t], phi.get((i + j - t, l)), 1),
                                  (x[u], phi.get((i + l - u, j)), -1)):
                    if sym is not None:
                        terms[m, sym] = c
                out[l, i, j] = ModElement._raw(nv, terms)
    return out


@dataclass(frozen=True)
class SyzygySet:
    """The full syzygy basis, keyed by family and index tuple.

    keyed() lists each member under its key (family, index tuple), in
    label order, and spells no label; label(key) spells one, for output
    and witnesses.
    """

    params: CurveParams
    A: dict
    B: dict
    L: dict

    def __len__(self) -> int:
        return len(self.A) + len(self.B) + len(self.L)

    def counts(self) -> dict:
        return {"A": len(self.A), "B": len(self.B), "L": len(self.L), "total": len(self)}

    def keyed(self) -> list[tuple[tuple, ModElement]]:
        """(key, member) pairs: A by (i, j), then B by (i, j), then L by
        (l, i, j), each key (family, index tuple)."""
        return [((family, idx), g) for family, members in (("A", self.A), ("B", self.B),
                                                            ("L", self.L))
                for idx, g in sorted(members.items())]

    def label(self, key: tuple) -> str:
        """The label of the member at key: A(i;b,j), B(i,j) or L(l;i,j)."""
        family, idx = key
        if family == "A":
            return f"A({idx[0]};{self.params.b},{idx[1]})"
        if family == "B":
            return f"B({idx[0]},{idx[1]})"
        return f"L({idx[0]};{idx[1]},{idx[2]})"

    def labeled(self) -> list[tuple[str, ModElement]]:
        return [(self.label(key), g) for key, g in self.keyed()]


def syzygy_basis(params: CurveParams) -> SyzygySet:
    """Build all three families over their index ranges from one table."""
    table = _table(params)
    return SyzygySet(params, _family_A(params, table), _family_B(params, table),
                     _family_L(params, table))


def _expected_leads(params: CurveParams) -> Iterator[tuple]:
    """The key and the predicted leading term of each basis element, in
    label order, as SyzygySet.keyed() keys and lists the members."""
    p, b = params.p, params.b
    x = [variable_monomial(p, i) for i in range(p + 1)]
    for i in range(1, p + 1):
        for j in range(0, p - b):
            yield ("A", (i, j)), (x[i], Psi(j))
    top = Psi(p - b)
    for i in range(1, p):
        for j in range(i, p):
            yield ("B", (i, j)), (mono_mul(x[i], x[j]), top)
    phi = [[Phi(i, j) for j in range(p)] for i in range(p)]  # each symbol built once
    for l in range(1, p - 1):
        for i in range(1, p):
            for j in range(max(i, l + 1), p):
                yield ("L", (l, i, j)), (x[l], phi[i][j])


def _shape_holds(params: CurveParams, keys: list, leads: list) -> bool:
    """Whether keys are the predicted keys in label order, each once, and
    each member leads with its predicted term: leads[k] is the (term,
    coefficient) lead of the member at keys[k].  One walk beside
    _expected_leads, which stops at the first difference."""
    got = zip(keys, (term for term, _ in leads))
    return all(starmap(eq, zip_longest(got, _expected_leads(params))))


# ---------------------------------------------------------------------------
# one prepared triple


class Curve:
    """The objects every check of one triple shares, built once by
    __init__ from groebner_generators, patil_generators and syzygy_basis,
    and never changed afterwards.

    order is the ring order inside morder.  images maps each module
    symbol, of A, B and L, to its binomial, the phis by (i, j) and then
    the psis by j, as gset.labeled() lists them, and ring_reducer divides
    by those binomials in that order: it holds G, the one copy the ring
    checks and the Schreyer harvest read.  module_reducer divides by the syzygy basis
    in label order, listed once (SyzygySet.keyed), and keys holds each
    member's key in that order.  Each Reducer takes its leads from one
    pass of its order over the whole basis (leading_terms).
    predicted_leads holds the predicted lead monomials of G
    (generators.expected_leading_monomials), which the ring certificate
    and the two ring checks that compare leads read.  ring_certified,
    module_shape and packing are computed here, as every verify reads
    them: module_shape walks the keys and the leads in label order beside
    their prediction (_shape_holds).  Only a check whose
    certificate fails builds the closure (closure()): a passing verify,
    deep or shallow, builds none.  A test plants a part through the
    builders, before the Curve is built.
    """

    __slots__ = ("params", "morder", "order", "gset", "patil", "sset", "keys", "images",
                 "ring_reducer", "module_reducer", "predicted_leads", "ring_certified",
                 "module_shape", "packing", "_closure")

    def __init__(self, params: CurveParams):
        self.params = params
        self.morder = ModuleOrder(params)
        self.order = self.morder.ring
        self.gset = groebner_generators(params)
        self.patil = patil_generators(params)
        self.sset = syzygy_basis(params)
        keyed = self.sset.keyed()
        self.keys = [key for key, _ in keyed]
        self.images = {Phi(i, j): g for (i, j), g in sorted(self.gset.phis.items())}
        self.images.update((Psi(j), g) for j, g in sorted(self.gset.psis.items()))
        self.ring_reducer = table = Reducer(self.order, self.images.values())
        self.module_reducer = Reducer(self.morder, [g for _, g in keyed])
        # the (key, member) pairs, kept alive while the rest is built, would
        # raise a large Curve's peak memory
        del keyed
        self.predicted_leads = expected_leading_monomials(params)
        # whether G, each element of one weight, is a Groebner basis of the
        # curve ideal (generators._certified)
        self.ring_certified = (_mixed_weight(params, enumerate(table.basis)) is None
                               and _certified(table, self.predicted_leads))
        # whether each member leads with its predicted term, as
        # leading-term-shape reports
        self.module_shape = _shape_holds(params, self.keys, self.module_reducer.leads)
        self.packing = _Packing(params.nvars, self.images)
        self._closure = None

    def closure(self) -> tuple[Closure, list]:
        """The one closure of G, grown weight by weight up to its heaviest
        generator, computed once: the Closure, and the normal forms of its
        generators per weight (generators._closure_by_weight), which deep
        minimality reads when the ring identity or the count of minimal
        generators fails.  The lead-ideal check resumes it to a Groebner
        basis of the ideal of G only when the ring identity fails."""
        if self._closure is None:
            self._closure = _closure_by_weight(self.ring_reducer)
        return self._closure


# ---------------------------------------------------------------------------
# S-vectors


def schreyer_relations(curve: Curve) -> Iterator[tuple]:
    """Yield each S-pair of the binomials of the symbols (curve.images),
    j-major, divided once by the ring Reducer, which holds them in symbol
    order, as (i, j, remainder, element).  The element, the pair's two
    cofactors minus the division's quotients on the binomials' symbols,
    evaluates to the remainder.  So the binomials form a Groebner basis exactly when every
    remainder is zero, and the elements then generate the relations among
    them (Schreyer; Eisenbud, Commutative Algebra, 15.5); no coprime pair
    is skipped, as its Koszul relation can be one of the generators.  A
    pair is divided only when its row is asked for, so a scan that stops
    at its first failure divides no later pair."""
    symbols, table = list(curve.images), curve.ring_reducer
    for i, j in sorted(table.pairs(), key=lambda pair: pair[::-1]):
        s, (ci, ui), (cj, uj) = table.s_pair(i, j)
        r, quots = normal_form(s, table)
        terms = {(m, symbols[k]): -c for k, q in quots.items() for m, c in q.terms.items()}
        # the cofactors reach the lcm, above every quotient term: no overlap
        terms[(ui, symbols[i])], terms[(uj, symbols[j])] = ci, cj
        yield i, j, r, ModElement._raw(curve.params.nvars, terms)


# ---------------------------------------------------------------------------
# verification


def _shape_module_sum(curve: Curve) -> dict:
    """sum_sym t^{w(image(sym))} K(M_sym) for the predicted lead sets M_sym:
    X_1..X_p on Psi(j) for j < p-b, the X_i*X_j with 1 <= i <= j <= p-1 on
    Psi(p-b), and X_1..X_{j-1} on Phi(i, j).  K is prod (1 - t^{m_l}) over
    the variables of a set, and (1 + sum_{i<p} t^{m_i}) prod_{i<p}(1 -
    t^{m_i}) for the quadratics, so the sum is taken by Horner's rule:
    from the Psi(j) with j < p-b, times (1 - t^{m_p}), plus the quadratic
    term of Psi(p-b); then for j = p-1 down to 1, times (1 - t^{m_j}),
    plus the t^{w(image(Phi(i, j)))} with i <= j."""
    params, gens = curve.params, curve.params.generators
    p, b, levels = params.p, params.b, {}
    quadratic = dict.fromkeys((0, *gens[1:-1]), 1)  # 1 + sum_{i<p} t^{m_i}
    for sym, image in curve.images.items():
        shift = params.weight(next(iter(image.terms)))
        if isinstance(sym, Phi):
            _add_shifted(levels.setdefault(sym.j, {}), {shift: 1})
        elif sym.j < p - b:
            _add_shifted(levels.setdefault(p + 1, {}), {shift: 1})
        else:
            _add_shifted(levels.setdefault(p, {}), quadratic, shift)
    series = levels.get(p + 1, {})
    for j in range(p, 0, -1):
        series = _add_shifted(_times_one_minus(series, [gens[j]]), levels.get(j, {}))
    return series


def _module_identity(curve: Curve) -> bool:
    """Whether sum_sym t^{w(image(sym))} K(M_sym) = 1 - N, for the leads
    M_sym of the syzygy basis on each symbol.  Once the images are a
    Groebner basis of I (the certified ring Reducer's basis), the syzygy
    module Syz is the kernel of the free module F onto I, graded by the
    images, so HS(F/Syz) = HS(I) has numerator 1 - N; a basis inside Syz
    is a Groebner basis of it exactly when its leads give F/<LT(basis)>
    that series (Macaulay, symbol by symbol).

    When each member leads with its predicted term (Curve.module_shape,
    the leading-term-shape comparison), the sum is taken in closed form
    (_shape_module_sum).  Any other lead set goes to Bigatti's recursion
    (polyring.hilbert_numerator), once per distinct lead set, as many
    symbols share one."""
    params, table = curve.params, curve.module_reducer
    if curve.module_shape:
        series = _shape_module_sum(curve)
    else:
        shifts = {}
        for sym, image in curve.images.items():
            leads = frozenset(table.lead_monomials(sym))
            shifts.setdefault(leads, []).append(params.weight(next(iter(image.terms))))
        series = {}
        for leads, weights in shifts.items():
            k = hilbert_numerator(params.exponent_weights, leads)
            for shift in weights:
                _add_shifted(series, k, shift)
    return series == _add_shifted({0: 1}, apery_numerator(params), sign=-1)


def verify_syzygy_basis(curve: Curve) -> VerificationReport:
    """Full check of the syzygy basis: (a) every member evaluates to zero;
    (b) the leading terms match the per-family prediction; (c) every
    S-vector of two members whose leads share a symbol reduces to zero
    against the basis; (d) every S-polynomial of the generators reduces to
    zero, and every relation harvested from those reductions is a relation
    that reduces to zero against the basis; (e) no lead divides another.

    (c) and (d) are decided by one identity (_module_identity) once (a)
    passed and the ring identity holds (Curve.ring_certified) for the
    symbols' binomials, the ring Reducer's basis: the basis is then a
    Groebner basis of the syzygy module, which holds every S-vector and
    every harvested relation, and the details count every pair.  When (b)
    holds, the identity is taken in closed form from the predicted lead
    sets; otherwise by Bigatti's recursion on the computed ones.
    Otherwise the S-vectors are divided x-major and the harvest of every
    pair of binomials (schreyer_relations) is scanned j-major; the first
    failure of each is its witness and ends its count, and no pair of
    binomials after it is divided.

    The members are read from the module Reducer, in label order, and
    (b) is Curve.module_shape, keyed by family and index tuple (Curve.keys);
    a label is spelled (SyzygySet.label) only for a witness.
    """
    params, morder, table, sset = curve.params, curve.morder, curve.module_reducer, curve.sset
    keys = curve.keys
    report = VerificationReport(params)

    bad = None
    for k, g in enumerate(table.basis):
        image = relation_image(curve, g)
        if image:
            bad = {"element": sset.label(keys[k]), "image": poly_to_json(morder.ring, image)}
            break
    n = len(table.basis)
    report.add("members-are-relations", bad is None, detail=f"{n} members", witness=bad)
    members_ok = bad is None

    # the first three keys whose lead differs from the prediction, labelled
    shape_ok, bad = curve.module_shape, None
    if not shape_ok:
        # a repeated key keeps its first place and its last lead
        actual = dict(zip(keys, (term for term, _ in table.leads)))
        predicted, mismatch = dict(_expected_leads(params)), []
        for key, term in actual.items():
            want = predicted.get(key)  # None for a key with no prediction
            if term != want:
                mismatch.append({"element": sset.label(key), "computed": term_to_json(term),
                                 "expected": None if want is None else term_to_json(want)})
                if len(mismatch) == 3:
                    break
        bad = {"mismatches": mismatch}
    report.add("leading-term-shape", shape_ok, detail=f"{n} leading terms", witness=bad)

    # one identity decides (c) and (d); if it or a hypothesis fails, both scan
    certified = members_ok and curve.ring_certified and _module_identity(curve)
    bad, count = None, table.pair_count()
    if not certified:
        count, pair, r = table.first_unreduced()
        if pair:
            bad = {"pair": [sset.label(keys[k]) for k in pair],
                   "remainder": mod_elem_to_json(morder, r)}
    report.add("s-vectors-reduce", bad is None, detail=f"{count} same-symbol pairs", witness=bad)

    symbols, bad = list(curve.images), None
    count = len(symbols) * (len(symbols) - 1) // 2
    if not certified:
        for count, (i, j, r, rel) in enumerate(schreyer_relations(curve), 1):
            pair = [str(symbols[i]), str(symbols[j])]
            if r:
                bad = {"pair": pair, "problem": "S-polynomial does not reduce to zero"}
            elif relation_image(curve, rel):
                bad = {"pair": pair, "problem": "harvested element is not a relation"}
            else:
                r, _ = normal_form(rel, table)
                bad = {"pair": pair, "remainder": mod_elem_to_json(morder, r)} if r else None
            if bad:
                break
    report.add("harvested-relations-reduce", bad is None, detail=f"{count} harvested relations",
               witness=bad)

    # the first dividing (x, y) in the order of a double loop over all
    # leads, and the ordered pairs that loop would have tried up to it
    first = _first_dividing_pair(table)
    checked, offender = n * (n - 1), None
    if first is not None:
        x, y = first
        checked = x * (n - 1) + (y if x < y else y + 1)
        offender = {"divisor": sset.label(keys[x]), "multiple": sset.label(keys[y])}
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
    dividing X^alpha.  Each is a box of exponents under one symbol, from
    its least member low up to a cap that is infinite on its free
    variables, so the check holds for all exponents.  A lead term divides
    some member exactly when it divides the cap, and the least such
    member, mono_lcm(lead, low), is the witness.  The detail counts the
    members with free exponents <= bound.

    The caps of the 2p variable-times-power boxes on Psi(p-b) carry at
    most one of X_1..X_{p-1} each, so those boxes are tested only against
    the leads on Psi(p-b) that do too.  Each lead is tested for that once,
    and p - 1 of the p(p-1)/2 predicted leads pass, so the boxes take O(p^2)
    divisibility tests, not p^3.  A lead left out divides no cap, so the
    first box hit, and its first lead, stay the same.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    params = curve.params
    p, b = params.p, params.b
    leads = curve.module_reducer.lead_monomials
    one = mono_one(params.nvars)
    x0, xp, top = variable_monomial(p, 0, inf), variable_monomial(p, p, inf), Psi(p - b)
    boxes = [("pure-X0", Psi(j), one, x0, leads(Psi(j))) for j in range(0, p - b + 1)]
    few = [m for m in leads(top) if m[:p - 1].count(0) >= p - 2]
    for i in range(1, p + 1):
        xi = variable_monomial(p, i)
        boxes.append(("X0-power-times-variable", top, xi, mono_mul(xi, x0), few))
        boxes.append(("Xp-power-times-variable", top, xi, mono_mul(xi, xp), few))
    for i in range(1, p):
        for j in range(i, p):
            caps = (0,) * (j - 1) + (inf,) * (p - j + 2)
            boxes.append(("low-index-free-Phi", Phi(i, j), one, caps, leads(Phi(i, j))))

    report = VerificationReport(params)
    bad = None
    for family, sym, low, high, tested in boxes:
        lead = next((m for m in tested if mono_divides(m, high)), None)
        if lead is not None:
            bad = {"family": family, "term": term_to_json((mono_lcm(lead, low), sym))}
            break
    count = sum((bound + 1) ** high.count(inf) for *_, high, _ in boxes)
    report.add(
        "excluded-forms-stay-excluded",
        bad is None,
        detail=f"{count} family members with exponents <= {bound}",
        witness=bad,
    )
    return report


def _draws(nvars: int, nsymbols: int, samples: int, seed: int) -> Iterator[tuple]:
    """The sampled terms of verify_order_projection, one (mono, k) per
    sample: exponents in [0, 4], then the index k of a symbol in text
    order, all drawn from random.Random(seed)."""
    rng = random.Random(seed)
    for _ in range(samples):
        yield tuple(rng.randrange(0, 5) for _ in range(nvars)), rng.randrange(nsymbols)


def verify_order_projection(curve: Curve, samples: int = 1000, seed: int = 0,
                            drawn: dict | None = None) -> VerificationReport:
    """Sampled check that the order projection of a single term equals the
    leading monomial of its image.

    Each sample draws a term (mono, sym), exponents in [0, 4] and a symbol
    in text order, from random.Random(seed).  The draws depend only on the
    number of variables (p + 1), the number of symbols (fixed by p and b),
    samples and seed, so all triples with the same p and b draw the same
    terms.  Without drawn they are drawn one sample at a time, and the
    first failing sample stops them.  drawn maps those four numbers to the
    list of their samples terms, filled on first use: a caller checking
    many triples draws each (p, b) shape's terms once, and holds samples
    terms per shape it keeps (sweep keeps one p's shapes).  An exact
    per-symbol check would draw only to name a witness, and need no dict.

    A term's image is mono times the binomial of sym: the binomial's
    monomials are distinct, so are their products with mono, and no term
    of the image cancels.  So the image's lead is the largest of those
    products.  Both keys shift by the ring key of mono, so each symbol's
    image monomials and its projection (1, sym) are keyed once, and a
    sampled term costs one ring key, of mono.  A product is built only to
    name a failing term's image lead.  The witness is the first term
    whose projection key differs from its image lead's key.
    """
    ring_key = curve.order.key
    one = mono_one(curve.params.nvars)
    symbols = sorted(curve.images, key=str)
    # per symbol: its image monomials' ring keys, and its projection key
    table = [([ring_key(m) for m in curve.images[sym].terms],
              curve.morder.key((one, sym))[0]) for sym in symbols]
    shape = (curve.params.nvars, len(symbols), samples, seed)
    terms = _draws(*shape) if drawn is None else drawn.get(shape)
    if terms is None:
        terms = drawn[shape] = list(_draws(*shape))
    bad = None
    for mono, k in terms:
        w, nr = ring_key(mono)
        image_keys, (ws, ns) = table[k]
        if (max([(w + wm, tuple(map(add, nr, nm))) for wm, nm in image_keys])
                != (w + ws, tuple(map(add, nr, ns)))):
            lm = max((tuple(map(add, mono, m)) for m in curve.images[symbols[k]].terms),
                     key=ring_key)
            bad = {"term": term_to_json((mono, symbols[k])), "image-lead": list(lm)}
            break
    report = VerificationReport(curve.params)
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
