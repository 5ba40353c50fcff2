"""The free module over the ring presenting the relations among the
closed-form generators, and the Groebner basis of its syzygy submodule.

Module elements are sums of terms (monomial, symbol) where the symbol is
either Psi(j), standing for the power binomial psi(b, j), or Phi(i, j)
(canonically i <= j), standing for the quadratic binomial phi(i, j).
The evaluation map sends a term to monomial * binomial; an element is a
relation when its image is zero.

syzygy_basis holds no member: SyzygySet.keyed() builds them as it is
walked, each family in label order from one loop over its own index
range, from one table per triple (_table) of unit monomials and
symbols, each built once and shared by every term that carries it.  The
table applies two index conventions:
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
the three builders: it walks the syzygy basis once, reading each
member's lead and image from its packed monomials in one loop
(_Packing.read), and keeps the keys, the leads and the first member
that is not a relation, but no member.  The ring certificate
(Curve.ring_certified) and the lead-shape comparison (Curve.module_shape)
are computed as it is built; the module Reducer and the closure of G
wait for a failing certificate.  Every verify_* report takes one.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, starmap, zip_longest
from math import inf
from operator import add, eq, itemgetter, mul, sub
from typing import NamedTuple

from .generators import (
    _certified,
    _closure_by_weight,
    _mixed_weight,
    _units,
    expected_leading_monomials,
    groebner_generators,
    patil_generators,
)
from .polyring import (
    Closure,
    LeadTable,
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
from .semigroup import CurveParams, _add_shifted, _apery_by_mp, _times_one_minus, apery_numerator


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

    A ring product on packed monomials (Curve.packing, _Packing.read):
    each monomial of the images and of the elements is packed into one
    int once per Curve, so a product is one integer addition and the sum
    is keyed by ints.  Only a non-zero image is unpacked into the Poly it
    returns.
    """
    pack = curve.packing
    acc = pack.read(elem)[1]
    return Poly._raw(curve.params.nvars, pack.unpack(acc) if acc else acc)


class _Packing:
    """The monomials met on one Curve, each packed into one int, its ring
    key (polyring._packed_keys) at the width of the fields, shifted above
    the rank of the symbols' tie-breaks: codes maps a monomial to its int.
    The ring key is additive and every exponent packed is below
    2**(width - 1), so the int of a product of two packed monomials is the
    sum of theirs, with no carry from one field into the next; a monomial
    with a larger exponent re-packs every monomial at a wider width.

    symbols maps each symbol it can read, of the symbols given, to its
    part, its stamp's int plus its rank, and its image, its binomial's
    terms as (int, coefficient) pairs, none for a symbol with no binomial.
    The sum of a term's monomial's int and its symbol's part is its
    projection's key above its symbol's rank, which sorts as
    ModuleOrder.key does.  monos are packed with the stamps and the
    binomials' monomials."""

    __slots__ = ("nvars", "width", "codes", "symbols", "_weights", "_low", "_stamps",
                 "_binomials")

    def __init__(self, morder: ModuleOrder, symbols, binomials: dict, monos):
        known = {sym: morder._symbol(sym) for sym in set(symbols)}
        # each symbol's stamp, in the order of the symbols' tie-breaks
        self._stamps = {sym: known[sym][3] for sym in sorted(known, key=lambda s: known[s][2])}
        self.nvars, self.width, self.codes, self.symbols = morder.params.nvars, 0, {}, {}
        self._weights, self._low = morder.params.exponent_weights, len(known).bit_length()
        self._binomials = binomials
        self.add(chain(monos, self._stamps.values(),
                       (m for g in binomials.values() for m in g.terms)))

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
        codes.update(_packed_keys(self._weights, new, self._low, self.width))
        if widen:
            binomials = self._binomials
            self.symbols = {sym: (codes[stamp] + rank,
                                  [(codes[m], c) for m, c in binomials[sym].terms.items()]
                                  if sym in binomials else ())
                            for rank, (sym, stamp) in enumerate(self._stamps.items())}

    def read(self, elem: ModElement) -> tuple:
        """(lead, image) of elem from one loop over its terms: its leading
        term and coefficient under the module order, None for zero, and
        its non-zero image terms keyed by packed ints.  A monomial not
        packed yet is packed with the rest of the element, and the loop
        starts again, as that may have widened every field."""
        terms = elem.terms
        while True:
            codes, symbols = self.codes, self.symbols
            lead, top, acc = None, -1, {}  # every key is at least 0
            get = acc.get
            for term, c in terms.items():
                code = codes.get(term[0])
                if code is None:
                    break
                part, image = symbols[term[1]]
                if code + part > top:
                    lead, top = term, code + part
                for code2, c2 in image:
                    mm = code + code2
                    acc[mm] = get(mm, 0) + c * c2
            else:
                if any(acc.values()):
                    return (lead, terms[lead]), {mm: v for mm, v in acc.items() if v}
                return lead and (lead, terms[lead]), {}
            self.add(mono for mono, _ in terms)

    def ring_lead(self, g: Poly) -> tuple:
        """The leading term and coefficient of g, a Poly whose monomials
        are packed, under the ring order: the monomial of largest int."""
        if not g.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        mono = max(g.terms, key=self.codes.__getitem__)
        return mono, g.terms[mono]

    def unpack(self, acc: dict) -> dict:
        """acc, keyed by packed ints, keyed by exponent tuples: each int,
        shifted down past the ranks, is the weight above the packed
        exponents, less those."""
        width, low, nvars = self.width, self._low, self.nvars
        mask, top = (1 << width) - 1, (1 << width * nvars) - 1
        shifts = range(0, width * nvars, width)
        return {tuple(packed >> s & mask for s in shifts): c
                for packed, c in ((-(code >> low) & top, c) for code, c in acc.items())}


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
        weight and the negated reversed exponents of its stamp, its
        tie-break, and the stamp itself."""
        known = self._symbols.get(sym)
        if known is None:
            stamp = _stamp(self.params, sym)
            known = self._symbols[sym] = (*self.ring.key(stamp), _symbol_tiebreak(sym), stamp)
        return known

    def key(self, term):
        mono, sym = term
        weight, negrev, tiebreak, _ = self._symbol(sym)
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
            weight, negrev, tiebreak, _ = symbol(sym)
            key = ((sum(map(mul, mono, weights)) + weight, tuple(map(sub, negrev, reversed(mono)))),
                   tiebreak)
            if top is None or key > top:
                lead, top = term, key
        return lead, elem.terms[lead]

    def leading_terms(self, elems: list) -> list:
        """[leading_term(g) for g in elems], in one pass that keys each term
        occurrence with one int addition, on a _Packing of their symbols
        with no images: each distinct monomial, and each symbol's stamp, is
        weighed and packed once.  Each symbol's part of key() is filled in
        _symbols, as leading_term() fills it."""
        terms = set().union(*(g.terms for g in elems))
        pack = _Packing(self, (sym for _, sym in terms), {}, {mono for mono, _ in terms})
        leads = []
        for g in elems:
            lead = pack.read(g)[0]
            if lead is None:
                raise ZeroPolynomialError("the zero element has no leading term")
            leads.append(lead)
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


def _family_A(params: CurveParams, table: tuple) -> Iterator[tuple]:
    """A(i; b, j), led by X_i * Psi(j), for i in [1, p] and j in [0, p-b-1],
    keyed by ("A", (i, j)) in label order: multiplying psi(b, j) by X_i
    re-expresses the product through the next power binomial, Psi(b+i+j)
    capped at Psi(p-b) with X_{b+i+j-p}, and quadratic corrections on X_p^a
    and X_0^(a+d), each kept where its Phi has both indices in [1, p-1]."""
    p, b, nv = params.p, params.b, params.nvars
    x, psi, phi = table
    xpa, x0ad = x[p + 1], x[p + 2]
    for i in range(1, p + 1):
        for j in range(p - b):
            s = b + i + j
            terms = {(x[i], psi[j]): 1}
            if s < p:
                terms[x[0], psi[i + j]] = -1
            else:
                terms[x[s - p], psi[-1]] = -1
            if i < p:
                terms[xpa, phi[i, b + j]] = -1
            # at i = p-b the two X0 corrections carry one symbol and cancel
            if i != p - b:
                if i < p and j:
                    terms[x0ad, phi[i, j]] = 1
                if s > p:
                    terms[x0ad, phi[s - p, p - b]] = -1
            yield ("A", (i, j)), ModElement._raw(nv, terms)


def _family_B(params: CurveParams, table: tuple) -> Iterator[tuple]:
    """B(i, j), led by X_i * X_j * Psi(p-b), for 1 <= i <= j <= p-1, keyed
    by ("B", (i, j)) in label order: phi(i, j) on Psi(p-b) less one copy
    of psi(b, p-b) on Phi(i, j), a Koszul-style relation, each binomial's
    two monomials multiplied from the table's units."""
    p, b, nv = params.p, params.b, params.nvars
    x, psi, phi = table
    top, top_lead, top_tail = psi[-1], mono_mul(x[p], x[p + 1]), mono_mul(x[p - b], x[p + 2])
    for i in range(1, p):
        for j in range(i, p):
            e = i + j if i + j < p else p
            yield ("B", (i, j)), ModElement._raw(nv, {(mono_mul(x[i], x[j]), top): 1,
                                                    (mono_mul(x[e], x[i + j - e]), top): -1,
                                                    (top_lead, phi[i, j]): -1,
                                                    (top_tail, phi[i, j]): 1})


def _family_L(params: CurveParams, table: tuple) -> Iterator[tuple]:
    """L(l; i, j), led by X_l * Phi(i, j), for i <= j and l < j in [1, p-1],
    keyed by ("L", (l, i, j)) in label order: it exchanges the outer multiplier
    between two quadratic symbols, with corrections on X_0 below the cap
    p and on X_p above it."""
    p, nv = params.p, params.nvars
    x, _, phi = table
    for l in range(1, p - 1):
        for i in range(1, p):
            for j in range(max(i, l + 1), p):
                terms = {(x[l], phi[i, j]): 1, (x[j], phi[i, l]): -1}
                if i + j < p:
                    terms[x[0], phi[i + j, l]] = 1
                elif i + j > p:
                    terms[x[p], phi[i + j - p, l]] = 1
                if i + l < p:
                    terms[x[0], phi[i + l, j]] = -1
                elif i + l > p:
                    terms[x[p], phi[i + l - p, j]] = -1
                yield ("L", (l, i, j)), ModElement._raw(nv, terms)


@dataclass(frozen=True)
class SyzygySet:
    """The full syzygy basis of one triple, keyed by family and index
    tuple.  It holds no member: keyed() builds them one at a time, as it
    is walked, so a walk that drops each member holds none.

    keyed() lists each member under its key (family, index tuple), in
    label order, and spells no label; label(key) spells one, for output
    and witnesses.  A, B and L map one family's index tuples to its
    members, built from a walk, for a reader of one family.
    """

    params: CurveParams

    def __len__(self) -> int:
        return self.counts()["total"]

    def counts(self) -> dict:
        return _counts({key for key, _ in self.keyed()})

    def keyed(self) -> Iterator[tuple[tuple, ModElement]]:
        """(key, member) pairs: A by (i, j), then B by (i, j), then L by
        (l, i, j), each key (family, index tuple), each family built as it
        is walked from one table (_table)."""
        params = self.params
        table = _table(params)
        for family in (_family_A, _family_B, _family_L):
            yield from family(params, table)

    def _family(self, name: str) -> dict:
        return {key[1]: g for key, g in self.keyed() if key[0] == name}

    A = property(lambda self: self._family("A"))
    B = property(lambda self: self._family("B"))
    L = property(lambda self: self._family("L"))

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


def _counts(keys) -> dict:
    """The members of each family among keys, distinct keys, and their
    total; a key that is no (family, index tuple), as a planted member's,
    counts in none."""
    families = Counter(key[0] for key in keys if type(key) is tuple)
    counts = {family: families[family] for family in "ABL"}
    counts["total"] = sum(counts.values())
    return counts


def syzygy_basis(params: CurveParams) -> SyzygySet:
    """The syzygy basis of one triple, whose members SyzygySet.keyed()
    builds as it is walked."""
    return SyzygySet(params)


def _expected_leads(params: CurveParams) -> Iterator[tuple]:
    """The key and the predicted leading term of each basis element, in
    label order, as SyzygySet.keyed() keys and lists the members."""
    p, b = params.p, params.b
    x = [variable_monomial(p, i) for i in range(p + 1)]
    psi = [Psi(j) for j in range(p - b + 1)]  # each symbol built once
    for i in range(1, p + 1):
        for j in range(0, p - b):
            yield ("A", (i, j)), (x[i], psi[j])
    top = psi[-1]
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
    got = zip(keys, map(itemgetter(0), leads))
    return all(starmap(eq, zip_longest(got, _expected_leads(params))))


# ---------------------------------------------------------------------------
# one prepared triple


class Curve:
    """The objects every check of one triple shares, built once by
    __init__ from groebner_generators, patil_generators and syzygy_basis,
    and never changed afterwards but for the two parts built on first use.

    order is the ring order inside morder.  images maps each module
    symbol, of A, B and L, to its binomial, the phis by (i, j) and then
    the psis by j, as gset.labeled() lists them, and ring_reducer divides
    by those binomials in that order: it holds G, the one copy the ring
    checks and the Schreyer harvest read, and takes its leads from the
    packed ints of packing (_Packing.ring_lead), which sort as the ring
    keys.  predicted_leads holds the predicted lead
    monomials of G (generators.expected_leading_monomials), which the
    ring certificate and the two ring checks that compare leads read.

    The syzygy basis is walked once, in label order (SyzygySet.keyed),
    and each member is dropped once read: one loop over its terms
    (_Packing.read) gives its lead and its image.  The Curve keeps each
    member's key, in keys, from which counts counts them per family, the
    LeadTable of their leads, in module_leads, and the first member whose
    image is not zero, as (index, image), in non_relation, or None.
    module_shape, whether the keys and leads are the predicted ones in
    label order (_shape_holds), and ring_certified are computed here, as
    every verify reads them.  Only a check whose certificate fails builds
    the module Reducer (module_reducer), by walking the basis again, or
    the closure (closure()): a passing verify, deep or shallow, builds
    neither.  A test plants a part through the builders, before the Curve
    is built.
    """

    __slots__ = ("params", "morder", "order", "gset", "patil", "sset", "keys", "images",
                 "ring_reducer", "module_leads", "non_relation", "predicted_leads",
                 "ring_certified", "module_shape", "packing", "_module_reducer", "_closure")

    def __init__(self, params: CurveParams):
        self.params = params
        self.morder = morder = ModuleOrder(params)
        self.order = morder.ring
        self.gset = groebner_generators(params)
        self.patil = patil_generators(params)
        self.sset = syzygy_basis(params)
        self.images = {Phi(i, j): g for (i, j), g in sorted(self.gset.phis.items())}
        self.images.update((Psi(j), g) for j, g in sorted(self.gset.psis.items()))
        # the table's symbols are the members', and its units their
        # monomials, but B's products, which are G's
        units, psi, phi = _table(params)
        self.packing = pack = _Packing(morder, chain(psi, phi.values()), self.images, units)
        self.ring_reducer = table = Reducer(self.order, self.images.values(),
                                            map(pack.ring_lead, self.images.values()))
        self.predicted_leads = expected_leading_monomials(params)
        # whether G, each element of one weight, is a Groebner basis of the
        # curve ideal (generators._certified)
        self.ring_certified = (_mixed_weight(params, enumerate(table.basis)) is None
                               and _certified(table, self.predicted_leads))
        keys, leads, bad = [], [], None
        for key, g in self.sset.keyed():
            lead, image = pack.read(g)
            if lead is None:
                raise ZeroPolynomialError("the zero element has no leading term")
            if image and bad is None:
                bad = len(keys), Poly._raw(params.nvars, pack.unpack(image))
            keys.append(key)
            leads.append(lead)
        self.keys, self.non_relation = keys, bad
        # whether each member leads with its predicted term, as
        # leading-term-shape reports
        self.module_shape = _shape_holds(params, keys, leads)
        self.module_leads = LeadTable(morder, leads)
        self._module_reducer = self._closure = None

    @property
    def counts(self) -> dict:
        """The members of each family, and their total, from keys, each
        counted once: when module_shape holds, they are the predicted
        keys, each once, and need no set."""
        return _counts(self.keys if self.module_shape else set(self.keys))

    @property
    def module_reducer(self) -> Reducer:
        """The Reducer of the syzygy basis in label order, with the leads
        module_leads holds, built once, on first use, by walking the basis
        again: only the S-vector scan and the harvest of a failing
        certificate divide by it."""
        if self._module_reducer is None:
            self._module_reducer = Reducer(self.morder, (g for _, g in self.sset.keyed()),
                                           self.module_leads.leads)
        return self._module_reducer

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
    """sum_sym t^{w(image(sym))} K(M_sym) + N for the predicted lead sets
    M_sym: X_1..X_p on Psi(j) for j < p-b, the X_i*X_j with 1 <= i <= j <=
    p-1 on Psi(p-b), and X_1..X_{j-1} on Phi(i, j).  K is prod (1 -
    t^{m_l}) over the variables of a set, and (1 + sum_{i<p} t^{m_i})
    prod_{i<p}(1 - t^{m_i}) for the quadratics, so the sum is taken by
    Horner's rule: from the Psi(j) with j < p-b, times (1 - t^{m_p}), plus
    the quadratic term of Psi(p-b); then for j = p-1 down to 1, times (1 -
    t^{m_j}), plus the t^{w(image(Phi(i, j)))} with i <= j.  N is A(t)(1 -
    t^{m_p}) (semigroup._apery_by_mp) times the same p - 1 factors, so it
    joins the sum before them, and the module identity holds exactly when
    the result is 1."""
    params, gens = curve.params, curve.params.generators
    p, b = params.p, params.b
    levels = {p: _apery_by_mp(params)}
    quadratic = dict.fromkeys((0, *gens[1:-1]), 1)  # 1 + sum_{i<p} t^{m_i}
    for sym, image in curve.images.items():
        shift = params.weight(next(iter(image.terms)))
        if isinstance(sym, Phi):
            _add_shifted(levels.setdefault(sym.j, {}), {shift: 1})
        elif sym.j < p - b:
            _add_shifted(levels.setdefault(p + 1, {}), {shift: 1})
        else:
            _add_shifted(levels[p], quadratic, shift)
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
    the leading-term-shape comparison), the sum plus N is taken in closed
    form, in one Horner chain (_shape_module_sum), and must be 1.  Any
    other lead set goes to Bigatti's recursion (polyring.hilbert_numerator),
    once per distinct lead set, as many symbols share one."""
    params, table = curve.params, curve.module_leads
    if curve.module_shape:
        return _shape_module_sum(curve) == {0: 1}
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
    binomials after it is divided.  (e) follows from (b) too, as the
    predicted leads on one symbol are distinct and of one degree;
    otherwise the leads are scanned (polyring._first_dividing_pair).

    The members were read as the Curve was built (Curve.non_relation,
    Curve.module_leads), in label order, and (b) is Curve.module_shape,
    keyed by family and index tuple (Curve.keys); a label is spelled
    (SyzygySet.label) only for a witness.  Only a failing (c) or (d)
    divides, by Curve.module_reducer.
    """
    params, morder, leads, sset = curve.params, curve.morder, curve.module_leads, curve.sset
    keys = curve.keys
    report = VerificationReport(params)

    bad, n = None, len(keys)
    if curve.non_relation is not None:
        k, image = curve.non_relation
        bad = {"element": sset.label(keys[k]), "image": poly_to_json(morder.ring, image)}
    report.add("members-are-relations", bad is None, detail=f"{n} members", witness=bad)
    members_ok = bad is None

    # the first three keys whose lead differs from the prediction, labelled
    shape_ok, bad = curve.module_shape, None
    if not shape_ok:
        # a repeated key keeps its first place and its last lead
        actual = dict(zip(keys, (term for term, _ in leads.leads)))
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
    bad, count = None, leads.pair_count()
    if not certified:
        count, pair, r = curve.module_reducer.first_unreduced()
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
                r, _ = normal_form(rel, curve.module_reducer)
                bad = {"pair": pair, "remainder": mod_elem_to_json(morder, r)} if r else None
            if bad:
                break
    report.add("harvested-relations-reduce", bad is None, detail=f"{count} harvested relations",
               witness=bad)

    # the first dividing (x, y) in the order of a double loop over all
    # leads, and the ordered pairs that loop would have tried up to it.
    # When (b) holds, the leads on each symbol are the predicted ones, each
    # once and all of one degree, so none divides another
    first = None if shape_ok else _first_dividing_pair(leads)
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
    leads = curve.module_leads.lead_monomials
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
