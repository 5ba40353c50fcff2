"""Sparse exact polynomial arithmetic and a Buchberger engine.

Monomials are exponent tuples of length p + 1 in the fixed variable
order (X1, ..., Xp, X0); the X0 exponent is stored last.  Coefficients
are fractions.Fraction throughout: S-polynomial reduction can leave the
set of plus/minus-one binomials, and the engine is used as an oracle,
so exactness is not negotiable.

The term order compares weights first (X_i weighs m_i) and breaks ties
by the sign of the right-most non-zero entry of the exponent difference,
the larger monomial being the one whose entry is negative.  Encoded as a
sort key this is (weight, negated-reversed-exponents) under tuple order.

Poly shares its linear arithmetic with syzygy.ModElement through
SparseMap, and the ring and module orders share TermOrder.  There is
one division loop, Reducer.divide, for both: a Reducer prepares a basis
once, grouping its lead terms by module symbol, and a ring basis is a
module with the single symbol None.  Loops that divide many times by one
basis build the Reducer once and pass it to normal_form.
"""

from __future__ import annotations

from fractions import Fraction

from .semigroup import CurveParams

Mono = tuple


class ZeroPolynomialError(ValueError):
    """A leading term was requested from the zero polynomial."""


# ---------------------------------------------------------------------------
# monomial helpers


def mono_one(nvars: int) -> Mono:
    return (0,) * nvars


def mono_mul(f: Mono, g: Mono) -> Mono:
    return tuple(x + y for x, y in zip(f, g))


def mono_divides(f: Mono, g: Mono) -> bool:
    """True when f divides g componentwise."""
    return all(x <= y for x, y in zip(f, g))


def mono_div(f: Mono, g: Mono) -> Mono:
    """f / g; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(f, g))


def mono_lcm(f: Mono, g: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(f, g))


def mono_coprime(f: Mono, g: Mono) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(f, g))


def variable_position(p: int, index: int) -> int:
    """Exponent position of X_index: X1..Xp sit at 0..p-1, X0 sits last."""
    if not 0 <= index <= p:
        raise IndexError(f"variable index {index} outside [0, {p}]")
    return index - 1 if index >= 1 else p


def variable_monomial(p: int, index: int, power: int = 1) -> Mono:
    expo = [0] * (p + 1)
    expo[variable_position(p, index)] = power
    return tuple(expo)


def mono_to_name(mono: Mono) -> str:
    """Readable form like X1^2*X0; '1' for the unit monomial."""
    p = len(mono) - 1
    parts = []
    for pos, e in enumerate(mono):
        if not e:
            continue
        name = f"X{pos + 1}" if pos < p else "X0"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# sparse maps and polynomials


class SparseMap:
    """Sparse map from term keys to non-zero Fractions.

    The linear arithmetic shared by Poly, whose keys are monomials, and
    syzygy.ModElement, whose keys are (monomial, symbol) pairs.  Each
    subclass brings its own validating constructor and a _shift(key,
    mono) that multiplies one key by a monomial.
    """

    __slots__ = ("nvars", "terms")

    @classmethod
    def _raw(cls, nvars, terms):
        elem = object.__new__(cls)
        elem.nvars = nvars
        elem.terms = terms
        return elem

    @classmethod
    def zero(cls, nvars: int):
        return cls._raw(nvars, {})

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(f"mixed variable counts: {self.nvars} vs {other.nvars}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        for t, c in other.terms.items():
            v = res.get(t, 0) + c
            if v:
                res[t] = v
            elif t in res:
                del res[t]
        return self._raw(self.nvars, res)

    def __sub__(self, other):
        self._check(other)
        res = dict(self.terms)
        for t, c in other.terms.items():
            v = res.get(t, 0) - c
            if v:
                res[t] = v
            elif t in res:
                del res[t]
        return self._raw(self.nvars, res)

    def __neg__(self):
        return self._raw(self.nvars, {t: -c for t, c in self.terms.items()})

    def scaled(self, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return self.zero(self.nvars)
        return self._raw(self.nvars, {t: c * coeff for t, c in self.terms.items()})

    def times_term(self, coeff, mono: Mono):
        coeff = Fraction(coeff)
        if not coeff:
            return self.zero(self.nvars)
        shift = self._shift
        return self._raw(self.nvars, {shift(t, mono): c * coeff for t, c in self.terms.items()})


class Poly(SparseMap):
    """Sparse polynomial: map from exponent tuple to non-zero Fraction."""

    __slots__ = ()
    _shift = staticmethod(mono_mul)

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} does not have {nvars} exponents")
                if coeff:
                    clean[tuple(mono)] = Fraction(coeff)
        self.terms = clean

    @classmethod
    def term(cls, nvars: int, mono: Mono, coeff=1) -> "Poly":
        if len(mono) != nvars:
            raise ValueError(f"monomial {mono} does not have {nvars} exponents")
        coeff = Fraction(coeff)
        return cls._raw(nvars, {tuple(mono): coeff} if coeff else {})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            res = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    v = res.get(m, 0) + c1 * c2
                    if v:
                        res[m] = v
                    elif m in res:
                        del res[m]
            return Poly._raw(self.nvars, res)
        return self.scaled(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        parts = [f"{c}*{mono_to_name(m)}" for m, c in sorted(self.terms.items())]
        return f"Poly({' + '.join(parts)})"


# ---------------------------------------------------------------------------
# term orders


class TermOrder:
    """What the ring and module orders share, given key() and leading_term().

    leading_term is written out in each subclass so that the calls of
    each order can be counted on its own class.
    """

    def compare(self, f, g) -> int:
        """1, 0 or -1 as f is greater than, equal to, or less than g."""
        if f == g:
            return 0
        return 1 if self.key(f) > self.key(g) else -1

    def sorted_terms(self, elem) -> list:
        return [(t, elem.terms[t]) for t in sorted(elem.terms, key=self.key, reverse=True)]

    def monic(self, elem):
        _, lc = self.leading_term(elem)
        return elem if lc == 1 else elem.scaled(Fraction(1) / lc)


class WeightOrder(TermOrder):
    """Total order on monomials for a fixed parameter set.

    key() is an ascending sort key: compare weights, then the negated
    reversed exponent tuple, so that of two equal-weight monomials the
    larger is the one whose right-most non-zero difference entry is
    negative.
    """

    def __init__(self, params: CurveParams):
        self.params = params
        self._weights = params.exponent_weights
        self._cache = {}

    def weight(self, mono: Mono) -> int:
        return sum(e * w for e, w in zip(mono, self._weights))

    def key(self, mono: Mono):
        k = self._cache.get(mono)
        if k is None:
            k = (self.weight(mono), tuple(-e for e in reversed(mono)))
            self._cache[mono] = k
        return k

    def leading_term(self, poly: Poly) -> tuple[Mono, Fraction]:
        if not poly.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        mono = max(poly.terms, key=self.key)
        return mono, poly.terms[mono]

    def leading_monomial(self, poly: Poly) -> Mono:
        return self.leading_term(poly)[0]


# ---------------------------------------------------------------------------
# division, S-polynomials, Buchberger


class Reducer:
    """A division basis prepared once for any number of divisions.

    For every element, in list order, it holds the lead monomial, the
    lead coefficient and the tail, grouped by the symbol of the lead
    term.  A module basis groups by its module symbols; a ring basis is
    a module with the one symbol None.  normal_form and
    syzygy.module_normal_form take a Reducer in place of a basis list;
    it must be built with the order they are given.
    """

    __slots__ = ("order", "ring", "basis", "rows")

    def __init__(self, order: TermOrder, basis=()):
        self.order = order
        self.ring = isinstance(order, WeightOrder)
        self.basis = []
        self.rows = {}
        for g in basis:
            self.append(g)

    def append(self, g) -> None:
        lead, lc = self.order.leading_term(g)
        if self.ring:
            mono, sym = lead, None
            tail = [(m, None, c) for m, c in g.terms.items() if m != lead]
        else:
            mono, sym = lead
            tail = [(m, s, c) for (m, s), c in g.terms.items() if (m, s) != lead]
        self.rows.setdefault(sym, []).append((mono, lc, tail, len(self.basis)))
        self.basis.append(g)

    def divide(self, f):
        """(remainder, quotients) of f by the basis; see normal_form."""
        ring, rows, key = self.ring, self.rows, self.order.key
        work = dict(f.terms)
        remainder = {}
        quotients = [{} for _ in self.basis]
        while work:
            term = max(work, key=key)
            coeff = work.pop(term)
            mono, sym = (term, None) if ring else term
            for lm, lc, tail, k in rows.get(sym, ()):
                if mono_divides(lm, mono):
                    u = mono_div(mono, lm)
                    c = coeff / lc
                    quotients[k][u] = quotients[k].get(u, 0) + c
                    for m2, s2, c2 in tail:
                        t2 = mono_mul(m2, u) if ring else (mono_mul(m2, u), s2)
                        v = work.get(t2, 0) - c * c2
                        if v:
                            work[t2] = v
                        elif t2 in work:
                            del work[t2]
                    break
            else:
                remainder[term] = coeff
        nv = f.nvars
        return f._raw(nv, remainder), [Poly._raw(nv, q) for q in quotients]


def normal_form(order: WeightOrder, f: Poly, basis) -> tuple[Poly, list[Poly]]:
    """Divide f by an ordered list of polynomials, or by a Reducer of one.

    Returns (remainder, quotients) with f = sum q_k * basis_k + remainder
    and no remainder monomial divisible by any basis leading monomial.
    Deterministic: the largest reducible term goes first and the first
    dividing basis element in list order wins.
    """
    if not isinstance(basis, Reducer):
        basis = Reducer(order, basis)
    return basis.divide(f)


def s_polynomial(order: WeightOrder, f: Poly, g: Poly) -> Poly:
    """Cancel the leading terms of f and g against their lcm."""
    lmf, lcf = order.leading_term(f)
    lmg, lcg = order.leading_term(g)
    lcm = mono_lcm(lmf, lmg)
    return f.times_term(Fraction(1) / lcf, mono_div(lcm, lmf)) - g.times_term(
        Fraction(1) / lcg, mono_div(lcm, lmg)
    )


def buchberger(order: WeightOrder, gens) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by gens.

    Classic pair-by-pair completion with the coprime-leading-term skip;
    the output is interreduced, monic, and sorted by descending leading
    monomial, hence canonical for a given ideal.
    """
    table = Reducer(order, (order.monic(g) for g in gens if g))
    basis = table.basis
    if not basis:
        return []
    lms = [order.leading_monomial(g) for g in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        if mono_coprime(lms[i], lms[j]):
            continue
        s = s_polynomial(order, basis[i], basis[j])
        r, _ = normal_form(order, s, table)
        if r:
            table.append(order.monic(r))
            lms.append(order.leading_monomial(basis[-1]))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return interreduce(order, basis)


def interreduce(order: WeightOrder, polys) -> list[Poly]:
    """Minimalize and fully reduce a basis; output monic, sorted descending."""
    polys = sorted((order.monic(g) for g in polys if g), key=lambda g: order.key(order.leading_monomial(g)))
    kept = []
    kept_lms = []
    for g in polys:
        lm = order.leading_monomial(g)
        if any(mono_divides(m, lm) for m in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    out = []
    for k, g in enumerate(kept):
        others = kept[:k] + kept[k + 1 :]
        if others:
            g, _ = normal_form(order, g, others)
        out.append(order.monic(g))
    out.sort(key=lambda g: order.key(order.leading_monomial(g)), reverse=True)
    return out


class NotGroebnerError(ValueError):
    """An S-polynomial failed to reduce to zero against its own basis."""

    def __init__(self, i: int, j: int, remainder: Poly):
        super().__init__(f"S-polynomial of elements {i} and {j} has non-zero normal form")
        self.pair = (i, j)
        self.remainder = remainder


def schreyer_syzygies(order: WeightOrder, polys) -> list[tuple[int, int, list[Poly]]]:
    """Syzygies harvested from the zero reduction of every S-polynomial.

    For a Groebner basis these generate the full module of relations
    among the inputs.  Each entry is (i, j, vec) with
    sum_k vec[k] * polys[k] == 0.  All pairs are processed; no coprime
    skip, since completeness of the harvested set is the point.
    Raises NotGroebnerError when some S-polynomial does not reduce to 0.
    """
    polys = list(polys)
    nv = polys[0].nvars
    lts = [order.leading_term(g) for g in polys]
    table = Reducer(order, polys)
    out = []
    for j in range(len(polys)):
        for i in range(j):
            (lmi, lci), (lmj, lcj) = lts[i], lts[j]
            lcm = mono_lcm(lmi, lmj)
            ui, uj = mono_div(lcm, lmi), mono_div(lcm, lmj)
            s = polys[i].times_term(Fraction(1) / lci, ui) - polys[j].times_term(
                Fraction(1) / lcj, uj
            )
            r, quots = normal_form(order, s, table)
            if r:
                raise NotGroebnerError(i, j, r)
            vec = [-q for q in quots]
            vec[i] = vec[i] + Poly.term(nv, ui, Fraction(1) / lci)
            vec[j] = vec[j] - Poly.term(nv, uj, Fraction(1) / lcj)
            out.append((i, j, vec))
    return out


# ---------------------------------------------------------------------------
# the parameterization map


def curve_image(params: CurveParams, f: Poly) -> dict[int, Fraction]:
    """Substitute X_i -> T**m_i; result maps T-exponent to coefficient.

    The result is empty exactly when f lies in the curve ideal.
    """
    weights = params.exponent_weights
    out = {}
    for mono, c in f.terms.items():
        t = sum(e * w for e, w in zip(mono, weights))
        v = out.get(t, 0) + c
        if v:
            out[t] = v
        elif t in out:
            del out[t]
    return out


def in_curve_ideal(params: CurveParams, f: Poly) -> bool:
    return not curve_image(params, f)


# ---------------------------------------------------------------------------
# serialization

def coeff_to_str(c: Fraction) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _json_terms(order: TermOrder, elem, spell) -> list[dict]:
    """Terms largest first as {"coeff": "num/den", **spell(key)}."""
    return [{"coeff": coeff_to_str(c), **spell(key)} for key, c in order.sorted_terms(elem)]


def poly_to_json(order: WeightOrder, f: Poly) -> list[dict]:
    """Terms as {"coeff": "num/den", "expo": [...]}, sorted descending."""
    return _json_terms(order, f, lambda m: {"expo": list(m)})


def poly_from_json(nvars: int, items) -> Poly:
    return Poly(nvars, {tuple(t["expo"]): Fraction(t["coeff"]) for t in items})


def _term_text(mono: Mono, c: Fraction) -> str:
    """One term with a positive coefficient: '3/2*X1^2', 'X1', '5' or '1'."""
    name = mono_to_name(mono)
    if c == 1:
        return name
    if name == "1":
        return str(c)
    return f"{c}*{name}"


def _join_signed(order: TermOrder, elem, spell) -> str:
    """Terms largest first, joined by their signs; spell(key, |coeff|) writes one."""
    text = ""
    for key, c in order.sorted_terms(elem):
        body = spell(key, abs(c))
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


def format_poly(order: WeightOrder, f: Poly) -> str:
    """Human-readable form with terms in descending order."""
    return _join_signed(order, f, _term_text)
