"""Sparse exact polynomial arithmetic and a Buchberger engine.

Monomials are exponent tuples of length p + 1 in the fixed variable
order (X1, ..., Xp, X0); the X0 exponent is stored last.  Coefficients
are exact: an int while the value is integral, a fractions.Fraction only
when it is not.  Every binomial and syzygy of the paper has coefficients
plus or minus one, so every basis divided by here has a unit lead
coefficient, and a reduction step is one integer multiply by the stored
inverse of that coefficient.  Any other lead coefficient, such as that
of a planted generator, brings Fractions into the same operators, so
the engine stays an exact oracle on every input.  Serialization goes
through Fraction, and Fraction(n) == n with equal hashes and equal str,
so no output depends on which type a coefficient has.

The term order compares weights first (X_i weighs m_i) and breaks ties
by the sign of the right-most non-zero entry of the exponent difference,
the larger monomial being the one whose entry is negative.  Encoded as a
sort key this is (weight, negated-reversed-exponents) under tuple order.

Poly shares its linear arithmetic with syzygy.ModElement through
SparseMap, and the ring and module orders share TermOrder.  There is
one division loop, Reducer.divide, for both: a Reducer prepares a basis
once, grouping its lead terms by module symbol, and a ring basis is a
module with the single symbol None.  A division returns its quotients
only for the basis elements it used.  Loops that divide many times by one
basis build the Reducer once and pass it to normal_form; the closed-form
basis of a triple has one Reducer, held by syzygy.Curve and shared by
every check and by schreyer_syzygies.

There is one S-pair builder, s_polynomial, for Polys and module
elements alike, and one Buchberger pair loop, closure.  buchberger
interreduces its full result; a membership test for an element of
weight w runs it truncated at top = w, dropping every S-pair whose lcm
weighs more.  The truncated basis decides membership exactly only when
the generators and the element are weight-homogeneous, as every binomial
of the curve ideal is; callers confirm that first.  schreyer_syzygies
divides every S-polynomial of a basis once and keeps each remainder with
the relation its division yields: the remainders decide the Groebner
claim, and the relations feed the completeness check of the syzygies.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, mul, sub

from .semigroup import CurveParams

Mono = tuple


# Leaf helpers run once per coefficient.  They are private, so that the
# perfbench tracer, which spans every public function, leaves them alone.


def _exact(c):
    """c as an int when it is integral, as a Fraction otherwise."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _inverse(c):
    """The exact inverse of a non-zero coefficient: c itself when it is
    plus or minus one."""
    return c if c == 1 or c == -1 else _exact(1 / Fraction(c))


class ZeroPolynomialError(ValueError):
    """A leading term was requested from the zero polynomial."""


# ---------------------------------------------------------------------------
# monomial helpers


def mono_one(nvars: int) -> Mono:
    return (0,) * nvars


def mono_mul(f: Mono, g: Mono) -> Mono:
    return tuple(map(add, f, g))


def mono_divides(f: Mono, g: Mono) -> bool:
    """True when f divides g componentwise."""
    return all(map(le, f, g))


def mono_div(f: Mono, g: Mono) -> Mono:
    """f / g; caller guarantees divisibility."""
    return tuple(map(sub, f, g))


def mono_lcm(f: Mono, g: Mono) -> Mono:
    return tuple(map(max, f, g))


def mono_coprime(f: Mono, g: Mono) -> bool:
    """True when no variable occurs in both; exponents are never negative."""
    return not any(map(mul, f, g))


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
    """Sparse map from term keys to non-zero exact coefficients (see _exact).

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

    def _exact_terms(self, terms):
        # a product with a Fraction in it can be integral again
        if any(type(c) is not int for c in terms.values()):
            terms = {t: _exact(c) for t, c in terms.items()}
        return self._raw(self.nvars, terms)

    def scaled(self, coeff):
        coeff = _exact(coeff)
        if not coeff:
            return self.zero(self.nvars)
        return self._exact_terms({t: c * coeff for t, c in self.terms.items()})

    def times_term(self, coeff, mono: Mono):
        coeff = _exact(coeff)
        if not coeff:
            return self.zero(self.nvars)
        shift = self._shift
        return self._exact_terms({shift(t, mono): c * coeff for t, c in self.terms.items()})


class Poly(SparseMap):
    """Sparse polynomial: map from exponent tuple to non-zero coefficient."""

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
                    clean[tuple(mono)] = _exact(coeff)
        self.terms = clean

    @classmethod
    def term(cls, nvars: int, mono: Mono, coeff=1) -> "Poly":
        if len(mono) != nvars:
            raise ValueError(f"monomial {mono} does not have {nvars} exponents")
        coeff = _exact(coeff)
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
        return elem if lc == 1 else elem.scaled(_inverse(lc))


class WeightOrder(TermOrder):
    """Total order on monomials for a fixed parameter set.

    key() is an ascending sort key: compare weights, then the negated
    reversed exponent tuple, so that of two equal-weight monomials the
    larger is the one whose right-most non-zero difference entry is
    negative.
    """

    def __init__(self, params: CurveParams):
        self.params = params
        self.weight = params.weight
        self._cache = {}

    def key(self, mono: Mono):
        k = self._cache.get(mono)
        if k is None:
            k = (self.weight(mono), tuple(-e for e in reversed(mono)))
            self._cache[mono] = k
        return k

    def leading_term(self, poly: Poly) -> tuple[Mono, int | Fraction]:
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
    inverse of the lead coefficient, the tail and the element's index,
    grouped by the symbol of the lead term.  A module basis groups by its
    module symbols; a ring basis is a module with the one symbol None.
    normal_form and syzygy.module_normal_form take a Reducer in place of
    a basis list; it must be built with the order they are given.
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
        self.rows.setdefault(sym, []).append((mono, _inverse(lc), tail, len(self.basis)))
        self.basis.append(g)

    def pairs(self) -> list[tuple[int, int]]:
        """The index pairs x < y whose leading terms share a symbol, x-major:
        every pair of a ring basis, and the S-pairs of a module basis."""
        return sorted((x, y) for row in self.rows.values()
                      for n, (*_, x) in enumerate(row) for *_, y in row[n + 1:])

    def divide(self, f):
        """(remainder, quotients) of f by the basis; see normal_form.

        Each processed term is smaller than the one before, so an index
        k never gets the same quotient monomial twice.
        """
        ring, rows, key = self.ring, self.rows, self.order.key
        work = dict(f.terms)
        remainder = {}
        quotients = {}
        while work:
            term = max(work, key=key)
            coeff = work.pop(term)
            mono, sym = (term, None) if ring else term
            for lm, inv, tail, k in rows.get(sym, ()):
                if mono_divides(lm, mono):
                    u = mono_div(mono, lm)
                    c = coeff * inv
                    q = quotients.get(k)
                    if q is None:
                        quotients[k] = {u: c}
                    else:
                        q[u] = c
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
        return f._raw(nv, remainder), {k: Poly._raw(nv, q) for k, q in quotients.items()}


def normal_form(order: WeightOrder, f: Poly, basis) -> tuple[Poly, dict[int, Poly]]:
    """Divide f by an ordered list of polynomials, or by a Reducer of one.

    Returns (remainder, quotients) with f = sum q_k * basis_k + remainder
    and no remainder monomial divisible by any basis leading monomial.
    quotients maps a basis index k to q_k only for the k the division
    used, so every stored q_k is non-zero.  Deterministic: the largest
    reducible term goes first and the first dividing basis element in
    list order wins.
    """
    if not isinstance(basis, Reducer):
        basis = Reducer(order, basis)
    return basis.divide(f)


def s_polynomial(order: TermOrder, f, g):
    """Cancel the leading terms of f and g against their lcm.

    f and g are both Polys, or both module elements whose leading terms
    carry one symbol; there is no S-pair across two symbols.
    """
    (tf, cf), (tg, cg) = order.leading_term(f), order.leading_term(g)
    (mf, sf), (mg, sg) = ((tf, None), (tg, None)) if isinstance(order, WeightOrder) else (tf, tg)
    if sf != sg:
        raise ValueError(f"the leading terms carry different symbols, {sf} and {sg}")
    lcm = mono_lcm(mf, mg)
    return f.times_term(_inverse(cf), mono_div(lcm, mf)) - g.times_term(
        _inverse(cg), mono_div(lcm, mg)
    )


def closure(order: WeightOrder, gens, top: int | None = None) -> Reducer:
    """Close gens under S-pairs: a Reducer of a Groebner basis of their ideal.

    The one pair loop: pairs are popped last-in first-out, a pair with
    coprime leading monomials is skipped, and every non-zero remainder
    joins the basis, monic, with a pair to each earlier element.  When
    top is given, a pair whose lcm of leading monomials weighs more than
    top is dropped as well.  For weight-homogeneous gens the result is
    then a Groebner basis up to weight top (Cox, Little, O'Shea, Ideals,
    Varieties, and Algorithms, on degree-truncated bases of homogeneous
    ideals): every S-polynomial and remainder is homogeneous of its lcm's
    weight, so each pair that could reach a weight up to top is processed,
    and a weight-homogeneous polynomial of weight at most top divides to
    its normal form modulo the whole ideal, zero exactly when it is a
    member.  The cost is in pairs, not in the number of monomials of
    weight top.  For input that is not weight-homogeneous a truncated
    closure decides nothing.
    """
    table = Reducer(order, (order.monic(g) for g in gens if g))
    basis = table.basis
    lms = [order.leading_monomial(g) for g in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        if mono_coprime(lms[i], lms[j]):
            continue
        if top is not None and order.weight(mono_lcm(lms[i], lms[j])) > top:
            continue
        s = s_polynomial(order, basis[i], basis[j])
        r, _ = normal_form(order, s, table)
        if r:
            table.append(order.monic(r))
            lms.append(order.leading_monomial(basis[-1]))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return table


def buchberger(order: WeightOrder, gens) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by gens.

    The untruncated closure, interreduced: monic and sorted by descending
    leading monomial, hence canonical for a given ideal.
    """
    return interreduce(order, closure(order, gens).basis)


def interreduce(order: WeightOrder, polys) -> list[Poly]:
    """Minimalize and fully reduce a basis; output monic, sorted descending.

    One Reducer over the kept elements reduces each element's tail.  A
    lead monomial divides no smaller monomial, so an element never
    reduces its own tail, and the result is that of dividing each element
    by all the others.
    """
    polys = sorted((order.monic(g) for g in polys if g), key=lambda g: order.key(order.leading_monomial(g)))
    kept = []
    kept_lms = []
    for g in polys:
        lm = order.leading_monomial(g)
        if any(mono_divides(m, lm) for m in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    table = Reducer(order, kept)
    out = []
    for g in kept:
        lead = Poly.term(g.nvars, *order.leading_term(g))
        out.append(lead + normal_form(order, g - lead, table)[0])
    out.sort(key=lambda g: order.key(order.leading_monomial(g)), reverse=True)
    return out


def schreyer_syzygies(table: Reducer) -> list[tuple[int, int, Poly, dict]]:
    """Every S-polynomial of a ring basis, divided once by the basis.

    The basis is that of the prepared ring Reducer table.  All pairs
    i < j are taken, j-major, with no coprime skip, since completeness of
    the harvest is the point.  Each entry is (i, j, remainder, vec),
    where vec maps an index k to a non-zero polynomial, only for the k
    that occur, and sum_k vec[k] * basis[k] == remainder.  For a Groebner
    basis every remainder is zero, and the vecs generate the module of
    relations among the basis (Schreyer).
    """
    order, polys = table.order, table.basis
    leads = [(lm, inv) for lm, inv, *_ in table.rows.get(None, ())]
    out = []
    for j in range(len(polys)):
        for i in range(j):
            r, quots = normal_form(order, s_polynomial(order, polys[i], polys[j]), table)
            lcm = mono_lcm(leads[i][0], leads[j][0])
            # the S-polynomial's own cofactors, which no quotient term can cancel
            vec = {k: Poly.term(r.nvars, mono_div(lcm, leads[k][0]), sign * leads[k][1])
                   for k, sign in ((i, 1), (j, -1))}
            for k, q in quots.items():
                vec[k] = vec[k] - q if k in vec else -q
            out.append((i, j, r, vec))
    return out


# ---------------------------------------------------------------------------
# the parameterization map


def curve_image(params: CurveParams, f: Poly) -> dict[int, int | Fraction]:
    """Substitute X_i -> T**m_i; result maps T-exponent to coefficient.

    The result is empty exactly when f lies in the curve ideal.
    """
    out = {}
    for mono, c in f.terms.items():
        t = params.weight(mono)
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

def coeff_to_str(c: int | Fraction) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _json_terms(order: TermOrder, elem, spell) -> list[dict]:
    """Terms largest first as {"coeff": "num/den", **spell(key)}."""
    return [{"coeff": coeff_to_str(c), **spell(key)} for key, c in order.sorted_terms(elem)]


def poly_to_json(order: WeightOrder, f: Poly) -> list[dict]:
    """Terms as {"coeff": "num/den", "expo": [...]}, sorted descending."""
    return _json_terms(order, f, lambda m: {"expo": list(m)})


def poly_from_json(nvars: int, items) -> Poly:
    return Poly(nvars, {tuple(t["expo"]): _exact(t["coeff"]) for t in items})


def _term_text(mono: Mono, c: int | Fraction) -> str:
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
