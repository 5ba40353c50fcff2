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

Poly shares its linear arithmetic and its validating constructor with
syzygy.ModElement through SparseMap, and the ring and module orders
share TermOrder.  There is one division loop, Reducer.divide, for both:
a Reducer prepares a basis once, grouping its lead terms by module
symbol, and a ring basis is a module with the single symbol None.
normal_form and syzygy.module_normal_form divide by a Reducer and
nothing else; the closed-form basis of a triple has one Reducer, held by
syzygy.Curve.  Reducer.pairs lists the S-pairs of its basis.

There is one S-pair builder, s_polynomial, for Polys and module
elements alike, and one Buchberger pair loop, Closure.close.  It takes
pairs in ascending weight of their lcm, the normal strategy (Giovini,
Mora, Niesi, Robbiano, Traverso, "One sugar cube, please", ISSAC 1991),
and can be resumed: generators join with Closure.add, and close(upto)
stops before the first pair heavier than upto, which decides membership
up to that weight.  buchberger interreduces a full closure.
hilbert_numerator, the Hilbert numerator of a monomial ideal, decides
whether a subset of a homogeneous ideal is a Groebner basis without
dividing an S-pair.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from operator import add, le, mul, neg, sub

from .semigroup import CurveParams, _add_shifted, _times_one_minus

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

    The linear arithmetic and the validating constructor shared by Poly,
    whose keys are monomials, and syzygy.ModElement, whose keys are
    (monomial, symbol) pairs.  Each subclass brings a _key(key, nvars)
    that checks one key and returns it canonical, and a _shift(key, mono)
    that multiplies one key by a monomial.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for key, coeff in terms.items():
                key = self._key(key, nvars)
                if coeff:
                    clean[key] = _exact(coeff)
        self.terms = clean

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

    def __add__(self, other, op=add):
        """self + other, and self - other with op=sub: the one loop of both."""
        self._check(other)
        res = dict(self.terms)
        for t, c in other.terms.items():
            v = op(res.get(t, 0), c)
            if v:
                res[t] = v
            elif t in res:
                del res[t]
        return self._raw(self.nvars, res)

    def __sub__(self, other):
        return self.__add__(other, sub)

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

    @staticmethod
    def _key(mono: Mono, nvars: int) -> Mono:
        if len(mono) != nvars:
            raise ValueError(f"monomial {mono} does not have {nvars} exponents")
        return tuple(mono)

    @classmethod
    def term(cls, nvars: int, mono: Mono, coeff=1) -> "Poly":
        mono = cls._key(mono, nvars)
        coeff = _exact(coeff)
        return cls._raw(nvars, {mono: coeff} if coeff else {})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            return sum((self.times_term(c, m) for m, c in other.terms.items()), self.zero(self.nvars))
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
    each order can be counted on its own class.  key() memoizes in the
    dict _cache, term to key, which Reducer.divide fills and reads
    directly.
    """

    def sorted_terms(self, elem) -> list:
        return [(t, elem.terms[t]) for t in sorted(elem.terms, key=self.key, reverse=True)]


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
            k = self._cache[mono] = (self.weight(mono), tuple(map(neg, reversed(mono))))
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
    normal_form and syzygy.module_normal_form divide by one, in the
    order it was built with.

    It also remembers, per term, the first row that divides it: rows are
    only appended, so that row stays the first for good.
    """

    __slots__ = ("order", "ring", "basis", "rows", "_hits")

    def __init__(self, order: TermOrder, basis=()):
        self.order = order
        self.ring = isinstance(order, WeightOrder)
        self.basis = []
        self.rows = {}
        self._hits = {}
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
        every pair of a ring basis, and the S-pairs of a module basis.
        The checks scan them only when a Hilbert-series identity
        (hilbert_numerator) fails to decide the Groebner claim."""
        return sorted((x, y) for row in self.rows.values()
                      for n, (*_, x) in enumerate(row) for *_, y in row[n + 1:])

    def divide(self, f):
        """(remainder, quotients) of f by the basis; see normal_form.

        Each term is keyed once, as it enters the work queue, by filling
        the order's key cache, so the largest term is found by plain
        lookups.  Each processed term is smaller than the one before, so
        an index k never gets the same quotient monomial twice.
        """
        ring, rows, hits = self.ring, self.rows, self._hits
        key, cache = self.order.key, self.order._cache
        work = dict(f.terms)
        for t in work:
            if t not in cache:
                key(t)
        rank = cache.__getitem__
        remainder = {}
        quotients = {}
        while work:
            term = max(work, key=rank)
            coeff = work.pop(term)
            mono = term if ring else term[0]
            row = hits.get(term)
            if row is None:
                for row in rows.get(None if ring else term[1], ()):
                    if all(map(le, row[0], mono)):
                        hits[term] = row
                        break
                else:
                    remainder[term] = coeff
                    continue
            lm, inv, tail, k = row
            u = tuple(map(sub, mono, lm))
            c = coeff * inv
            q = quotients.get(k)
            if q is None:
                quotients[k] = {u: c}
            else:
                q[u] = c
            for m2, s2, c2 in tail:
                t2 = tuple(map(add, m2, u)) if ring else (tuple(map(add, m2, u)), s2)
                v = work.get(t2)
                if v is None:
                    if t2 not in cache:
                        key(t2)
                    work[t2] = -c * c2
                else:
                    v -= c * c2
                    if v:
                        work[t2] = v
                    else:
                        del work[t2]
        nv = f.nvars
        return f._raw(nv, remainder), {k: Poly._raw(nv, q) for k, q in quotients.items()}


def normal_form(f: Poly, table: Reducer) -> tuple[Poly, dict[int, Poly]]:
    """Divide f by the basis of the ring Reducer table.

    Returns (remainder, quotients) with f = sum q_k * basis_k + remainder
    and no remainder monomial divisible by any basis leading monomial.
    quotients maps a basis index k to q_k only for the k the division
    used, so every stored q_k is non-zero.  Deterministic: the largest
    reducible term goes first and the first dividing basis element in
    list order wins.
    """
    return table.divide(f)


def _first_dividing_pair(groups) -> tuple[int, int] | None:
    """The first (x, y) in index order, x != y, whose lead x divides lead y
    within one group, or None.  Each group lists rows shaped like those of
    a Reducer, (lead, ..., index); leads on two symbols never divide."""
    return min(((x, y) for group in groups for lx, *_, x in group
                for ly, *_, y in group if x != y and mono_divides(lx, ly)), default=None)


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


class Closure:
    """A Buchberger closure grown weight by weight: the one pair loop.

    add(g) joins g, monic, to the basis, queueing a pair with each earlier
    element unless their leading monomials are coprime; a zero g is
    skipped.  close(upto) processes the queued pairs in ascending weight,
    and heavier pairs stay queued, so more generators can be added and the
    closure resumed at a larger weight.  table is the Reducer of the basis
    so far, and its rows hold the leads.
    """

    __slots__ = ("order", "table", "_pairs")

    def __init__(self, order: WeightOrder, gens=()):
        self.order = order
        self.table = Reducer(order)
        self._pairs = []
        for g in gens:
            self.add(g)

    def add(self, g) -> None:
        if not g:
            return
        order, table, pairs = self.order, self.table, self._pairs
        lm, lc = order.leading_term(g)
        j = len(table.basis)
        for m, *_, i in table.rows.get(None, ()):
            if not mono_coprime(m, lm):
                heappush(pairs, (order.weight(mono_lcm(m, lm)), i, j))
        table.append(g if lc == 1 else g.scaled(_inverse(lc)))

    def close(self, upto: int | None = None) -> Reducer:
        """The Reducer of a Groebner basis of the ideal of the generators
        added so far, truncated at weight upto (untruncated when None).

        Pairs are popped in ascending weight of the lcm of their leading
        monomials, ties by index, and every non-zero remainder of an
        S-polynomial joins through add, until the next pair weighs more
        than upto.  For weight-homogeneous generators the result is a
        Groebner basis up to weight upto (Cox, Little, O'Shea, Ideals,
        Varieties, and Algorithms, on degree-truncated bases of
        homogeneous ideals): every S-polynomial and remainder is
        homogeneous of its lcm's weight, so each pair that could reach a
        weight up to upto is processed, and a weight-homogeneous
        polynomial of weight at most upto divides to its normal form
        modulo the whole ideal, zero exactly when it is a member.  The
        cost is in pairs, not in the number of monomials of weight upto.
        For input that is not weight-homogeneous a truncated closure
        decides nothing.
        """
        order, table, pairs = self.order, self.table, self._pairs
        basis = table.basis
        while pairs and (upto is None or pairs[0][0] <= upto):
            _, i, j = heappop(pairs)
            r, _ = normal_form(s_polynomial(order, basis[i], basis[j]), table)
            self.add(r)
        return table


def buchberger(order: WeightOrder, gens) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by gens: monic and
    sorted by descending leading monomial, hence canonical for a given
    ideal (Cox, Little, O'Shea, section 2.7).

    The untruncated closure of gens is monic and holds no zero (see
    Closure.add).  Its elements, by ascending lead, grow one Reducer of
    those whose lead no earlier kept lead divides, and that Reducer
    reduces the tail of each kept element.  A lead monomial divides no
    smaller monomial, so an element never reduces its own tail, and the
    result is that of dividing each element by all the others.
    """
    def lead_key(g):
        return order.key(order.leading_monomial(g))

    kept = Reducer(order)
    for g in sorted(Closure(order, gens).close().basis, key=lead_key):
        lm = order.leading_monomial(g)
        if not any(mono_divides(m, lm) for m, *_ in kept.rows.get(None, ())):
            kept.append(g)
    out = []
    for g in kept.basis:
        lead = Poly.term(g.nvars, *order.leading_term(g))
        out.append(lead + normal_form(g - lead, kept)[0])
    out.sort(key=lead_key, reverse=True)
    return out


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals


def hilbert_numerator(weights, monos) -> dict:
    """K(J), with HS(R/J) = K(J) / prod_v (1 - t^weights[v]), for the ideal J
    of the exponent tuples monos, as {exponent: non-zero integer}.

    By Macaulay, R/I and R/LT(I) have one Hilbert series for a homogeneous
    ideal I, so a subset G of I with K(LT(G)) = K(I) is a Groebner basis:
    <LT(G)> lies in LT(I), and equal Hilbert functions leave no room.
    """
    return _numerator(tuple(weights), monos, {})


def _numerator(weights, monos, memo) -> dict:
    """Bigatti's recursion (JPAA 1997), memoized by minimal generators:
    K(J) = K(J + (x)) + t^{w(x)} K(J : x), for the variable x in most
    generators with two or more variables.  Pairwise coprime generators
    give prod (1 - t^{w(g)}): 1 for J = 0 and 0 for 1 in J."""
    kept = []
    for m in sorted(set(monos), key=sum):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    gens = tuple(sorted(kept))
    if gens in memo:
        return memo[gens]
    users, mixed = [0] * len(weights), [0] * len(weights)
    for g in gens:
        support = [v for v, e in enumerate(g) if e]
        for v in support:
            users[v] += 1
            mixed[v] += len(support) > 1
    if max(users) <= 1:
        out = _times_one_minus({0: 1}, [sum(map(mul, g, weights)) for g in gens])
    else:
        x = mixed.index(max(mixed))
        unit = tuple(int(v == x) for v in range(len(weights)))
        added = [g for g in gens if not g[x]] + [unit]
        quotient = [g[:x] + (max(g[x] - 1, 0),) + g[x + 1:] for g in gens]
        out = _add_shifted(dict(_numerator(weights, added, memo)),
                           _numerator(weights, quotient, memo), weights[x])
    memo[gens] = out
    return out


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
