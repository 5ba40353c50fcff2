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
syzygy.ModElement through SparseMap.  The ring and module orders are
pure key functions, each with one key() and no per-term state.  There is
one division loop,
Reducer.divide, for both: a Reducer prepares a basis once, grouping its
lead terms by module symbol, and a ring basis is a module with the
single symbol None.  It holds each element once, and a division step
reads the element's terms from it.
normal_form, the one public name of that loop, divides a Poly or a
module element by a Reducer and nothing else; the closed-form basis of
a triple has one Reducer, held by syzygy.Curve, and its syzygy basis
one only when a check of it fails.

There is one S-pair path, on the Reducer, for Polys and module elements
alike: pairs lists the index pairs whose leads share a symbol and
pair_count counts them, s_pair builds the S-element of one from the
leads the Reducer holds, with its two cofactors, and first_unreduced is
the one scan, x-major, to the first S-element with a non-zero
remainder.  The one Buchberger pair loop, Closure.close, runs on a
Closure, a Reducer that queues pairs as elements join.  It takes pairs
in ascending weight of their lcm, the normal strategy (Giovini, Mora,
Niesi, Robbiano, Traverso, "One sugar cube, please", ISSAC 1991), and
can be resumed: generators join with Closure.append, and close(upto)
stops before the first pair heavier than upto, which decides membership
up to that weight.
hilbert_numerator, the Hilbert numerator of a monomial ideal, decides
whether a subset of a homogeneous ideal is a Groebner basis without
dividing an S-pair.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress, groupby
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
                res[t] = v if type(v) is int else _exact(v)
            else:
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


class WeightOrder:
    """Total order on monomials for a fixed parameter set.

    key() is an ascending sort key: compare weights, then the negated
    reversed exponent tuple, so that of two equal-weight monomials the
    larger is the one whose right-most non-zero difference entry is
    negative.
    """

    def __init__(self, params: CurveParams):
        self.params = params
        self.weight = params.weight

    def key(self, mono: Mono):
        return self.weight(mono), tuple(map(neg, reversed(mono)))

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

    It is the one store of its basis: basis holds each element, in list
    order, and leads the leading term and coefficient of each.  The
    private rows group each element's lead monomial, inverse lead
    coefficient and index by the symbol of its lead: a module basis by its
    module symbols, a ring basis under the one symbol None.  A row holds
    no term of its element: a division step reads them from basis.
    normal_form divides by one, in the order it was built with, and its
    S-pairs are listed, counted, built and scanned here.

    Each element takes its lead from leads, when its caller has them, as
    a Curve has from its packed monomials, or else from its order's
    leading_term, as does an element that joins later, by append.

    It also remembers, per term, the first row that divides it, in _hits:
    rows are only appended, so that row stays the first for good; and the
    term's sort key under order, in _keys, which only divide fills and
    reads.
    """

    __slots__ = ("order", "ring", "basis", "leads", "_rows", "_hits", "_keys")

    def __init__(self, order, basis=(), leads=None):
        self.order, self.ring = order, isinstance(order, WeightOrder)
        self.basis, self.leads, self._rows, self._hits, self._keys = [], [], {}, {}, {}
        basis = list(basis)
        for g, lead in zip(basis, map(order.leading_term, basis) if leads is None else leads):
            self._append(g, lead)

    def lead_monomials(self, sym=None) -> list:
        """The lead monomials on sym in list order: all of a ring basis."""
        return [row[0] for row in self._rows.get(sym, ())]

    def pairs(self) -> list[tuple[int, int]]:
        """The index pairs x < y whose leading terms share a symbol, x-major:
        every pair of a ring basis, and the S-pairs of a module basis."""
        return sorted((x, y) for row in self._rows.values()
                      for n, (*_, x) in enumerate(row) for *_, y in row[n + 1:])

    def pair_count(self) -> int:
        """len(pairs()), without listing them."""
        return sum(len(row) * (len(row) - 1) // 2 for row in self._rows.values())

    def append(self, g) -> None:
        self._append(g, self.order.leading_term(g))

    def _append(self, g, lead) -> None:
        """append(g), given lead, the leading term and coefficient of g."""
        term, lc = lead
        mono, sym = (term, None) if self.ring else term
        self._rows.setdefault(sym, []).append((mono, _inverse(lc), len(self.leads)))
        self.leads.append(lead)
        self.basis.append(g)

    def s_pair(self, x: int, y: int) -> tuple:
        """(S, (cx, ux), (cy, uy)) for a pair (x, y) of pairs(), from the
        leads held here: the S-element S = cx*ux*basis[x] + cy*uy*basis[y]
        and its cofactors, each an exact coefficient and a monomial, which
        take both leading terms to the lcm of their monomials, where they
        cancel."""
        (tx, lx), (ty, ly) = self.leads[x], self.leads[y]
        mx, my = (tx, ty) if self.ring else (tx[0], ty[0])
        lcm = mono_lcm(mx, my)
        fx, fy = (_inverse(lx), mono_div(lcm, mx)), (-_inverse(ly), mono_div(lcm, my))
        return self.basis[x].times_term(*fx) + self.basis[y].times_term(*fy), fx, fy

    def first_unreduced(self) -> tuple:
        """(tried, pair, remainder): the S-elements of pairs() divided
        x-major up to the first with a non-zero remainder, which is
        returned with its pair and the count of pairs tried; every pair,
        None and None when all reduce to zero."""
        tried = 0
        for tried, (x, y) in enumerate(self.pairs(), 1):
            r, _ = normal_form(self.s_pair(x, y)[0], self)
            if r:
                return tried, (x, y), r
        return tried, None, None

    def divide(self, f):
        """(remainder, quotients) of f by the basis; see normal_form.

        Each term is keyed once, as it first enters a work queue, into
        _keys, so the largest term is found by plain lookups.  Each
        processed term is smaller than the one before, so an index k
        never gets the same quotient monomial twice.  A step by
        basis[k] subtracts its terms but the lead, skipped as a whole term:
        another term of a module element can share the lead's monomial.
        """
        ring, rows, hits, basis, leads = self.ring, self._rows, self._hits, self.basis, self.leads
        key, keys = self.order.key, self._keys
        work = dict(f.terms)
        for t in work:
            if t not in keys:
                keys[t] = key(t)
        rank = keys.__getitem__
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
                    remainder[term] = coeff if type(coeff) is int else _exact(coeff)
                    continue
            lm, inv, k = row
            u = tuple(map(sub, mono, lm))
            c = coeff * inv
            q = quotients.get(k)
            if q is None:
                quotients[k] = {u: c}
            else:
                q[u] = c
            lead = leads[k][0]
            for t2, c2 in basis[k].terms.items():
                if t2 == lead:
                    continue
                t2 = tuple(map(add, t2, u)) if ring else (tuple(map(add, t2[0], u)), t2[1])
                v = work.get(t2)
                if v is None:
                    if t2 not in keys:
                        keys[t2] = key(t2)
                    work[t2] = -c * c2
                else:
                    v -= c * c2
                    if v:
                        work[t2] = v
                    else:
                        del work[t2]
        nv = f.nvars
        return f._raw(nv, remainder), {k: Poly._raw(nv, q) for k, q in quotients.items()}


def normal_form(f, table: Reducer) -> tuple:
    """Divide f, a Poly or a module element, by the basis of the Reducer
    table, ring or module.

    Returns (remainder, quotients) with f = sum q_k * basis_k + remainder
    and no remainder monomial divisible by any basis leading monomial.
    quotients maps a basis index k to q_k only for the k the division
    used, so every stored q_k is non-zero.  Deterministic: the largest
    reducible term goes first and the first dividing basis element in
    list order wins.
    """
    return table.divide(f)


def _with_supports(monos: list) -> list:
    """(m, support) for each of monos, with bit v of the int support set for
    each variable v of m: a support with a bit outside another's divides
    nothing there."""
    bits = [1 << v for v in range(len(monos[0]))] if monos else ()
    return [(m, sum(compress(bits, m))) for m in monos]


def _first_dividing_pair(table: Reducer) -> tuple[int, int] | None:
    """The first (x, y) in index order, x != y, whose lead monomial x
    divides lead monomial y on one symbol of table, or None; leads on two
    symbols never divide.  Equal leads are found by a dict, and each
    distinct lead is tested, by the first index of each, against the
    distinct leads of lower degree whose support lies in its own
    (_with_supports): the p-b+1 psi leads X_{b+i}*X_p^a carry X_p, which
    no quadratic lead does.  A row of one degree compares nothing."""
    found = []
    for row in table._rows.values():
        first = {}
        for lead, *_, k in row:
            if lead in first:
                found.append((first[lead], k))
            else:
                first[lead] = k
        groups = [list(same) for _, same in groupby(sorted(first, key=sum), sum)]
        lower = []
        for same in groups if len(groups) > 1 else ():
            same = _with_supports(same)
            found += [(first[lx], first[ly]) for ly, my in same for lx, mx in lower
                      if not mx & ~my and mono_divides(lx, ly)]
            lower += same
    return min(found, default=None)


class Closure(Reducer):
    """A Buchberger closure grown weight by weight: the one pair loop.

    A Reducer whose append(g) joins g, monic, to the basis, queueing a
    pair with each earlier element unless their leading monomials are
    coprime; a zero g is skipped.  close(upto) processes the queued pairs
    in ascending weight, and heavier pairs stay queued, so more generators
    can be appended and the closure resumed at a larger weight.  Each lead
    is computed once, as its element joins, and every S-polynomial is
    built from the leads the closure holds (Reducer.s_pair).
    """

    __slots__ = ("_pairs",)

    def __init__(self, order: WeightOrder, gens=()):
        self._pairs = []
        super().__init__(order)
        for g in gens:
            self.append(g)

    def append(self, g) -> None:
        if not g:
            return
        order, pairs = self.order, self._pairs
        lm, lc = order.leading_term(g)
        j = len(self.basis)
        for i, (m, _) in enumerate(self.leads):
            if not mono_coprime(m, lm):
                heappush(pairs, (order.weight(mono_lcm(m, lm)), i, j))
        self._append(g if lc == 1 else g.scaled(_inverse(lc)), (lm, 1))

    def close(self, upto: int | None = None) -> Closure:
        """The closure itself, a Groebner basis of the ideal of the
        generators appended so far, truncated at weight upto (untruncated
        when None).

        Pairs are popped in ascending weight of the lcm of their leading
        monomials, ties by index, and every non-zero remainder of an
        S-polynomial joins through append, until the next pair weighs more
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
        pairs = self._pairs
        while pairs and (upto is None or pairs[0][0] <= upto):
            _, i, j = heappop(pairs)
            self.append(normal_form(self.s_pair(i, j)[0], self)[0])
        return self


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals


def hilbert_numerator(weights, monos) -> dict:
    """K(J), with HS(R/J) = K(J) / prod_v (1 - t^weights[v]), for the ideal J
    of the exponent tuples monos, as {exponent: non-zero integer}.

    By Macaulay, R/I and R/LT(I) have one Hilbert series for a homogeneous
    ideal I, so a subset G of I with K(LT(G)) = K(I) is a Groebner basis:
    <LT(G)> lies in LT(I), and equal Hilbert functions leave no room.
    """
    return _numerator(tuple(weights), _minimal(monos), {})


def _minimal(monos) -> list:
    """The minimal generators of the monomial ideal of monos: each distinct
    monomial that no other one divides, tested only against those of lower
    degree whose support lies in its own (_with_supports)."""
    groups = [list(same) for _, same in groupby(sorted(set(monos), key=sum), sum)]
    if len(groups) < 2:
        return groups[0] if groups else []
    kept = []
    for same in map(_with_supports, groups):
        kept += [(m, mm) for m, mm in same
                 if not any(not mk & ~mm and mono_divides(k, m) for k, mk in kept)]
    return [m for m, _ in kept]


def _numerator(weights, gens, memo) -> dict:
    """Bigatti's recursion (JPAA 1997) on minimal generators, memoized by
    them: K(J) = K(J + (x)) + t^{w(x)} K(J : x), for the variable x in
    most generators with two or more variables.  Pairwise coprime
    generators give prod (1 - t^{w(g)}): 1 for J = 0 and 0 for 1 in J.
    J + (x) is minimal as built, and in J : x only a generator free of x
    can fall, to one that lost a power of x."""
    gens = tuple(sorted(gens))
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
        free = [g for g in gens if not g[x]]
        lost = [g[:x] + (g[x] - 1,) + g[x + 1:] for g in gens if g[x]]
        added = free + [unit]
        quotient = lost + [g for g in free if not any(mono_divides(h, g) for h in lost)]
        out = _add_shifted(dict(_numerator(weights, added, memo)),
                           _numerator(weights, quotient, memo), weights[x])
    memo[gens] = out
    return out


# ---------------------------------------------------------------------------
# serialization

def coeff_to_str(c: int | Fraction) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _sorted_terms(order, elem) -> list:
    """The (term, coeff) pairs of elem, largest first under order."""
    return [(t, elem.terms[t]) for t in sorted(elem.terms, key=order.key, reverse=True)]


def _json_terms(order, elem, spell) -> list[dict]:
    """Terms largest first as {"coeff": "num/den", **spell(key)}."""
    return [{"coeff": coeff_to_str(c), **spell(key)} for key, c in _sorted_terms(order, elem)]


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


def _join_signed(order, elem, spell) -> str:
    """Terms largest first, joined by their signs; spell(key, |coeff|) writes one."""
    text = ""
    for key, c in _sorted_terms(order, elem):
        body = spell(key, abs(c))
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


def format_poly(order: WeightOrder, f: Poly) -> str:
    """Human-readable form with terms in descending order."""
    return _join_signed(order, f, _term_text)
