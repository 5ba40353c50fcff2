"""Parameter validation and integer arithmetic for arithmetic-sequence curves.

Fixing integers m0 > p >= 2 and d >= 1 with gcd(m0, d) = 1 yields the
generators m_i = m0 + i*d, i in [0, p], of a numerical semigroup.  The
quotient-remainder split m0 = a*p + b with b in [1, p] supplies the pair
(a, b) used by every construction downstream.

These hypotheses already make m0, ..., mp a minimal generating set, so
make_params checks only them.  Were m_i = m_{s_1} + ... + m_{s_k} a sum
of k >= 1 other generators, then (k-1)*m0 = (i - sum s)*d.  k = 1 is
impossible because d >= 1; for k >= 2, gcd(m0, d) = 1 forces m0 to
divide i - sum s, yet 0 < i - sum s <= p < m0.

Nothing here searches the semigroup: a monomial's weight is
CurveParams.weight, the two minimal multiples solve linear congruences,
and the Hilbert numerator of the curve, membership in the semigroup and
the number of minimal generators of the curve ideal in one weight are
read off the Apery set in closed form.  An exhaustive membership search
lives with the tests, which compare these closed forms against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul

from .report import VerificationReport


class ParameterError(ValueError):
    """A parameter set violates one of the standing hypotheses."""


class GcdError(ParameterError):
    """gcd(m0, d) is not 1."""


class HypothesisError(ParameterError):
    """A range hypothesis (p >= 2, d >= 1, m0 > p) fails."""


@dataclass(frozen=True)
class CurveParams:
    """Validated parameters (p, m0, d, a, b); immutable, safe to share."""

    p: int
    m0: int
    d: int
    a: int
    b: int
    generators: tuple[int, ...]

    @property
    def nvars(self) -> int:
        """Number of ring variables X1, ..., Xp, X0."""
        return self.p + 1

    @cached_property
    def exponent_weights(self) -> tuple[int, ...]:
        """Generator weights in exponent-tuple position order (X1, ..., Xp, X0)."""
        return self.generators[1:] + (self.generators[0],)

    def weight(self, mono: tuple[int, ...]) -> int:
        """Weight of an exponent tuple in position order: sum of e * w."""
        return sum(map(mul, mono, self.exponent_weights))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "m0": self.m0,
            "d": self.d,
            "a": self.a,
            "b": self.b,
            "generators": list(self.generators),
        }

    def __str__(self) -> str:
        return f"(m0={self.m0}, d={self.d}, p={self.p})"


def make_params(m0: int, d: int, p: int) -> CurveParams:
    """Validate (m0, d, p) and return the parameter record in O(p).

    Raises GcdError when gcd(m0, d) != 1 and HypothesisError when a range
    hypothesis fails (in particular m0 <= p, which forces a < 1).  The
    generators are then minimal, as the module docstring shows.
    """
    if p < 2:
        raise HypothesisError(f"p must be at least 2, got {p}")
    if d < 1:
        raise HypothesisError(f"d must be at least 1, got {d}")
    if m0 < 1:
        raise HypothesisError(f"m0 must be positive, got {m0}")
    g = gcd(m0, d)
    if g != 1:
        raise GcdError(f"gcd(m0, d) = gcd({m0}, {d}) = {g}, must be 1")
    a, r = divmod(m0 - 1, p)
    b = r + 1
    if a < 1:
        raise HypothesisError(f"m0 = {m0} must exceed p = {p} so that m0 = a*p + b with a >= 1")
    generators = tuple(m0 + i * d for i in range(p + 1))
    return CurveParams(p=p, m0=m0, d=d, a=a, b=b, generators=generators)


def _least_multiple(c: int, modulus: int, rests) -> tuple[int, int, int]:
    """Smallest k >= 1 with k*c = q*modulus + r, over (i, r) in rests.

    Each i is one linear congruence k*c = r (mod modulus).  With
    g = gcd(c, modulus), it is solvable exactly when g divides r, and its
    solutions form one class modulo modulus // g, of which the least
    positive member is taken.  The least k wins, then the least i.
    Returns (k, q, i); both callers show that q >= 1 holds.
    """
    g = gcd(c, modulus)
    step = modulus // g
    inverse = pow(c // g, -1, step)
    solutions = []
    for i, r in rests:
        if r % g == 0:
            k = (r // g) * inverse % step or step
            solutions.append((k, i, (k * c - r) // modulus))
    k, i, q = min(solutions)
    return k, q, i


def min_multiple_of_mp(params: CurveParams) -> tuple[int, int, int]:
    """Smallest m >= 1 with m*m_p = n*m0 + m_i, n >= 1 and 0 <= i < p.

    One linear congruence m*m_p = m_i (mod m0) per i, where
    gcd(m_p, m0) = gcd(p*d, m0) may exceed 1: O(p log m0) in all,
    whatever a and d are, and no closed form is used.  n >= 1 needs no
    search: m*m_p - m_i is a multiple of m0 and positive, as m_i < m_p.
    The solution (n, i) is unique for each m because gcd(m0, d) = 1.
    Returns (m, n, i); compare mp_multiple_identity.
    """
    gens = params.generators
    return _least_multiple(gens[-1], gens[0], [(i, gens[i]) for i in range(params.p)])


def min_multiple_of_m0(params: CurveParams) -> tuple[int, int, int]:
    """Smallest n >= 1 with n*m0 = m*m_p + m_i, m >= 1 and 0 < i <= p.

    One linear congruence n*m0 = m_i (mod m_p) per i, O(p log m_p) in
    all; no closed form is used.  m >= 1 needs no search: n*m0 - m_i is
    a multiple of m_p above -m_p, as m_i <= m_p, and it is not 0, as m0
    would then divide m_i - m0 = i*d, hence i, with 0 < i <= p < m0.
    Returns (n, m, i); compare m0_multiple_identity.
    """
    gens = params.generators
    return _least_multiple(gens[0], gens[-1], [(i, gens[i]) for i in range(1, params.p + 1)])


def mp_multiple_identity(params: CurveParams) -> tuple[int, int, int]:
    """Closed form (a+1, a+d, p-b): (a+1)*m_p = (a+d)*m0 + m_{p-b}."""
    return params.a + 1, params.a + params.d, params.p - params.b


def m0_multiple_identity(params: CurveParams) -> tuple[int, int, int]:
    """Closed form (a+d+1, a, b): (a+d+1)*m0 = a*m_p + m_b, since
    a*m_p + m_b = a*m0 + a*p*d + m0 + b*d = (a+d+1)*m0.  The congruence
    search min_multiple_of_m0 confirms minimality.
    """
    return params.a + params.d + 1, params.a, params.b


def _add_shifted(acc: dict, series: dict, shift: int = 0, sign: int = 1) -> dict:
    """acc += sign * t^shift * series, in place, for polynomials in t kept
    as {exponent: non-zero integer coefficient}."""
    for e, c in series.items():
        v = acc.get(e + shift, 0) + sign * c
        if v:
            acc[e + shift] = v
        else:
            del acc[e + shift]
    return acc


def _times_one_minus(series: dict, weights) -> dict:
    """series * prod(1 - t^w) over weights."""
    for w in weights:
        series = _add_shifted(dict(series), series, w, -1)
    return series


def _apery_by_mp(params: CurveParams) -> dict:
    """A(t)(1 - t^{m_p}), where A(t) sums t^s over the Apery set Ap(S, m0).
    By Selmer's formula (Rosales, Garcia-Sanchez, Numerical Semigroups,
    2009) Ap(S, m0) holds 0, the (q-1)*m_p + m_k for q in [1, a] and k in
    [1, p], and the a*m_p + m_k for k in [1, b-1], so that
      A(t)(1 - t^{m_p}) = 1 - t^{m_p} + (1 - t^{a m_p}) sum_{k=1..p} t^{m_k}
                          + (1 - t^{m_p}) sum_{k=1..b-1} t^{a m_p + m_k}:
    O(p) terms, whatever m0 and d are.
    """
    gens, mp = params.generators, params.generators[-1]
    top = params.a * mp
    series = _times_one_minus({0: 1}, [mp])
    _add_shifted(series, _times_one_minus(dict.fromkeys(gens[1:], 1), [top]))
    return _add_shifted(series, _times_one_minus({top + m: 1 for m in gens[1:params.b]}, [mp]))


def apery_numerator(params: CurveParams) -> dict:
    """N = A(t) * prod_{i=1..p} (1 - t^{m_i}), the Hilbert numerator of the
    curve ideal: _apery_by_mp times the p - 1 factors left."""
    return _times_one_minus(_apery_by_mp(params), params.generators[1:-1])


def _membership(params: CurveParams):
    """The test n in S, in O(1) after one modular inverse: n lies in S
    exactly when n >= ceil(i/p)*m0 + i*d, the member of the Apery set
    Ap(S, m0) in the class of n, where i = n/d mod m0 and 0 <= i < m0
    (Selmer's formula, as in apery_numerator): a sum of q generators is
    q*m0 + j*d with j <= q*p, so j = i takes q = ceil(i/p) at least, and
    any other j in the class of i is larger by a multiple of m0."""
    m0, d, p = params.m0, params.d, params.p
    inverse = pow(d, -1, m0)

    def member(n: int) -> bool:
        i = n * inverse % m0
        return n >= -(-i // p) * m0 + i * d

    return member


def _betti_1(params: CurveParams, weights) -> dict:
    """beta_1(w), the number of minimal generators of weight w of the curve
    ideal, for each w in weights: the connected components, less one, of
    the graph on {i : w - m_i in S} with an edge {i, j} whenever w - m_i -
    m_j lies in S.  That graph is the 1-skeleton of the squarefree divisor
    complex D_w, and beta_1(w) = dim H~_0(D_w) (Miller, Sturmfels,
    Combinatorial Commutative Algebra, Thm 9.2; Briales, Campillo,
    Marijuan, Pison 1998)."""
    member, gens = _membership(params), params.generators
    out = {}
    for w in weights:
        left, components = [m for m in gens if member(w - m)], 0
        while left:
            components += 1
            stack = [left.pop()]
            while stack:
                m = stack.pop()
                stack += [n for n in left if member(w - m - n)]
                left = [n for n in left if n not in stack]
        out[w] = max(components - 1, 0)
    return out


def verify_minimal_multiples(params: CurveParams) -> VerificationReport:
    """Check the two searched minimal multiples against their closed forms."""
    report = VerificationReport(params)
    for name, search, identity in (("mp", min_multiple_of_mp, mp_multiple_identity),
                                   ("m0", min_multiple_of_m0, m0_multiple_identity)):
        found, expect = search(params), identity(params)
        report.add(
            f"{name}-minimal-multiple",
            found == expect,
            detail=f"search {found}, identity {expect}",
            witness=None if found == expect else {"search": list(found), "identity": list(expect)},
        )
    return report
