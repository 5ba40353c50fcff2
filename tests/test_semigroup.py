import collections
import itertools
from functools import lru_cache
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from monocurve import (
    GcdError,
    HypothesisError,
    m0_multiple_identity,
    make_params,
    min_multiple_of_m0,
    min_multiple_of_mp,
    mp_multiple_identity,
)
from monocurve.generators import groebner_generators
from monocurve.semigroup import _betti_1, _membership, apery_numerator
from oracles import (
    _representation,
    apery_numerator_by_search,
    betti_1_by_search,
    parameter_sweep,
    semigroup_elements,
    semigroup_membership,
)

SWEEP = list(parameter_sweep(range(2, 6), range(1, 4), range(1, 6)))
SWEEP6 = list(parameter_sweep(range(2, 7), range(1, 4), range(1, 6)))


@st.composite
def params_strategy(draw):
    return draw(st.sampled_from(SWEEP))


def test_make_params_examples():
    pr = make_params(7, 1, 3)
    assert (pr.a, pr.b) == (2, 1)
    assert pr.generators == (7, 8, 9, 10)

    pr = make_params(8, 3, 2)
    assert (pr.a, pr.b) == (3, 2)
    assert pr.generators == (8, 11, 14)


def test_make_params_b_equals_p():
    pr = make_params(6, 1, 3)
    assert (pr.a, pr.b) == (1, 3)
    assert pr.b == pr.p


def test_make_params_rejects_bad_input():
    with pytest.raises(GcdError):
        make_params(6, 2, 3)
    with pytest.raises(HypothesisError):
        make_params(3, 1, 3)  # m0 <= p forces a < 1
    with pytest.raises(HypothesisError):
        make_params(7, 0, 3)
    with pytest.raises(HypothesisError):
        make_params(7, 1, 1)
    with pytest.raises(HypothesisError):
        make_params(0, 1, 2)


def _assert_minimal(pr):
    # the membership DP as an oracle: no generator is a sum of the others
    gens = pr.generators
    for i, m_i in enumerate(gens):
        assert _representation(m_i, gens[:i] + gens[i + 1:]) is None, (pr, i)


def test_minimality_never_violated_on_sweep():
    # With gcd(m0, d) = 1 and m0 > p no generator is representable by the
    # others, which is why make_params does not search for one.
    count = 0
    for p in range(2, 6):
        for a in range(1, 4):
            for b in range(1, p + 1):
                for d in range(1, 6):
                    if gcd(a * p + b, d) != 1:
                        continue
                    _assert_minimal(make_params(a * p + b, d, p))
                    count += 1
    assert count == len(SWEEP)


@given(st.integers(2, 6), st.integers(3, 40), st.integers(1, 90))
@settings(max_examples=150)
def test_minimality_holds_for_any_valid_triple(p, m0, d):
    # d may exceed m0: the argument needs only gcd(m0, d) = 1 and m0 > p
    assume(m0 > p and gcd(m0, d) == 1)
    _assert_minimal(make_params(m0, d, p))


def test_make_params_huge_triple():
    # construction never walks [0, m0]: huge m0 and d cost O(p)
    m0, d = 10**18 + 1, 10**18 - 1
    pr = make_params(m0, d, 3)
    assert (pr.a, pr.b) == (333_333_333_333_333_333, 2)
    assert pr.a * 3 + pr.b == m0
    assert pr.generators == tuple(m0 + i * d for i in range(4))


def test_membership_examples(p713):
    assert semigroup_membership(p713, 0) is not None
    assert semigroup_membership(p713, 0) == (0, 0, 0, 0)
    assert semigroup_membership(p713, 11) is None
    assert semigroup_membership(p713, 17) is not None


def test_membership_gaps_for_7_8_9_10(p713):
    # generators 7..10 represent everything from 14 on, and below that
    # exactly 0 and 7..10
    expected = {0, 7, 8, 9, 10} | set(range(14, 41))
    got = {x for x in range(41) if semigroup_membership(p713, x) is not None}
    assert got == expected


def test_membership_witness_is_a_representation(p713):
    for x in range(0, 60):
        witness = semigroup_membership(p713, x)
        if witness is not None:
            assert sum(c * m for c, m in zip(witness, p713.generators)) == x
            assert all(c >= 0 for c in witness)


def _recursive_member(x, gens):
    @lru_cache(maxsize=None)
    def go(v):
        if v == 0:
            return True
        return any(go(v - g) for g in gens if g <= v)

    return go(x)


@pytest.mark.parametrize("triple", [(7, 1, 3), (8, 3, 2), (6, 1, 3)])
def test_membership_agrees_with_recursive_oracle(triple):
    pr = make_params(*triple)
    mp = pr.generators[-1]
    for x in range(0, 2 * mp * mp + 1):
        assert (semigroup_membership(pr, x) is not None) == _recursive_member(x, pr.generators)


def test_min_multiple_of_mp_examples(p713, p832):
    m, n, i = min_multiple_of_mp(p713)
    assert (m, n, i) == (3, 3, 2)
    assert 3 * 10 == 3 * 7 + p713.generators[2]

    assert min_multiple_of_mp(p832) == (4, 6, 0)
    assert 4 * 14 == 6 * 8 + 8


def test_min_multiple_of_m0_examples(p713, p832):
    # frozen from the exhaustive search: n = 4 is the first multiple of 7
    # expressible as m*10 + m_i (28 = 2*10 + 8), and n = 1, 2, 3 are not
    n, m, i = min_multiple_of_m0(p713)
    assert (n, m, i) == (4, 2, 1)
    assert 4 * 7 == 2 * 10 + 8
    for smaller in range(1, 4):
        assert all(
            (smaller * 7 - mi) % 10 != 0 or smaller * 7 - mi < 10
            for mi in p713.generators[1:]
        )

    assert min_multiple_of_m0(p832) == (7, 3, 2)
    assert 7 * 8 == 3 * 14 + 14


def _linear_min_multiple_of_mp(params):
    # exhaustive reference: m = 1, 2, ... until m*m_p = n*m0 + m_i, n >= 1, 0 <= i < p
    gens = params.generators
    m0, mp = gens[0], gens[-1]
    for m in itertools.count(1):
        for i in range(params.p):
            rest = m * mp - gens[i]
            if rest >= m0 and rest % m0 == 0:
                return m, rest // m0, i


def _linear_min_multiple_of_m0(params):
    # exhaustive reference: n = 1, 2, ... until n*m0 = m*m_p + m_i, m >= 1, 0 < i <= p
    gens = params.generators
    m0, mp = gens[0], gens[-1]
    for n in itertools.count(1):
        for i in range(1, params.p + 1):
            rest = n * m0 - gens[i]
            if rest >= mp and rest % mp == 0:
                return n, rest // mp, i


@given(st.integers(2, 12), st.integers(3, 400), st.integers(1, 400))
@example(3, 6, 1)
@example(4, 12, 5)
@settings(max_examples=300)
def test_min_multiples_agree_with_the_linear_searches(p, m0, d):
    # gcd(m_p, m0) = gcd(p*d, m0) > 1 occurs here, as at the two examples
    assume(m0 > p and gcd(m0, d) == 1)
    pr = make_params(m0, d, p)
    assert min_multiple_of_mp(pr) == _linear_min_multiple_of_mp(pr)
    assert min_multiple_of_m0(pr) == _linear_min_multiple_of_m0(pr)


def test_min_multiples_of_a_huge_triple():
    # the linear searches would run about 10**18 steps here
    pr = make_params(10**18 + 1, 10**18 - 1, 3)
    assert min_multiple_of_mp(pr) == mp_multiple_identity(pr)
    assert min_multiple_of_m0(pr) == m0_multiple_identity(pr)


def test_multiples_match_identities_on_sweep():
    for pr in SWEEP:
        assert min_multiple_of_mp(pr) == mp_multiple_identity(pr)
        assert min_multiple_of_m0(pr) == m0_multiple_identity(pr)


def test_identity_equations_hold_on_sweep():
    for pr in SWEEP:
        m, n, i = mp_multiple_identity(pr)
        assert m * pr.generators[-1] == n * pr.m0 + pr.generators[i]
        n, m, i = m0_multiple_identity(pr)
        assert n * pr.m0 == m * pr.generators[-1] + pr.generators[i]


def test_weight_examples(p713):
    assert p713.weight((1, 1, 0, 0)) == 17  # X1*X2
    assert p713.weight((0, 0, 0, 0)) == 0
    assert p713.weight((0, 0, 1, 1)) == 17  # X3*X0


@given(params_strategy(), st.data())
@settings(max_examples=80)
def test_weight_additive(pr, data):
    exps = st.tuples(*[st.integers(0, 6)] * pr.nvars)
    f = data.draw(exps)
    g = data.draw(exps)
    prod = tuple(x + y for x, y in zip(f, g))
    assert pr.weight(prod) == pr.weight(f) + pr.weight(g)


def test_generator_weights_pairwise_distinct():
    for pr in SWEEP:
        assert len(set(pr.generators)) == pr.p + 1


def test_generator_sum_identities():
    # m_i + m_j equals m_0 + m_{i+j} below p and m_p + m_{i+j-p} from p on
    for pr in SWEEP:
        gens = pr.generators
        for i in range(1, pr.p):
            for j in range(1, pr.p):
                if i + j < pr.p:
                    assert gens[i] + gens[j] == gens[0] + gens[i + j]
                else:
                    assert gens[i] + gens[j] == gens[pr.p] + gens[i + j - pr.p]


@pytest.mark.parametrize("triple", [
    (7, 1, 3), (8, 3, 2), (6, 1, 3), (13, 2, 6), (9, 4, 2), (22, 5, 7), (17, 3, 8), (25, 1, 8),
    (41, 2, 12), (59, 3, 4),
])
def test_apery_numerator_matches_the_membership_search(triple):
    pr = make_params(*triple)
    assert apery_numerator(pr) == apery_numerator_by_search(pr)


def test_apery_numerator_of_a_huge_triple_has_few_terms():
    # the search would test about 10**6 weights; the closed form has O(p^3) terms
    pr = make_params(1000003, 999331, 3)
    n = apery_numerator(pr)
    assert len(n) < 100
    # N(1) = 0: HS(R/I) has a pole of order one at t = 1, not p + 1
    assert sum(n.values()) == 0


def test_closed_form_membership_matches_the_search_on_the_grid():
    assert len(SWEEP6) == 206
    for pr in SWEEP6:
        top = 3 * pr.generators[-1]
        members, member = semigroup_elements(pr, top), _membership(pr)
        assert [x for x in range(-pr.m0, top + 1) if member(x)] == sorted(members), pr


def test_closed_form_membership_of_a_huge_triple():
    # Ap(S, m0) holds (q-1)*m_p + m_k: m_1 + m_p is a member, m_1 + m_p - m0 is not
    pr = make_params(1000003, 999331, 3)
    member, gens = _membership(pr), pr.generators
    assert member(0) and all(member(m) for m in gens)
    assert member(gens[1] + gens[3]) and not member(gens[1] + gens[3] - pr.m0)
    assert not member(1) and not member(gens[0] - 1) and not member(-gens[0])


def test_betti_1_counts_the_closed_form_generators_per_weight():
    # the closed-form set is a minimal generating set, so beta_1 is its
    # count in each weight, and 0 at every other weight up to its heaviest
    for pr in SWEEP6:
        counts = collections.Counter(pr.weight(next(iter(g.terms)))
                                     for g in groebner_generators(pr).polynomials())
        weights = range(max(counts) + 1)
        expected = {w: counts.get(w, 0) for w in weights}
        assert betti_1_by_search(pr, weights) == expected, pr
        assert _betti_1(pr, weights) == expected, pr


@pytest.mark.parametrize("triple", [(17, 3, 8), (41, 2, 12), (1000003, 999331, 3)])
def test_betti_1_off_the_grid(triple):
    # the search oracle reaches the small triples; at m0 near 10^6 the
    # closed-form set's counts per weight, as minimal generators, stand
    # in for it.  0 and one generator's weight carry no binomial
    pr = make_params(*triple)
    counts = collections.Counter(pr.weight(next(iter(g.terms)))
                                 for g in groebner_generators(pr).polynomials())
    assert _betti_1(pr, counts) == counts
    if pr.m0 < 100:
        assert betti_1_by_search(pr, counts) == counts
    assert _betti_1(pr, (0,) + pr.generators) == dict.fromkeys((0,) + pr.generators, 0)
