"""Acceptance checklist.

Each test prints one pass/fail line for its criterion and asserts it at
the stated tolerance; everything is exact rational or integer
arithmetic, so every tolerance is equality.

Criterion 3 has two halves.  The first (the smallest multiple of the top
generator) passes.  The second asserts the closed form (a+d, a, b) for
the smallest n with n*m0 = m*m_p + m_i, and is expected to fail: the
search, which solves one linear congruence per index without the closed
forms (the exhaustive linear loop it replaced is the oracle in
tests/test_semigroup.py), returns (a+d+1, a, b) for every valid
parameter set, matching the identity (a+d+1)*m0 = a*m_p + m_b.  The
assertion is kept in its stated strict form so the discrepancy stays on
record instead of being patched away.
"""

import time
from functools import lru_cache

from monocurve import (
    make_params,
    min_multiple_of_m0,
    min_multiple_of_mp,
)
from monocurve.generators import (
    groebner_generators,
    patil_generators,
    standard_monomials,
    verify_groebner_generators,
    verify_minimality,
)
from monocurve.polyring import Poly
from monocurve.syzygy import (
    Curve,
    relation_image,
    syzygy_basis,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)
from oracles import curve_image, parameter_sweep

SWEEP_P6 = list(parameter_sweep(range(2, 7), range(1, 4), range(1, 6)))
SWEEP_P5 = [pr for pr in SWEEP_P6 if pr.p <= 5]


def _criterion(number, ok, description):
    print(f"criterion {number:>3} [{'PASS' if ok else 'FAIL'}] {description}")


@lru_cache(maxsize=None)
def _syzygy_report(pr):
    return verify_syzygy_basis(Curve(pr))


def test_criterion_01_groebner_closed_form():
    """Every S-polynomial reduces to zero, the reduced engine output adds
    no leading monomial, and the leading terms are exactly the predicted
    set, for every valid (p, a, b, d) with p <= 6, a <= 3, d <= 5."""
    start = time.monotonic()
    failures = []
    for pr in SWEEP_P6:
        report = verify_groebner_generators(Curve(pr))
        if not report.passed:
            failures.append((str(pr), [c.name for c in report.checks if not c.passed]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _criterion(
        1,
        ok,
        f"Groebner property over {len(SWEEP_P6)} parameter sets in {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"


def test_criterion_02_minimality():
    """No leading term of the closed-form basis divides another."""
    failures = [
        str(pr) for pr in SWEEP_P6 if not verify_minimality(Curve(pr), deep=False).passed
    ]
    _criterion(2, not failures, f"pairwise leading-term check over {len(SWEEP_P6)} sets")
    assert not failures, failures[:3]


def test_criterion_03a_mp_multiple_closed_form():
    """Exhaustive search for the smallest m with m*m_p = n*m0 + m_i
    returns (a+1, a+d, p-b) on every sweep member."""
    failures = []
    for pr in SWEEP_P6:
        expected = (pr.a + 1, pr.a + pr.d, pr.p - pr.b)
        found = min_multiple_of_mp(pr)
        if found != expected:
            failures.append((str(pr), found, expected))
    _criterion(3, not failures, f"(m, n, i) = (a+1, a+d, p-b) over {len(SWEEP_P6)} sets")
    assert not failures, failures[:3]


def test_criterion_03b_m0_multiple_closed_form_as_stated():
    """Stated closed form (a+d, a, b) for the smallest n with
    n*m0 = m*m_p + m_i.

    Expected to fail: search returns (a+d+1, a, b) on every valid
    parameter set, and (a+d)*m0 = a*m_p + m_b is short by exactly m0.
    Kept strict deliberately; see the module docstring.
    """
    mismatches = []
    for pr in SWEEP_P6:
        stated = (pr.a + pr.d, pr.a, pr.b)
        found = min_multiple_of_m0(pr)
        if found != stated:
            mismatches.append((str(pr), found, stated))
    _criterion(
        3,
        not mismatches,
        f"(n, m, i) = (a+d, a, b) over {len(SWEEP_P6)} sets"
        + (
            f"; search finds n = a+d+1 on {len(mismatches)} of them"
            if mismatches
            else ""
        ),
    )
    assert not mismatches, (
        f"exhaustive search disagrees with the stated triple on "
        f"{len(mismatches)} of {len(SWEEP_P6)} parameter sets; first case: "
        f"params {mismatches[0][0]} search {mismatches[0][1]} vs stated "
        f"{mismatches[0][2]}.  The search result equals (a+d+1, a, b) in "
        f"every case, consistent with (a+d+1)*m0 = a*m_p + m_b."
    )


def test_criterion_04_syzygy_kernel():
    """Every syzygy basis member evaluates to zero, p <= 5, under 30s."""
    start = time.monotonic()
    failures = []
    for pr in SWEEP_P5:
        curve = Curve(pr)
        for lab, elem in curve.sset.labeled():
            if relation_image(curve, elem):
                failures.append((str(pr), lab))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    _criterion(4, ok, f"kernel check over {len(SWEEP_P5)} parameter sets in {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s, budget is 30s"


def test_criterion_05_syzygy_groebner():
    """All same-symbol S-vectors reduce to zero against the syzygy basis,
    and every relation harvested from the generators' S-polynomial
    reductions reduces to zero as well, p <= 5."""
    failures = []
    for pr in SWEEP_P5:
        report = _syzygy_report(pr)
        for check in report.checks:
            if check.name in ("s-vectors-reduce", "harvested-relations-reduce"):
                if not check.passed:
                    failures.append((str(pr), check.name, check.witness))
    _criterion(5, not failures, f"S-vectors and harvested relations over {len(SWEEP_P5)} sets")
    assert not failures, failures[:3]


def test_criterion_06_syzygy_minimality():
    """No leading term of the syzygy basis divides another, p <= 5."""
    failures = []
    for pr in SWEEP_P5:
        for check in _syzygy_report(pr).checks:
            if check.name == "module-leading-terms-incomparable" and not check.passed:
                failures.append((str(pr), check.witness))
    _criterion(6, not failures, f"pairwise module leading-term check over {len(SWEEP_P5)} sets")
    assert not failures, failures[:3]


def test_criterion_07_order_projection():
    """The projection of 1000 seeded random single terms per parameter
    set equals the leading monomial of the term's image."""
    failures = []
    for pr in SWEEP_P5:
        report = verify_order_projection(Curve(pr), samples=1000, seed=0)
        if not report.passed:
            failures.append((str(pr), [c for c in report.checks if not c.passed][0].witness))
    _criterion(7, not failures, f"1000 sampled terms on each of {len(SWEEP_P5)} sets")
    assert not failures, failures[:3]


def test_criterion_08_cardinalities():
    """|closed-form basis| = p(p-1)/2 + (p-b+1), the classical basis has
    the same size, and the syzygy families count p(p-b), p(p-1)/2 and
    sum_{j=2}^{p-1} j(j-1)."""
    failures = []
    for pr in SWEEP_P6:
        p, b = pr.p, pr.b
        gset = groebner_generators(pr)
        if len(gset) != p * (p - 1) // 2 + (p - b + 1):
            failures.append((str(pr), "closed-form size"))
        if len(patil_generators(pr)) != len(gset):
            failures.append((str(pr), "classical size"))
        counts = syzygy_basis(pr).counts()
        expected_total = p * (p - b) + p * (p - 1) // 2 + sum(
            j * (j - 1) for j in range(2, p)
        )
        if counts["total"] != expected_total:
            failures.append((str(pr), "syzygy size"))
    _criterion(8, not failures, f"cardinality formulas over {len(SWEEP_P6)} sets")
    assert not failures, failures[:3]


def test_criterion_09_standard_monomial_distinctness():
    """For (m0, d, p) = (7, 1, 3) with exponent bound 8, distinct
    standard monomials have distinct images under the substitution
    X_i -> T^(m_i)."""
    pr = make_params(7, 1, 3)
    std = standard_monomials(Curve(pr), 8)
    collisions = []
    for x in range(len(std)):
        for y in range(x + 1, len(std)):
            diff = Poly(pr.nvars, {std[x]: 1}) - Poly(pr.nvars, {std[y]: 1})
            if not curve_image(pr, diff):
                collisions.append((std[x], std[y]))
    _criterion(9, not collisions, f"{len(std)} standard monomials, bound 8")
    assert not collisions, collisions[:3]


def test_criterion_10_excluded_leading_forms():
    """For (7, 1, 3) with bound 5, no member of the excluded families
    lies in the leading-term module of the syzygy basis."""
    pr = make_params(7, 1, 3)
    report = verify_excluded_leading_forms(Curve(pr), 5)
    detail = report.checks[0].detail
    _criterion(10, report.passed, detail)
    assert report.passed, [c for c in report.checks if not c.passed][0].witness
