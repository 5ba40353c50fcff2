import pytest

from monocurve import make_params


@pytest.fixture(scope="session")
def p713():
    return make_params(7, 1, 3)


@pytest.fixture(scope="session")
def p832():
    return make_params(8, 3, 2)


@pytest.fixture(scope="session")
def p613():
    # b = p case: index ranges for the power binomials degenerate
    return make_params(6, 1, 3)


@pytest.fixture(scope="session")
def ladder():
    # b = 1, b = p, p = 2 at both ends of b, m0 and d near 10^6, and p = 32
    return [make_params(*t) for t in
            ((7, 1, 3), (9, 1, 3), (5, 1, 2), (8, 3, 2), (1000003, 999999, 24), (97, 2, 32))]
