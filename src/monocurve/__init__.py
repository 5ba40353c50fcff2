"""Exact Groebner bases for arithmetic-sequence monomial curve ideals,
their first syzygy modules, and oracle-backed verification of both."""

from .generators import (
    GeneratorSet,
    PatilSet,
    epsilon,
    expected_leading_monomials,
    groebner_generators,
    patil_generators,
    standard_monomials,
    standard_shape,
    verify_groebner_generators,
    verify_ideal_equality,
    verify_minimality,
    verify_standard_monomials,
)
from .polyring import (
    Closure,
    Poly,
    WeightOrder,
    ZeroPolynomialError,
    normal_form,
    variable_monomial,
)
from .report import CheckResult, VerificationReport
from .semigroup import (
    CurveParams,
    GcdError,
    HypothesisError,
    ParameterError,
    m0_multiple_identity,
    make_params,
    min_multiple_of_m0,
    min_multiple_of_mp,
    mp_multiple_identity,
    verify_minimal_multiples,
)
from .syzygy import (
    Curve,
    ModElement,
    ModuleOrder,
    Phi,
    Psi,
    SyzygySet,
    relation_image,
    schreyer_relations,
    syzygy_basis,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)

__version__ = "0.1.0"
