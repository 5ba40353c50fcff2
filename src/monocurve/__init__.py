"""Exact Groebner bases for arithmetic-sequence monomial curve ideals,
their first syzygy modules, and oracle-backed verification of both."""

from .generators import (
    GeneratorSet,
    PatilSet,
    epsilon,
    expected_leading_monomials,
    groebner_generators,
    patil_generators,
    phi_binomial,
    psi_binomial,
    standard_monomials,
    standard_shape,
    tau,
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
    buchberger,
    normal_form,
    s_polynomial,
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
    module_normal_form,
    relation_image,
    schreyer_relations,
    syzygy_A,
    syzygy_B,
    syzygy_L,
    syzygy_basis,
    verify_excluded_leading_forms,
    verify_order_projection,
    verify_syzygy_basis,
)

__version__ = "0.1.0"
