"""Well-conditioned polynomial families on N = 4M^2 spherical points.

The package builds the explicit degree-N polynomial family

    P(z) = (z^(4M) - 1) prod_{j=1}^{M-1} (z^(4j) - s_j)(z^(4j) - 1/s_j),
    s_j = ((2M^2 - j^2)/j^2)^(2j),

whose roots stereographically project to N points spread over 2M - 1
parallels of the unit sphere, computes the normalized condition number
mu_max by two independent routes (coefficient-based and spherical), can
certify the mu_max <= N bound with rigorous rounding, and numerically
verifies the chain of energy and product inequalities behind the
construction, including the exact rational sum checks.
"""

from .condition import (
    ConditionReport,
    certify_bound,
    mu_max_coefficient_route,
    mu_max_spherical_route,
    numerator_integral_log,
    point_gap_product_log,
    theta_product_log_turn,
)
from .energy import (
    EnergyReport,
    VerificationReport,
    band_integral,
    expected_log_parallel,
    kappa,
    log_energy,
    log_product_to_set,
    t_ell,
    verification_suite,
)
from .numerics import DEFAULT_PREC_BITS
from .points import (
    Parallel,
    PointSet,
    build_parallels,
    build_point_set,
)
from .polynomials import (
    DensePolynomial,
    FactorizedPolynomial,
    bombieri_norm_sq,
    canonical_polynomial,
    expand,
    product_norm_sq,
    roots,
)
from .sums import (
    SumCheck,
    sum_check_suite,
    r_sum,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PREC_BITS",
    "ConditionReport",
    "DensePolynomial",
    "EnergyReport",
    "FactorizedPolynomial",
    "Parallel",
    "PointSet",
    "SumCheck",
    "VerificationReport",
    "sum_check_suite",
    "band_integral",
    "bombieri_norm_sq",
    "build_parallels",
    "build_point_set",
    "canonical_polynomial",
    "certify_bound",
    "expand",
    "expected_log_parallel",
    "kappa",
    "log_energy",
    "log_product_to_set",
    "mu_max_coefficient_route",
    "mu_max_spherical_route",
    "numerator_integral_log",
    "point_gap_product_log",
    "product_norm_sq",
    "r_sum",
    "roots",
    "t_ell",
    "theta_product_log_turn",
    "verification_suite",
    "__version__",
]
