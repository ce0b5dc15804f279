"""Exact division of harmonic polynomials and series, with certified bounds
and numeric verification of the analytic properties of their ratios."""

from .certificates import (
    BoundCertificate,
    bound_certificate,
    coefficient_bound_check,
    measure_growth,
    verify_certificate,
)
from .catalog import (
    CatalogEntry,
    SharedZeroPair,
    UnknownEntry,
    catalog_get,
    catalog_names,
    manifest,
    shared_pair,
)
from .division import (
    DivisionOutcome,
    InsufficientDegree,
    NotDivisible,
    NotHarmonic,
    NotHomogeneous,
    ResidualNonzero,
    ZeroInput,
    divide_by_harmonic,
    normalize_rotation,
    series_ratio,
)
from .multiindex import prec
from .nodal import (
    NotAZero,
    critical_set_sample,
    depth_of_zero,
    nodal_domain_count,
    zero_set_sample,
)
from .polynomial import Polynomial, harmonic_basis, rotate
from .regions import Region
from .reports import NodalAnalysisReport, VerificationReport
from .rotation import RationalOrthogonalMatrix, cayley, cayley_from_params, identity
from .series import TruncatedSeries
from .verify import (
    DegenerateRegion,
    RatioEvaluator,
    RatioVanishes,
    ResidualVanishes,
    harnack_constant,
    leading_zero_inclusion,
    max_principle_check,
    residual_convergence,
    sphere_orthogonality,
)

__version__ = "0.1.0"
