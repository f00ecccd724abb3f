"""Local conductor exponent bounds for modular abelian varieties with maximal real multiplication."""

from .arith import digits_base_p, is_prime, lambda_p, real_cyclotomic_degree, valuation
from .bounds import (
    BoundTriple,
    b0_bound,
    bk_bound,
    bk_prime_bound,
    forced_subfield_exponent,
    render_table,
)
from .cyclo import (
    Compositum,
    Determination,
    ExponentProfile,
    RealCyclotomicField,
    RmConstraintReport,
    analyze_profile,
    enumerate_forbidden,
    genus2_rm_analysis,
)
from .lmfdb import (
    LevelQueryResult,
    OrbitDimCache,
    OrbitDimClient,
    SharpnessWitness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundTriple",
    "Compositum",
    "Determination",
    "ExponentProfile",
    "LevelQueryResult",
    "OrbitDimCache",
    "OrbitDimClient",
    "RealCyclotomicField",
    "RmConstraintReport",
    "SharpnessWitness",
    "analyze_profile",
    "b0_bound",
    "bk_bound",
    "bk_prime_bound",
    "digits_base_p",
    "enumerate_forbidden",
    "forced_subfield_exponent",
    "genus2_rm_analysis",
    "is_prime",
    "lambda_p",
    "real_cyclotomic_degree",
    "render_table",
    "valuation",
    "__version__",
]
