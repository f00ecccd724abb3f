from __future__ import annotations

import rmbounds

# The package's public names.  Adding or removing one is a deliberate edit here.
PUBLIC_NAMES = [
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
    "__version__",
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
]


def test_public_surface_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(rmbounds.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(rmbounds, name), name
