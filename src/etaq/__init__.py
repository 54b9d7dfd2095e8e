"""Exact q-series laboratory.

Expands eta-quotient generating functions as exact integer coefficient
windows, verifies a catalog of series identities and 2-power dissection /
congruence families against them, and cross-checks the expander with an
independent oracle: the Durfee-square sum for p(n), Euler's series for f1,
eta products built from those two sums, and k(q) from Euler's and
Cauchy's sums for its factors (q^r; q^10)_inf.
"""

from .series import (
    AllZeroWindow,
    Comparison,
    EmptyWindow,
    FAIL,
    INSUFFICIENT,
    LaurentSeries,
    NonUnitLeadingCoefficient,
    PASS,
    ProductTooLarge,
    Report,
    SKIPPED,
    SeriesError,
    compare,
    two_adic_valuation,
    worst,
)
from .eta import (
    DivisionTooLarge,
    QuotientParseError,
    TARGETS,
    expand_f,
    expand_k,
    expand_quotient,
    gen_target,
    parse_quotient,
)
from .identities import (
    CATALOG,
    identity_sides,
    verify_all_identities,
    verify_identity,
)
from .sequences import (
    closed_form_C,
    sequence_values,
    verify_closed_forms,
    verify_valuations,
)
from .congruences import (
    CongruenceClaim,
    DissectionClaim,
    lhs_series,
    rhs_series,
    theorem_11_claims,
    theorem_12_claims,
    verify_congruence,
    verify_dissection,
    verify_induction_step,
    verify_theorem,
    verify_zero_family_structurally,
    zero_family_claim,
)
from .oracle import cross_check, direct_eta_product, partition_counts

__version__ = "0.1.0"

__all__ = [
    "AllZeroWindow",
    "CATALOG",
    "Comparison",
    "CongruenceClaim",
    "DissectionClaim",
    "DivisionTooLarge",
    "EmptyWindow",
    "FAIL",
    "INSUFFICIENT",
    "LaurentSeries",
    "NonUnitLeadingCoefficient",
    "PASS",
    "ProductTooLarge",
    "QuotientParseError",
    "Report",
    "SKIPPED",
    "SeriesError",
    "TARGETS",
    "closed_form_C",
    "compare",
    "cross_check",
    "direct_eta_product",
    "expand_f",
    "expand_k",
    "expand_quotient",
    "gen_target",
    "identity_sides",
    "lhs_series",
    "parse_quotient",
    "partition_counts",
    "rhs_series",
    "sequence_values",
    "theorem_11_claims",
    "theorem_12_claims",
    "two_adic_valuation",
    "verify_all_identities",
    "verify_closed_forms",
    "verify_congruence",
    "verify_dissection",
    "verify_identity",
    "verify_induction_step",
    "verify_theorem",
    "verify_valuations",
    "verify_zero_family_structurally",
    "worst",
    "zero_family_claim",
]
