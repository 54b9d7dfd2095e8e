"""The package surface: ``etaq`` re-exports every module's ``__all__``."""

import etaq
from etaq import congruences, eta, identities, oracle, sequences, series

MODULES = (series, eta, identities, sequences, congruences, oracle)

SERIES_NAMES = {
    "AllZeroWindow", "Comparison", "EmptyWindow", "FAIL", "INSUFFICIENT",
    "LaurentSeries", "NonUnitLeadingCoefficient", "PASS", "ProductTooLarge",
    "Report", "SKIPPED", "SeriesError", "compare", "two_adic_valuation", "worst",
}

# The names the package exported before it read the module lists.
EARLIER_NAMES = SERIES_NAMES | {
    "CATALOG", "CongruenceClaim", "DissectionClaim", "DivisionTooLarge",
    "QuotientParseError", "TARGETS", "closed_form_C", "cross_check",
    "direct_eta_product", "expand_f", "expand_k", "expand_quotient", "gen_target",
    "identity_sides", "lhs_series", "parse_quotient", "partition_counts",
    "rhs_series", "sequence_values", "theorem_11_claims", "theorem_12_claims",
    "verify_all_identities", "verify_closed_forms", "verify_congruence",
    "verify_dissection", "verify_identity", "verify_induction_step",
    "verify_theorem", "verify_valuations", "verify_zero_family_structurally",
    "zero_family_claim",
}


def test_package_names_are_the_union_of_the_module_lists():
    assert len(etaq.__all__) == len(set(etaq.__all__))
    assert set(etaq.__all__) == {name for m in MODULES for name in m.__all__}


def test_each_package_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(etaq, name) is getattr(module, name), (module.__name__, name)


def test_package_keeps_every_earlier_name():
    assert len(EARLIER_NAMES) == 46
    assert EARLIER_NAMES <= set(etaq.__all__)


def test_names_public_in_their_modules_import_from_the_package():
    from etaq import TARGET_ROWS, cache_info, direct_k

    assert TARGET_ROWS is eta.TARGET_ROWS
    assert cache_info is eta.cache_info
    assert direct_k is oracle.direct_k


def test_series_list_holds_what_the_package_takes_from_series():
    assert set(series.__all__) == SERIES_NAMES
    assert len(series.__all__) == len(SERIES_NAMES)
    namespace = {}
    exec("from etaq.series import *", namespace)
    assert set(namespace) - {"__builtins__"} == SERIES_NAMES
