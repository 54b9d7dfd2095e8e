"""Tests for the identity catalog and its verifier."""

from __future__ import annotations

import pytest

from etaq.eta import expand_k, expand_quotient
from etaq.identities import (
    CATALOG,
    MIN_ORDER,
    catalog_ids,
    identity_sides,
    verify_all_identities,
    verify_identity,
)
from etaq.oracle import direct_eta_product
from etaq.series import PASS, compare

ALL_IDS = (
    "EQ21", "EQ22", "EQ23", "EQ24", "EQ25", "EQ26", "EQ27", "EQ28", "EQ29",
    "NEGQ", "L22", "EQ210", "EQ211", "EQ212_ODDFREE", "EQ213_ODDFREE",
)


def test_catalog_ids_fixed():
    assert catalog_ids() == ALL_IDS
    assert all(CATALOG[tag].statement for tag in ALL_IDS)


def test_all_identities_pass():
    for report in verify_all_identities(300):
        assert report.status == PASS, report.identity
        assert report.witness is None


def test_all_identities_pass_at_min_order():
    # Every entry retains enough window to clear the order // 2 bar even
    # at the smallest admissible order.
    for report in verify_all_identities(MIN_ORDER):
        assert report.status == PASS, report.identity


def test_eq21_lhs_matches_oracle():
    lhs, _ = identity_sides("EQ21", 16)
    frozen = direct_eta_product({2: 5, 10: -1}, 12)
    assert lhs.coeffs[:12] == frozen.coeffs


def test_eq27_collapses_to_constant():
    lhs, rhs = identity_sides("EQ27", 100)
    assert rhs[0] == 5
    assert lhs[0] == 5
    assert all(lhs[e] == 0 for e in range(lhs.offset, lhs.prec) if e != 0)


def test_negq_sign_flip_matches_oracle():
    lhs, rhs = identity_sides("NEGQ", 16)
    frozen = direct_eta_product({2: 3, 1: -1, 4: -1}, 12)
    assert lhs.coeffs[:12] == frozen.coeffs
    assert rhs.coeffs[:12] == frozen.coeffs


def test_even_index_extractions_match_frozen_targets():
    # The q^{-1} terms and the first few coefficients of the extracted
    # sides pin the offset bookkeeping to frozen oracle values.
    lhs_p, _ = identity_sides("L22", 40)
    assert lhs_p.offset == -1
    assert [lhs_p[n] for n in range(-1, 4)] == [-4, 8, -8, 0, 20]

    lhs_m, _ = identity_sides("EQ210", 40)
    assert lhs_m.offset == -1
    assert [lhs_m[n] for n in range(-1, 5)] == [1, -2, -8, 20, 5, -24]

    lhs_t, _ = identity_sides("EQ211", 40)
    assert lhs_t.offset == -1
    assert [lhs_t[n] for n in range(-1, 5)] == [1, 6, -8, -12, 5, -8]


def test_eq24_eq25_combine_into_eq28():
    # Multiplying EQ24 by f1 and EQ25 by f10 and subtracting reproduces
    # k times each side of EQ28, so the three entries are mutually
    # consistent rather than independently typed.
    order = 120
    k = expand_k(order)
    f1 = expand_quotient({1: 1}, order)
    f10 = expand_quotient({10: 1}, order)
    lhs24, rhs24 = identity_sides("EQ24", order)
    lhs25, rhs25 = identity_sides("EQ25", order)
    lhs28, rhs28 = identity_sides("EQ28", order)

    term1 = expand_quotient({2: 4, 5: 2, 10: 1}, order)
    term2 = expand_quotient({1: 2, 10: 5}, order).shift(1)

    left = compare(f10 * lhs25 - f1 * lhs24, k * (term1 - lhs28), min_overlap=40)
    right = compare(f10 * rhs25 - f1 * rhs24, k * term2, min_overlap=40)
    assert left.status == PASS
    assert right.status == PASS
    assert compare(rhs28, term1 - term2, min_overlap=40).status == PASS


def test_identity_sides_validation():
    with pytest.raises(ValueError):
        identity_sides("EQ99", 100)
    with pytest.raises(ValueError):
        identity_sides("EQ21", MIN_ORDER - 1)


def test_verify_identity_report_shape():
    report = verify_identity("EQ22", 64)
    payload = report.to_dict()
    assert payload == {
        "label": "EQ22", "status": PASS, "claim": CATALOG["EQ22"].statement,
        "order": 64, "checked": {"from": 0, "to": 63, "points": 64},
        "witness": None, "note": None,
    }


def test_identity_report_keeps_the_identity_name():
    report = verify_identity("EQ28", 64)
    assert report.identity == report.label == "EQ28"
    assert (report.order, report.status) == (64, PASS)
