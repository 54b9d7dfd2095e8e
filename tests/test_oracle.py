"""Tests for the brute-force oracle and the cross-check harness."""

from __future__ import annotations

import pytest

import etaq.eta as eta
from etaq.oracle import (
    cross_check,
    direct_eta_product,
    partition_counts,
)
from etaq.series import FAIL, PASS, LaurentSeries, worst

P_SMALL = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_partition_counts_small():
    assert partition_counts(11) == list(P_SMALL)


def test_partition_counts_century_value():
    assert partition_counts(101)[100] == 190569292


def test_partition_counts_nondecreasing():
    counts = partition_counts(80)
    assert all(counts[n] <= counts[n + 1] for n in range(79))


def test_partition_counts_validation():
    with pytest.raises(ValueError):
        partition_counts(0)


def test_direct_eta_product_single_factor():
    assert direct_eta_product({1: 1}, 13).coeffs == (
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
    )


def test_direct_eta_product_inverse_is_partitions():
    s = direct_eta_product({1: -1}, 30)
    assert list(s.coeffs) == partition_counts(30)


def test_direct_eta_product_cancellation():
    mixed = direct_eta_product({1: 2}, 20) * direct_eta_product({1: -2}, 20)
    assert mixed[0] == 1
    assert all(mixed[e] == 0 for e in range(1, 20))


def test_direct_eta_product_mixed_signs_in_one_call():
    split = direct_eta_product({2: 5, 1: -1}, 25)
    joined = direct_eta_product({2: 5}, 25) * direct_eta_product({1: -1}, 25)
    assert split.coeffs == joined.coeffs[:25]


def test_direct_eta_product_validation():
    with pytest.raises(ValueError):
        direct_eta_product({0: 1}, 10)
    with pytest.raises(ValueError):
        direct_eta_product({1: 0}, 10)


def test_cross_check_passes():
    checks = cross_check(120)
    assert all(check.status == PASS for check in checks)
    assert all(check.witness is None for check in checks)
    assert all(check.order == 120 and check.checked for check in checks)
    names = [check.label for check in checks]
    assert any(name.startswith("f1:") for name in names)
    assert any(name.startswith("M:") for name in names)
    assert any("mod 5" in name for name in names)


def test_cross_check_validation():
    with pytest.raises(ValueError):
        cross_check(8)


def test_cross_check_report_dict():
    payload = cross_check(40)[0].to_dict()
    assert payload == {
        "label": "f1: pentagonal expansion vs factor-by-factor product",
        "status": PASS, "claim": None, "order": 40,
        "checked": {"from": 0, "to": 39, "points": 40},
        "witness": None, "note": None,
    }


def test_cross_check_catches_seeded_defect(monkeypatch):
    # Negative control: corrupt one coefficient of the fast expander and
    # confirm the harness flags it with a witness exponent.
    order = 37
    real_expand_f = eta.expand_f

    def broken(m, n):
        s = real_expand_f(m, n)
        if m == 1 and n == order:
            coeffs = list(s.coeffs)
            coeffs[5] += 1
            return LaurentSeries(s.offset, coeffs)
        return s

    monkeypatch.setattr(eta, "expand_f", broken)
    eta._expand_quotient_cached.cache_clear()
    try:
        checks = cross_check(order)
        assert worst(c.status for c in checks) == FAIL
        flagged = [c for c in checks if c.status == FAIL]
        assert flagged
        assert any(c.witness and c.witness.get("exponent") == 5 for c in flagged)
        f1 = next(c for c in flagged if c.label.startswith("f1:"))
        assert f1.witness == {"exponent": 5, "lhs": "2", "rhs": "1"}
    finally:
        eta._expand_quotient_cached.cache_clear()
