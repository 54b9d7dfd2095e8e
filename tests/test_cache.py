"""Tests for the window cache behind every expansion in etaq.eta."""

from __future__ import annotations

import sys

import pytest

import etaq.eta as eta
import prop_support as props
from etaq.eta import TARGETS, cache_info, expand_k, expand_quotient
from etaq.oracle import direct_eta_product, direct_k
from etaq.series import LaurentSeries

# Seeded random quotients, G = f2^4 f10^4, and None for k(q) (_K_ITEMS).
CASES = props.random_quotients(10, 61) + [{2: 4, 10: 4}, None]
LOW, HIGH = 37, 151


@pytest.fixture(autouse=True)
def cold_cache():
    eta._expand_quotient_cached.cache_clear()
    yield
    eta._expand_quotient_cached.cache_clear()


def _expand(factors, order):
    return expand_k(order) if factors is None else expand_quotient(factors, order)


def _oracle(factors, order):
    return direct_k(order) if factors is None else direct_eta_product(factors, order)


def _check_prefix_stable(factors, warm):
    """Expand at LOW then HIGH and at HIGH then LOW, from a cold cache or
    one warmed by every case at an order in between; every window must
    equal the oracle's."""
    for orders in ((LOW, HIGH), (HIGH, LOW)):
        eta._expand_quotient_cached.cache_clear()
        if warm:
            for other in CASES:
                _expand(other, (LOW + HIGH) // 2)
        for order in orders:
            assert _expand(factors, order) == _oracle(factors, order), (orders, order)


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@pytest.mark.parametrize("factors", CASES, ids=str)
def test_windows_are_prefix_stable_in_either_order(factors, warm):
    _check_prefix_stable(factors, warm)


@pytest.mark.parametrize("defect", (
    lambda window, order: window,
    lambda window, order: LaurentSeries(0, window.coeffs[:order - 1]),
), ids=("served-uncut", "cut-one-short"))
def test_prefix_check_catches_seeded_truncation_defect(defect, monkeypatch):
    monkeypatch.setattr(eta, "_prefix", defect)
    with pytest.raises(AssertionError):
        _check_prefix_stable(TARGETS["EULER_P"], warm=False)


def test_budget_bounds_the_cache_and_evicts(monkeypatch):
    monkeypatch.setattr(eta, "_CACHE_BYTES", 40_000)
    for factors in CASES:
        for order in (HIGH, LOW, HIGH + 50):
            assert _expand(factors, order) == _oracle(factors, order), (factors, order)
            assert cache_info()["bytes"] <= 40_000
    info = cache_info()
    assert info["evictions"] > 0
    assert 0 < info["entries"] < info["misses"]


def test_budget_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(eta, "_CACHE_BYTES", 10**9)
    expand_quotient({1: -1}, 400)
    expand_quotient({1: 2}, 400)
    expand_quotient({1: -1}, 400)  # now the most recently used
    monkeypatch.setattr(eta, "_CACHE_BYTES", cache_info()["bytes"])
    expand_quotient({1: 3}, 100)  # smaller than the least recently used window
    assert cache_info()["evictions"] == 1
    misses = cache_info()["misses"]
    expand_quotient({1: -1}, 400)
    expand_quotient({1: 3}, 100)
    assert cache_info()["misses"] == misses, "a recently used window was evicted"
    expand_quotient({1: 2}, 400)
    assert cache_info()["misses"] == misses + 1, "the least recently used window was kept"


def test_a_window_larger_than_the_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(eta, "_CACHE_BYTES", 100)
    assert expand_quotient({1: -3}, 300) == direct_eta_product({1: -3}, 300)
    assert cache_info()["entries"] == 0
    assert cache_info()["bytes"] == 0


def _counts():
    info = cache_info()
    return info["hits"], info["prefix_hits"], info["misses"], info["entries"]


def test_cache_info_counts_each_kind_of_request():
    first = expand_quotient({1: -1}, 200)
    assert _counts() == (0, 0, 1, 1)
    assert expand_quotient({1: -1}, 200) is first
    assert expand_quotient({1: -1}, 50) == LaurentSeries(0, first.coeffs[:50])
    assert _counts() == (1, 1, 1, 1)
    assert cache_info()["bytes"] > 0
    cache_info()["hits"] = 99
    assert _counts() == (1, 1, 1, 1)
    eta._expand_quotient_cached.cache_clear()
    assert cache_info() == dict.fromkeys(
        ("hits", "prefix_hits", "misses", "entries", "bytes", "evictions"), 0)


def test_cache_bytes_are_the_getsizeof_sum():
    # Windows of big coefficients (1/f1^3), of small ones and zeros (f1^4
    # f5^4 and its factors) and a spread reduced window (G = F(q^2)).
    for factors, order in (({1: -3}, 500), ({1: 4, 5: 4}, 300), ({2: 4, 10: 4}, 400)):
        expand_quotient(factors, order)
    windows = [window for window, _ in eta._expand_quotient_cached._windows.values()]
    assert len(windows) == cache_info()["entries"] >= 3
    assert cache_info()["bytes"] == sum(
        sys.getsizeof(w.coeffs) + sum(map(sys.getsizeof, w.coeffs)) for w in windows)


def test_factors_and_reduced_quotients_are_shared():
    # F = f1^4 f5^4 stores F and f1^4; f5^4 is f1^4 on 40 terms, a prefix.
    assert expand_quotient({1: 4, 5: 4}, 200) == direct_eta_product({1: 4, 5: 4}, 200)
    assert _counts() == (0, 1, 2, 2)
    # G = f2^4 f10^4 is F(q^2): the stored F window, spread.
    assert expand_quotient({2: 4, 10: 4}, 400) == direct_eta_product({2: 4, 10: 4}, 400)
    assert _counts() == (1, 1, 2, 2)
