"""Tests for the eta-product expander against frozen oracle values."""

from __future__ import annotations

import random

import pytest

import etaq.eta as eta

from etaq.eta import (
    QuotientParseError,
    TARGETS,
    expand_f,
    expand_k,
    expand_quotient,
    gen_target,
    parse_quotient,
)
from etaq.oracle import cross_check, direct_eta_product, direct_k
from etaq.series import FAIL, PASS, LaurentSeries

# Frozen from the factor-by-factor oracle product.
F1_13 = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

# Frozen from the oracle expansions of the named targets.
M_12 = (1, 1, -3, -2, 0, -8, 1, 20, 7, 5, 22, -24)
TSTAR_12 = (1, -5, 6, 5, -8, -5, -12, 30, 5, -10, -8, -10)
PSTAR_12 = (1, -4, 2, 8, -5, -8, 6, 0, -23, 20, 32, 16)


def test_expand_f_pentagonal_values():
    assert expand_f(1, 13).coeffs == F1_13
    assert expand_f(1, 2).coeffs == (1, -1)


def test_expand_f_supported_on_multiples():
    for m in (2, 3, 5, 10):
        s = expand_f(m, 60)
        assert all(c == 0 for e, c in s if e % m), f"f{m} leaked off-lattice terms"


def test_expand_f_matches_oracle():
    for m in (1, 2, 4, 5, 8, 10, 20, 40):
        assert expand_f(m, 120) == direct_eta_product({m: 1}, 120)


def test_expand_f_validation():
    with pytest.raises(ValueError):
        expand_f(0, 10)
    with pytest.raises(ValueError):
        expand_f(1, 0)


def test_expand_quotient_partition_numbers():
    assert expand_quotient({1: -1}, 5).coeffs == (1, 1, 2, 3, 5)


def test_expand_quotient_empty_product():
    assert expand_quotient({}, 6) == LaurentSeries.one(6)


def test_expand_quotient_exponent_additivity():
    f1 = expand_f(1, 40)
    assert expand_quotient({1: 2}, 40) == f1 * f1


def _random_quotients(count: int, seed: int) -> list[dict[int, int]]:
    rng = random.Random(seed)
    periods = (1, 2, 4, 5, 8, 10, 20, 40)
    exponents = [e for e in range(-5, 6) if e]
    return [{m: rng.choice(exponents) for m in sorted(rng.sample(periods, rng.randint(1, 4)))}
            for _ in range(count)]


# Seeded random quotients, most with a period gcd above 1, plus G = f2^4 f10^4.
@pytest.mark.parametrize("factors", _random_quotients(16, 40) + [{2: 4, 10: 4}], ids=str)
def test_expand_quotient_matches_oracle_on_random_quotients(factors):
    # m - 1, m and m + 1 put ceil(order / m) on both sides of a rounding step.
    orders = {1, 2, 37, 200} | {n for m in factors for n in (m - 1, m, m + 1) if n >= 1}
    for order in sorted(orders):
        assert expand_quotient(factors, order) == direct_eta_product(factors, order), order


def test_expand_quotient_validation():
    with pytest.raises(ValueError):
        expand_quotient({2: 0}, 10)
    with pytest.raises(ValueError):
        expand_quotient({0: 1}, 10)
    with pytest.raises(ValueError):
        expand_quotient({1: 1}, 0)


def test_gen_target_frozen_values():
    assert gen_target("M", 12).coeffs == M_12
    assert gen_target("TSTAR", 12).coeffs == TSTAR_12
    assert gen_target("PSTAR", 12).coeffs == PSTAR_12
    assert gen_target("EULER_P", 5).coeffs == (1, 1, 2, 3, 5)


def test_gen_target_anchors():
    assert gen_target("M", 16)[0] == 1
    assert gen_target("M", 16)[1] == 1
    assert gen_target("PSTAR", 16)[1] == -4


def test_gen_target_unknown_tag():
    with pytest.raises(ValueError):
        gen_target("X", 16)


def test_gen_target_precision_soundness():
    for tag in sorted(TARGETS):
        small = gen_target(tag, 60)
        large = gen_target(tag, 120)
        assert large.coeffs[:60] == small.coeffs


def test_expand_k_leading_term():
    k = expand_k(20)
    assert k.offset == 1
    assert k[1] == 1


def test_expand_k_inverse_law():
    k = expand_k(50)
    product = k * k.invert(50)
    assert product[0] == 1
    assert all(product[e] == 0 for e in range(1, product.prec))


def test_expand_k_matches_independent_reconstruction():
    # Rebuild k(q) from explicit binomial windows and generic series ops,
    # a different code path from the in-place residue-pattern loops.
    order = 200
    numerator = LaurentSeries.one(order)
    denominator = LaurentSeries.one(order)
    for d in range(1, order):
        binomial = LaurentSeries.from_terms({0: 1, d: -1}, 0, order)
        r = d % 10
        if r in (1, 2, 8, 9):
            numerator = numerator * binomial
        elif r in (3, 4, 6, 7):
            denominator = denominator * binomial
    rebuilt = (numerator * denominator.invert(order)).shift(1)
    k = expand_k(order)
    assert rebuilt.offset == k.offset
    assert rebuilt.coeffs[: len(k.coeffs)] == k.coeffs


@pytest.mark.parametrize("order", [*range(2, 61), 2000])
def test_expand_k_matches_literal_product(order):
    assert expand_k(order) == direct_k(order)


def test_cross_check_catches_seeded_defect_in_k(monkeypatch):
    # Negative control: flip the sign of the q^9 term (j = -1) of
    # theta(10, 1), a factor only k uses.  Then k gains
    # 2 q^10 theta_2/(theta_3 theta_4), so the first wrong coefficient is
    # k(10) = 1 + 2.
    real_theta = eta._theta

    def broken(period, a, length):
        s = real_theta(period, a, length)
        if (period, a) != (10, 1):
            return s
        coeffs = list(s.coeffs)
        coeffs[9] = -coeffs[9]
        return LaurentSeries(s.offset, coeffs)

    monkeypatch.setattr(eta, "_theta", broken)
    eta._expand_quotient_cached.cache_clear()
    try:
        checks = {c.label: c for c in cross_check(40)}
    finally:
        eta._expand_quotient_cached.cache_clear()
    row = checks["k: theta quotient vs factor-by-factor product"]
    assert row.status == FAIL
    assert row.witness == {"exponent": 10, "lhs": "3", "rhs": "1"}
    assert [label for label, c in checks.items() if c.status != PASS] == [row.label]


def test_cross_check_catches_seeded_defect_in_reduced_theta(monkeypatch):
    # Negative control: f5 on [0, 37) is theta(3, 1) on ceil(37/5) = 8
    # terms spread by 5.  Corrupt the q^2 term of exactly that window; the
    # f5 row must then fail at q^10 (pentagonal coefficient -1, now 0).
    order = 37
    real_theta = eta._theta

    def broken(period, a, length):
        s = real_theta(period, a, length)
        if (period, a, length) != (3, 1, -(-order // 5)):
            return s
        coeffs = list(s.coeffs)
        coeffs[2] += 1
        return LaurentSeries(s.offset, coeffs)

    monkeypatch.setattr(eta, "_theta", broken)
    eta._expand_quotient_cached.cache_clear()
    try:
        checks = {c.label: c for c in cross_check(order)}
    finally:
        eta._expand_quotient_cached.cache_clear()
    row = checks["f5: pentagonal expansion vs factor-by-factor product"]
    assert row.status == FAIL
    assert row.witness == {"exponent": 10, "lhs": "0", "rhs": "-1"}


def test_expand_k_validation():
    with pytest.raises(ValueError):
        expand_k(1)


def test_parse_quotient_roundtrip():
    assert parse_quotient("f1^-1*f2^5*f5^5*f10^-1") == TARGETS["M"]
    assert parse_quotient("f1^4*f5^4") == {1: 4, 5: 4}
    assert parse_quotient("f2") == {2: 1}
    assert parse_quotient(" f2 * f8 ") == {2: 1, 8: 1}


def test_parse_quotient_errors():
    with pytest.raises(QuotientParseError) as err:
        parse_quotient("f1^0*f2")
    assert err.value.position == 0
    with pytest.raises(QuotientParseError) as err:
        parse_quotient("f1**f2")
    assert err.value.position == 3
    with pytest.raises(QuotientParseError):
        parse_quotient("f1*f1")
    with pytest.raises(QuotientParseError):
        parse_quotient("f0^2")
    with pytest.raises(QuotientParseError):
        parse_quotient("")
    with pytest.raises(QuotientParseError):
        parse_quotient("g1^2")
