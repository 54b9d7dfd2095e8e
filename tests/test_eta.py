"""Tests for the eta-product expander against frozen oracle values."""

from __future__ import annotations

import inspect
import random
import re

import pytest

import etaq.eta as eta
import prop_support as props

from etaq import identities
from etaq.cli import MAX_ORDER, main
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
from etaq.series import FAIL, PASS, LaurentSeries, compare

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


# Seeded random quotients, most with a period gcd above 1, plus G = f2^4 f10^4.
@pytest.mark.parametrize("factors", props.random_quotients(16, 40) + [{2: 4, 10: 4}],
                         ids=str)
def test_expand_quotient_matches_oracle_on_random_quotients(factors):
    # m - 1, m and m + 1 put ceil(order / m) on both sides of a rounding step.
    orders = {1, 2, 37, 200} | {n for m in factors for n in (m - 1, m, m + 1) if n >= 1}
    for order in sorted(orders):
        assert expand_quotient(factors, order) == direct_eta_product(factors, order), order


def _mixed_sign_quotients(count, seed):
    """Seeded quotients with a negative factor, to be divided by theta:
    most also have a positive factor, and some have none."""
    rng = random.Random(seed)
    periods = (1, 2, 3, 4, 5, 7, 8, 10, 20, 40)
    exponents = [e for e in range(-12, 9) if e]
    quotients = []
    while len(quotients) < count:
        factors = {m: rng.choice(exponents) for m in rng.sample(periods, rng.randint(2, 4))}
        if min(factors.values()) < 0:
            quotients.append(dict(sorted(factors.items())))
    return quotients


# 24 draws have factors of both signs and 10 only negative ones.
MIXED_SIGN = _mixed_sign_quotients(34, 1301)


@pytest.mark.parametrize("factors", MIXED_SIGN, ids=str)
def test_mixed_sign_quotients_match_oracle_and_are_prefix_stable(factors):
    for order in (1, 2, 97, 301):
        eta._expand_quotient_cached.cache_clear()
        window = expand_quotient(factors, order)
        assert window == direct_eta_product(factors, order), order
        eta._expand_quotient_cached.cache_clear()
        assert expand_quotient(factors, 2 * order).coeffs[:order] == window.coeffs, order
    eta._expand_quotient_cached.cache_clear()


def _sparse_kinds(m):
    """Each sparse factor the expander regroups into, as an eta quotient,
    with the regrouped item it must become (None for Jacobi's f_m^3)."""
    return {
        "theta(2m,m)": ({m: 2, 2 * m: -1}, ((2 * m, m), 1)),
        "1/theta(2m,m)": ({m: -2, 2 * m: 1}, ((2 * m, m), -1)),
        "theta(4m,m)": ({m: 1, 2 * m: -1, 4 * m: 1}, ((4 * m, m), 1)),
        "1/theta(4m,m)": ({m: -1, 2 * m: 1, 4 * m: -1}, ((4 * m, m), -1)),
        "f_m^3": ({m: 3}, None),
        "f_m^-3": ({m: -3}, None),
        "f_m^6": ({m: 6}, None),
        "f_m^-6": ({m: -6}, None),
    }


@pytest.mark.parametrize("m", (1, 2, 5, 10))
@pytest.mark.parametrize("kind", list(_sparse_kinds(1)))
def test_each_sparse_factor_kind_matches_oracle(kind, m, monkeypatch):
    # Alone, and times f3, which keeps the period gcd at 1 so that the
    # factor is built at period m; orders 63, 64 and 65 straddle the first
    # block of the division recurrence.
    factors, regrouped = _sparse_kinds(m)[kind]
    cubes = []
    real_cube = eta._cube

    def recording(period, length):
        cubes.append(period)
        return real_cube(period, length)

    monkeypatch.setattr(eta, "_cube", recording)
    for quotient in (factors, {**factors, 3: 1}):
        items = tuple(((3 * p, p), e) for p, e in sorted(quotient.items()))
        if regrouped is not None:
            companion = [((9, 3), 1)] if 3 in quotient else []
            assert eta._regroup(items) == tuple(sorted([regrouped] + companion))
        for order in (1, 63, 64, 65, 301, 1000):
            eta._expand_quotient_cached.cache_clear()
            assert expand_quotient(quotient, order) == direct_eta_product(quotient, order), \
                (quotient, order)
    eta._expand_quotient_cached.cache_clear()
    assert bool(cubes) == (regrouped is None)


def test_a_defect_in_jacobis_cube_fails_with_a_witness(monkeypatch):
    # Negative control: Jacobi's f1^3 gets 6 for 5 at q^3.  f1^-3 is one
    # division by it, so its first wrong coefficient is q^3.  T* = theta(2,
    # 1) f1^3 f10^5 / f5 multiplies by it, and P*'s f1^4 is f1^3 times f1;
    # M's f2^5 is f1^3 f1^2 at half the length, so it is off first at q^6.
    real_cube = eta._cube

    def broken(m, length):
        s = real_cube(m, length)
        if m != 1 or length <= 3:
            return s
        coeffs = list(s.coeffs)
        coeffs[3] += 1
        return LaurentSeries(s.offset, coeffs)

    monkeypatch.setattr(eta, "_cube", broken)
    eta._expand_quotient_cached.cache_clear()
    try:
        window = expand_quotient({1: -3}, 64)
        flagged = {c.label: c.witness for c in cross_check(60) if c.status != PASS}
    finally:
        eta._expand_quotient_cached.cache_clear()
    comparison = compare(window, direct_eta_product({1: -3}, 64), 1)
    assert (comparison.status, comparison.witness) == (FAIL, (3, 21, 22))
    assert flagged == {
        "M: quotient expander vs Euler-series product":
            {"exponent": 6, "lhs": "2", "rhs": "1"},
        "PSTAR: quotient expander vs Euler-series product":
            {"exponent": 3, "lhs": "9", "rhs": "8"},
        "TSTAR: quotient expander vs Euler-series product":
            {"exponent": 3, "lhs": "6", "rhs": "5"},
    }


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
    row = checks["k: theta quotient vs Euler and Cauchy series"]
    assert row.status == FAIL
    assert row.witness == {"exponent": 10, "lhs": "3", "rhs": "1"}
    assert [label for label, c in checks.items() if c.status != PASS] == [row.label]


def test_cross_check_catches_seeded_defect_in_reduced_theta(monkeypatch):
    # Negative control: f5 on [0, 37) is theta(3, 1) on ceil(37/5) = 8
    # terms spread by 5, served as a prefix of the f1 row's 37-term
    # theta(3, 1) window.  Corrupt the q^2 term of theta(3, 1) at every
    # length; the f5 row must then fail at q^10 (pentagonal coefficient
    # -1, now 0).
    order = 37
    real_theta = eta._theta

    def broken(period, a, length):
        s = real_theta(period, a, length)
        if (period, a) != (3, 1) or length <= 2:
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
    row = checks["f5: pentagonal expansion vs Euler's series"]
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


_REFERENCE_FACTOR = re.compile(r"f([0-9]+)(\^[+-]?[0-9]+)?")


def _reference_parse(text):
    """The parser as a character scanner with explicit whitespace skips."""
    factors = {}
    pos, n = 0, len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        m = _REFERENCE_FACTOR.match(text, pos)
        if m is None:
            raise QuotientParseError(text, pos, "expected a factor like f10^-2")
        period = int(m.group(1))
        exponent = int(m.group(2)[1:]) if m.group(2) else 1
        if period < 1:
            raise QuotientParseError(text, pos, "period must be >= 1")
        if exponent == 0:
            raise QuotientParseError(text, pos, f"zero exponent on f{period}")
        if period in factors:
            raise QuotientParseError(text, pos, f"duplicate period f{period}")
        factors[period] = exponent
        pos = m.end()
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            return factors
        if text[pos] != "*":
            raise QuotientParseError(text, pos, "expected '*' between factors")
        pos += 1


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except QuotientParseError as exc:
        return exc.position, str(exc)


def test_parse_quotient_agrees_with_the_reference_scanner():
    # Random strings over the grammar's characters and near misses: "10"
    # makes long periods, "x" a stray letter, "٣" a digit that int()
    # reads but the grammar refuses.  Values, positions and messages agree.
    alphabet = ["f", *"0123456789", "10", "^", "+", "-", "*", " ", "\t", "x", "٣"]
    rng = random.Random(26)
    for _ in range(20_000):
        text = "".join(rng.choices(alphabet, k=rng.randrange(12)))
        assert _parse_outcome(parse_quotient, text) == _parse_outcome(_reference_parse, text)
    # Few random strings parse, so also join whole factors, good and bad.
    factors = [" f1", "f2 ", "f10", "f01", "f0", "f2^-3", "f5^+1", "f1^0", "f3^", "\tf7"]
    for _ in range(5_000):
        text = rng.choice(factors)
        for _ in range(rng.randrange(3)):
            text += rng.choice(["*", " * ", "\t*", " ", "**"]) + rng.choice(factors)
        assert _parse_outcome(parse_quotient, text) == _parse_outcome(_reference_parse, text)


def _counting(monkeypatch):
    """Wrap the series product and division; return the lists they append
    to: each series-by-series product's length, and each division's
    (length, work), work being the length times the divisor's nonzero
    terms within it.  A division on lanes counts once, with its packed
    length: ceil(N/g) positions by the reduced divisor."""
    real_mul, real_div = LaurentSeries.__mul__, LaurentSeries.__truediv__
    products, divisions = [], []

    def counting_mul(self, other):
        product = real_mul(self, other)
        if isinstance(other, LaurentSeries):
            products.append(len(product.coeffs))
        return product

    def counting_div(self, other):
        quotient = real_div(self, other)
        n = len(quotient.coeffs)
        divisions.append((n, n * (n - other.coeffs[:n].count(0))))
        return quotient

    monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
    monkeypatch.setattr(LaurentSeries, "__truediv__", counting_div)
    return products, divisions


def _cold_work(monkeypatch, factors, order):
    """The lengths of the series-by-series products and divisions made by
    a cold expansion of ``factors``, which must match the oracle."""
    products, divisions = _counting(monkeypatch)
    eta._expand_quotient_cached.cache_clear()
    try:
        assert expand_quotient(factors, order) == direct_eta_product(factors, order)
    finally:
        eta._expand_quotient_cached.cache_clear()
    return products, [n for n, _ in divisions]


def _full_length_work(monkeypatch, factors, order):
    """Products and divisions of ``order`` coefficients made by a cold
    expansion of ``factors``."""
    products, quotients = _cold_work(monkeypatch, factors, order)
    return products.count(order), quotients.count(order)


# EQ213's squared term: f1^2 f4^2 f10^6 / (f2^2 f5^6 f20^2), regrouped as
# theta(4, 1)^2 f10^2 / (theta(20, 5)^2 theta(10, 5)^2).
_EQ213_HEAVIEST = {1: 2, 2: -2, 4: 2, 5: -6, 10: 6, 20: -2}


def test_gcd_tree_multiplies_shared_factors_at_reduced_length(monkeypatch):
    # theta(4, 1)^2 has the smallest gcd and is peeled off first; the
    # rest, f10^2, is f1^2 at a tenth of the length.  So only theta(4,
    # 1)^2 and its product with the rest are taken at full length; factor
    # by factor it takes six.
    products, _ = _full_length_work(monkeypatch, _EQ213_HEAVIEST, 2000)
    assert products <= 3


def test_regrouped_quotient_multiplies_less_and_divides_by_sparser_series(monkeypatch):
    # f1^2 f4^2 / f2^2 is theta(4, 1)^2, f5^2 f20^2 / f10^2 is theta(20,
    # 5)^2, and the f5^-4 f10^4 left is theta(10, 5)^-2.  Three products
    # (theta(4, 1)^2, f1^2 at 200 terms and the join) and four divisions;
    # the plain factors took six products and ten divisions.  The join,
    # by f10^2 = f1^2 spread by 10, is now ten products of 200 terms, one
    # per residue class of theta(4, 1)^2 mod 10.  Both divisors are series
    # in q^5, so the four divisions now run on 400 packed positions.
    products, quotients = _cold_work(monkeypatch, _EQ213_HEAVIEST, 2000)
    assert (products, quotients) == ([2000, 200] + [200] * 10, [400] * 4)
    items = tuple(((3 * m, m), e) for m, e in sorted(_EQ213_HEAVIEST.items()))
    assert eta._regroup(items) == (((4, 1), 2), ((10, 5), -2), ((20, 5), -2), ((30, 10), 2))


def test_peeled_factor_serves_a_later_reduced_factor_from_its_prefix(monkeypatch):
    # f1^2 at 2000 terms comes first, so the rest's f4^2, which is f1^2
    # at 500 terms, is its cached prefix, not a fifth product.  The four:
    # f1^2 at 2000 terms, f10^6 as Jacobi's f1^3 squared at 200, the
    # rest's join at 1000 and the last product at 2000.  Each join now
    # multiplies residue classes: five of 200 terms (f2^2 at 1000 terms
    # mod 5 by f1^6 at 200) and two of 1000, the same 5200 coefficients.
    products, _ = _cold_work(monkeypatch, {1: 2, 4: 2, 10: 6}, 2000)
    assert products == [2000, 200] + [200] * 5 + [1000] * 2


def test_quotient_with_no_shared_gcd_is_multiplied_factor_by_factor(monkeypatch):
    # No g > 1 divides two of f1, f3, f7.  f1 f7^2 is one join (f7^2 is
    # f1^2 at ceil(order / 7), not a full-length product), and f3^-1 is
    # one division by theta(9, 3).  The join is now seven products of 100
    # terms, one per residue class of f1 mod 7, so none is full-length;
    # below order 7 each class is a one-term product.  theta(9, 3) is a
    # series in q^3, so its division now runs on 234 packed positions.
    factors = {1: 1, 3: -1, 7: 2}
    assert _cold_work(monkeypatch, factors, 700) == ([100] * 8, [234])
    for order in (1, 2, 6, 7, 8, 97):
        assert expand_quotient(factors, order) == direct_eta_product(factors, order)


# (g, quotient): f1 or f1^2 peeled off, and a rest f_g^e that is a series in q^g.
_PEELS = ((2, {1: 1, 2: 2}), (4, {1: 1, 4: 3}), (5, {1: 2, 5: 1}), (10, {1: 1, 10: 3}))


@pytest.mark.parametrize("g, factors", _PEELS, ids=[str(g) for g, _ in _PEELS])
def test_peel_off_multiplies_each_residue_class(g, factors, monkeypatch):
    # The head's residue classes mod g are multiplied one by one by the
    # rest's reduced window; below order g each class is one term.
    products, _ = _counting(monkeypatch)
    try:
        for order in sorted({1, g - 1, g, g + 1, 2 * g + 1, 3 * g - 1, 97} - {0}):
            eta._expand_quotient_cached.cache_clear()
            products.clear()
            assert expand_quotient(factors, order) == direct_eta_product(factors, order), order
            lengths = [-(-(order - r) // g) for r in range(g)] if order >= g else [1] * order
            assert products[-len(lengths):] == lengths, order
    finally:
        eta._expand_quotient_cached.cache_clear()


def test_peel_off_with_classes_one_position_off_fails(monkeypatch):
    # Negative control: each class product written to the next class.
    source = inspect.getsource(eta._expand_reduced)
    assert source.count("c[r::g] =") == 1
    namespace = dict(vars(eta))
    exec(source.replace("c[r::g] =", "c[(r + 1) % g::g] ="), namespace)
    monkeypatch.setattr(eta, "_expand_reduced", namespace["_expand_reduced"])
    eta._expand_quotient_cached.cache_clear()
    try:
        for g, factors in _PEELS:
            # A multiple of g, so every class has the same length.
            assert expand_quotient(factors, 10 * g) != direct_eta_product(factors, 10 * g)
    finally:
        eta._expand_quotient_cached.cache_clear()


def test_negative_factors_divide_whatever_the_other_signs(monkeypatch):
    # Each divisor is one division per unit of its power, with or without
    # a positive factor; f_m^-3 is one division by Jacobi's f_m^3, a
    # quotient of negative factors only divides 1, and f2^5 f1^-12 is
    # theta(2, 1)^-5 f1^-2.  f4^-2 is a series in q^4: its two divisions
    # by theta(12, 4) now run on 125 packed positions, first.
    assert _full_length_work(monkeypatch, {1: -3}, 500) == (0, 1)
    assert _cold_work(monkeypatch, {1: -3, 4: -2}, 500) == ([], [125, 125, 500])
    assert _full_length_work(monkeypatch, {1: -12, 2: 5}, 500) == (0, 7)


# Reduced divisors ((p, a), e) that divide on lanes as ((g p, g a), e):
# theta(2m, m), theta(4m, m), theta(3m, m) = f_m, Jacobi's cube, a power
# with a cube and a rest, and mixed lists that share one pack.
_LANE_DIVISORS = (
    (((2, 1), -1),), (((4, 1), -2),), (((3, 1), -1),), (((3, 1), -3),), (((3, 1), -7),),
    (((2, 1), -1), ((4, 1), -1), ((3, 1), -4)), (((3, 1), -2), ((5, 2), -1), ((2, 1), -2)),
)


def _full_length_series(divisors, order):
    """Each divisor's (sparse series, count) on ``order`` terms, rebuilt from
    ``eta._theta`` and ``eta._cube``: a plain factor f_m = theta(3m, m) to
    a power |e| >= 3 is |e| // 3 cubes and |e| mod 3 thetas, any other
    divisor |e| thetas."""
    series = []
    for (p, a), e in divisors:
        cubes = abs(e) // 3 if p == 3 * a else 0
        series += [(eta._cube(a, order), cubes), (eta._theta(p, a, order), abs(e) - 3 * cubes)]
    return [(s, count) for s, count in series if count]


def _divide_directly(window, series):
    """``window`` divided count times by each (series, count), no lanes."""
    for divisor, count in series:
        for _ in range(count):
            window = window / divisor
    return window


def _work(series, order):
    """count * order * nonzero terms, summed over (series, count) pairs."""
    return sum(count * order * (len(s.coeffs) - s.coeffs.count(0)) for s, count in series)


@pytest.mark.parametrize("g", (2, 4, 5, 10))
def test_lane_division_equals_the_plain_recurrence(g):
    # Windows below, at and past g terms, and with a tail of N mod g padded;
    # numerators of +-1, of mixed sign up to 2**62 and up to 2**100, and
    # at both 8-byte edges.  The plan sends these divisors to one lane step;
    # the plain divisions run each full-length theta through series._quotient.
    rng = random.Random(g)
    for reduced in _LANE_DIVISORS:
        divisors = [((g * p, g * a), e) for (p, a), e in reduced]
        for order in sorted({1, max(g - 1, 1), g, g + 1, 3 * g + 2, 97}):
            plan = eta._division_plan(divisors, order)
            assert [step[0] for step in plan] == [g]
            for top in (1, 1 << 62, 1 << 100, None):
                window = LaurentSeries(0, tuple(
                    rng.choice((-(1 << 63), (1 << 63) - 1)) if top is None
                    else rng.randint(-top, top) for _ in range(order)))
                plain = _divide_directly(window, _full_length_series(divisors, order))
                assert eta._divide(window, plan) == plain, (reduced, order)


def test_lane_width_counts_theta_2m_m_twice():
    # 1/theta(2, 1)^e = (f2 / f1^2)^e outgrows the width of e units on
    # 1000 positions, so theta(2m, m) counts two units per power.
    for e in (1, 3):
        one = LaurentSeries.one(2000)
        plain = _divide_directly(one, _full_length_series([((4, 2), -e)], 2000))
        widest = max(map(abs, plain.coeffs)).bit_length()
        assert widest > 8 * eta._lane_width(1, e, 1000) - 1
        plan = eta._division_plan([((4, 2), -e)], 2000)
        assert [step[:2] for step in plan] == [(2, 2 * e)]
        assert eta._divide(one, plan) == plain


def test_lane_division_takes_a_numerator_wider_than_8_bytes(monkeypatch):
    # f1^30 has 76-bit coefficients at order 1999, and f5^-9 f10^-4 divide
    # it on 400 packed positions: three times by f1^3, once by f2^3 and
    # once by theta(6, 2).  While lanes stopped at 8 bytes, these were
    # five divisions at full length.
    factors = {1: 30, 5: -9, 10: -4}
    assert max(map(abs, expand_quotient({1: 30}, 1999).coeffs)).bit_length() == 76
    assert _cold_work(monkeypatch, factors, 1999)[1] == [400] * 5


_LANE_QUOTIENTS = ((5, {1: 1, 5: -1, 10: -1}), (5, {1: 3, 5: -2, 10: -3}),
                   (5, {1: -4, 5: -1, 10: -2}), (10, {1: 2, 10: -4}),
                   (2, {1: -1, 2: -3}), (4, {1: 1, 4: -2}))


@pytest.mark.parametrize("g, factors", _LANE_QUOTIENTS,
                         ids=[str(factors) for _, factors in _LANE_QUOTIENTS])
def test_lane_divisions_agree_with_the_oracle(g, factors):
    try:
        for order in (g - 1, g, g + 1, 97, 2003):
            eta._expand_quotient_cached.cache_clear()
            assert expand_quotient(factors, order) == direct_eta_product(factors, order), order
    finally:
        eta._expand_quotient_cached.cache_clear()


def _recording_plans(monkeypatch):
    """Wrap ``eta._division_plan``; return the list of each call's
    (divisors, order, plan)."""
    real, plans = eta._division_plan, []

    def recording(divisors, order):
        plans.append((divisors, order, real(divisors, order)))
        return plans[-1][2]

    monkeypatch.setattr(eta, "_division_plan", recording)
    return plans


def test_divisors_with_gcds_that_share_no_g_divide_at_full_length(monkeypatch):
    # f2^-1 f5^-1 divides by theta(6, 2) and theta(15, 5), whose gcds 2 and
    # 5 share no g > 1.  f2 f6^-1 f20^-1 is a series in q^2, and its reduced
    # divisors theta(9, 3) and theta(30, 10) share none either.  So each
    # plan is one step at g = 1, two divisions at full length, no lanes.
    # The cold expansion at order 2000 is checked against the oracle too.
    plans = _recording_plans(monkeypatch)
    try:
        for factors, order, thetas in (({2: -1, 5: -1}, 2000, ((6, 2), (15, 5))),
                                       ({2: 1, 6: -1, 20: -1}, 1000, ((9, 3), (30, 10)))):
            plans.clear()
            assert _cold_work(monkeypatch, factors, 2000)[1] == [order, order]
            [(_, n, plan)] = plans
            assert n == order
            assert [(g, series) for g, _, series in plan] == [
                (1, [(eta._theta(p, a, order), 1) for p, a in thetas])]
            for n in (1, 2, 9, 10, 11, 97):
                eta._expand_quotient_cached.cache_clear()
                assert expand_quotient(factors, n) == direct_eta_product(factors, n), (factors, n)
    finally:
        eta._expand_quotient_cached.cache_clear()


def test_lane_width_bounds_the_partitions_into_units_colours():
    # The coefficients of 1/(q; q)^E from the oracle, for E = 1..6: every
    # norm times each of the first n of them fits the width for n terms.
    for units in range(1, 7):
        counts = direct_eta_product({1: -units}, 600).coeffs
        widest = 0
        for n in range(1, 601):
            widest = max(widest, counts[n - 1])
            for norm in (1, 7, 1 << 40):
                assert norm * widest < 1 << 8 * eta._lane_width(norm, units, n) - 1


@pytest.mark.parametrize("factors, order, bits, outcome", (
    (_EQ213_HEAVIEST, 1000, 84, OverflowError), ({1: -2, 2: 4, 5: 2, 10: -4}, 2000, 76, None)))
def test_lanes_one_byte_too_narrow_go_wrong(factors, order, bits, outcome, monkeypatch):
    # Negative control.  The widest lane quotients of `verify all --order
    # 2000`: EQ213's heaviest quotient at order 1000 (84-bit coefficients,
    # 11 bytes with the sign) and f1^-2 f2^4 f5^2 f10^-4 (76 bits, 10
    # bytes).  One byte narrower, the first's top lane carries out of its
    # position, which no longer fits, and a lower lane of the second
    # carries into its neighbour: its window is wrong.
    read_back = []
    real = eta._unlanes

    def recording(positions, g, w):
        values = real(positions, g, w)
        read_back.append(max(abs(x).bit_length() for x in values))
        return values

    monkeypatch.setattr(eta, "_unlanes", recording)
    eta._expand_quotient_cached.cache_clear()
    try:
        expand_quotient(factors, order)
        assert max(read_back) == bits
        monkeypatch.setattr(eta, "_lane_width", lambda *args: bits // 8)
        eta._expand_quotient_cached.cache_clear()
        if outcome is None:
            assert expand_quotient(factors, order) != direct_eta_product(factors, order)
        else:
            with pytest.raises(outcome):
                expand_quotient(factors, order)
    finally:
        eta._expand_quotient_cached.cache_clear()


class _Dividing(Exception):
    """Raised in place of the divisions, with their plan: its work passed under the cap."""


@pytest.fixture
def plan_only(monkeypatch):
    """Stop each expansion with a negative factor right after its division
    plan; yield the list of each plan's (divisors, order)."""
    plan, calls = eta._division_plan, []

    def planned(divisors, order):
        calls.append((divisors, order))
        raise _Dividing(plan(divisors, order))

    monkeypatch.setattr(eta, "_division_plan", planned)
    eta._expand_quotient_cached.cache_clear()
    yield calls
    eta._expand_quotient_cached.cache_clear()


# Each division takes N times its series' nonzero terms below q^N.
# f2^6 f1^-23 f5^-2 is theta(2, 1)^-6 f1^-11 f5^-2: six divisions by theta(2,
# 1), three by Jacobi's f1^3, two by theta(3, 1) and two by theta(15, 5),
# 2078 nonzero terms in all, so 39,999,422 term operations at N = 19249 and
# 40,001,500 at N = 19250.  f2^2 f1^-24 f10^-4 is theta(2, 1)^-2 f1^-20
# f10^-4: two divisions by theta(2, 1), six by f1^3, two by theta(3, 1),
# one by f10^3 and one by theta(30, 10), 2052 terms, so 39,999,636 at N =
# 19493 and 40,001,688 at 19494.
_CAP_CASES = (({1: -23, 2: 6, 5: -2}, 19249, None),
              ({1: -23, 2: 6, 5: -2}, 19250, "13 divisions by sparse series on 19250 terms "
                                             "need 40001500 term operations"),
              ({1: -24, 2: 2, 10: -4}, 19493, None),
              ({1: -24, 2: 2, 10: -4}, 19494, "12 divisions by sparse series on 19494 terms "
                                              "need 40001688 term operations"))


@pytest.mark.parametrize("factors, order, refusal", _CAP_CASES,
                         ids=[f"{order}-{refusal is not None}" for _, order, refusal in _CAP_CASES])
def test_division_work_cap_boundary(factors, order, refusal, plan_only):
    with pytest.raises(_Dividing if refusal is None else eta.DivisionTooLarge) as exc:
        expand_quotient(factors, order)
    if refusal is not None:
        assert str(exc.value) == f"{refusal}, above the cap of 40000000"


def test_large_negative_powers_plan_under_the_division_cap(plan_only):
    # Twenty divisions by theta(3, 1) on 11429 terms passed the cap; six
    # by f1^3 and two by theta(3, 1) plan 14,354,824 term operations.
    # So does f1^-100 on 3922 terms: 33 divisions by f1^3 and one by theta.
    for factors, order in (({1: -20}, 11429), ({1: -100}, 3922)):
        with pytest.raises(_Dividing):
            expand_quotient(factors, order)


def test_battery_quotients_plan_under_the_division_cap(plan_only):
    # At the CLI's largest order: EQ213's heaviest quotient (6.1M term
    # operations, the most of `verify all --kmax 8`), and the targets.
    for factors in ({1: 2, 2: -2, 4: 2, 5: -6, 10: 6, 20: -2}, TARGETS["M"], TARGETS["TSTAR"]):
        with pytest.raises(_Dividing):
            expand_quotient(factors, MAX_ORDER)


def test_cold_battery_plan_counts(monkeypatch, capsys):
    # The plain factors took 71 products, 56 divisions and 3,280,920
    # division term operations here, and 59, 26 and 1,209,920 while the
    # k(q) identities were multiplied by k's window rather than cleared.
    # Squaring EQ22's rhs as a series took 66, 24 and 1,050,000, and
    # clearing k's sides apart from the term-list evaluator 64, 26 and
    # 1,052,000.  Joins by a series in q^g multiplied once, 62 products of
    # 90,693 coefficients; one product per residue class of the peeled
    # factor makes them 206 products of the same 90,693 coefficients.
    # Dividing by a series in q^g on ceil(N/g) packed positions keeps the
    # 26 divisions (20 of them on lanes) and cuts their work to 573,600.
    products, divisions = _counting(monkeypatch)
    eta._expand_quotient_cached.cache_clear()
    try:
        assert main(["verify", "all", "--order", "2000", "--kmax", "8"]) == 0
    finally:
        eta._expand_quotient_cached.cache_clear()
    capsys.readouterr()
    assert (len(products), sum(products), len(divisions), sum(w for _, w in divisions)) == (
        206, 90_693, 26, 573_600)


# (products, multiplied coefficients, division work) of each catalog
# quotient's cold expansion at order 2000, from the expander that divided
# and multiplied by plain factors f_m = theta(3m, m) only.  The product
# counts are history: a join by a series in q^g is now g products of
# about N/g terms, so only the coefficients and the work are compared.
_PLAIN_FACTOR_WORK = {
    ((1, -2), (2, 4), (5, 2), (10, -4)): (4, 4400, 476000),
    ((1, -1), (2, 3), (4, -1)): (2, 2000, 220000),
    ((1, -1), (2, 5), (5, 5), (10, -1)): (4, 5000, 192000),
    ((1, 1), (2, 1), (5, 3), (10, 3)): (5, 5200, 0),
    ((1, 1), (2, 1), (5, 5)): (5, 5200, 0),
    ((1, 1), (5, -1)): (0, 0, 66000),
    ((1, 1), (5, 3)): (3, 2800, 0),
    ((1, 1), (10, 5)): (4, 2600, 0),
    ((1, 2), (2, -2), (4, 2), (5, -6), (10, 6), (20, -2)): (6, 5600, 664000),
    ((1, 2), (2, 1), (5, -2), (10, 3)): (5, 5400, 132000),
    ((1, 2), (10, 4)): (4, 4400, 0),
    ((1, 2), (10, 5)): (5, 4600, 0),
    ((1, 3), (2, -1), (5, 1), (10, -3)): (3, 6000, 240000),
    ((1, 3), (5, 1)): (3, 6000, 0),
    ((1, 4), (5, 4)): (3, 6000, 0),
    ((1, 5), (2, -1), (5, -1), (10, 5)): (4, 8000, 168000),
    ((1, 5), (5, -1)): (3, 6000, 66000),
    ((2, -1), (4, 4), (8, -2), (10, 1), (40, 2)): (5, 2250, 103000),
    ((2, 1), (4, -2), (8, 2), (10, -1), (20, 6), (40, -2)): (6, 2050, 119000),
    ((2, 1), (4, -1), (8, 1), (10, -3), (20, 3), (40, -1)): (4, 1700, 117000),
    ((2, 1), (4, 1), (10, -5), (20, 3)): (4, 1700, 115000),
    ((2, 1), (5, 5)): (4, 3200, 0),
    ((2, 1), (10, 3)): (3, 1400, 0),
    ((2, 2), (4, -2), (8, 2), (10, -6), (20, 6), (40, -2)): (6, 2800, 234000),
    ((2, 3), (10, 1)): (3, 3000, 0),
    ((2, 4), (4, -2), (5, -4), (20, 2)): (4, 3100, 412000),
    ((2, 4), (5, 2)): (4, 4400, 0),
    ((2, 4), (5, 2), (10, 1)): (5, 4800, 0),
    ((2, 4), (10, 4)): (3, 3000, 0),
    ((2, 5), (10, -1)): (3, 3000, 23000),
    ((4, 1), (20, 3)): (3, 700, 0),
    ((4, 2), (8, -1), (10, -2), (40, 1)): (2, 1000, 72000),
    ((4, 4), (8, -2), (10, -4), (40, 2)): (4, 1550, 144000),
}


def test_no_catalog_quotient_does_more_work_than_with_plain_factors(monkeypatch, capsys):
    seen = set()

    def recording(factors, order, real=identities.expand_quotient):
        seen.add(tuple(sorted(factors.items())))
        return real(factors, order)

    monkeypatch.setattr(identities, "expand_quotient", recording)
    main(["verify", "all", "--order", "500", "--kmax", "8"])
    capsys.readouterr()
    assert seen == set(_PLAIN_FACTOR_WORK)
    products, divisions = _counting(monkeypatch)
    try:
        for factors, before in sorted(_PLAIN_FACTOR_WORK.items()):
            eta._expand_quotient_cached.cache_clear()
            products.clear()
            divisions.clear()
            expand_quotient(dict(factors), 2000)
            after = (sum(products), sum(w for _, w in divisions))
            assert all(map(int.__le__, after, before[1:])), (factors, after, before)
    finally:
        eta._expand_quotient_cached.cache_clear()


def _planned(plan, order):
    """The division lengths a plan on [0, order) runs, ceil(order/g) for
    each division of a step at g, and its work counted at full length."""
    lengths = [-(-order // g) for g, _, series in plan for _, count in series for _ in range(count)]
    return lengths, sum(_work(series, order) for _, _, series in plan)


def test_each_plan_is_what_runs_and_what_the_cap_counts(monkeypatch):
    # A cold expansion of each catalog quotient plans at most once, its
    # divisions run at the planned lengths, and the plan's work, though
    # lane steps hold reduced series on ceil(N/g) terms, is the full-length
    # count of series rebuilt on N terms.
    plans = _recording_plans(monkeypatch)
    _, divisions = _counting(monkeypatch)
    try:
        for factors in _PLAIN_FACTOR_WORK:
            for order in (16, 500, 2000):
                eta._expand_quotient_cached.cache_clear()
                plans.clear()
                divisions.clear()
                expand_quotient(dict(factors), order)
                assert len(plans) <= 1, (factors, order)
                lengths, work = _planned(plans[0][2], plans[0][1]) if plans else ([], 0)
                assert [n for n, _ in divisions] == lengths, (factors, order)
                if plans:
                    divisors, n, _ = plans[0]
                    assert work == _work(_full_length_series(divisors, n), n), (factors, order)
    finally:
        eta._expand_quotient_cached.cache_clear()


@pytest.mark.parametrize("factors, order, refusal", _CAP_CASES,
                         ids=[f"{order}-{refusal is not None}" for _, order, refusal in _CAP_CASES])
def test_the_cap_counts_the_plan_at_full_length(factors, order, refusal, plan_only):
    # Lane steps hold reduced series, yet the plan under the cap and the
    # refusal above it count the work of the series rebuilt on N terms.
    with pytest.raises((_Dividing, eta.DivisionTooLarge)) as exc:
        expand_quotient(factors, order)
    [(divisors, n)] = plan_only
    work = _work(_full_length_series(divisors, n), n)
    if refusal is None:
        [plan] = exc.value.args
        assert any(g > 1 for g, _, _ in plan)
        assert _planned(plan, n)[1] == work
    else:
        assert f"need {work} term operations" in str(exc.value)
