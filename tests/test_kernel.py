"""The Kronecker-substitution product and the slice-based add and compare.

Every case is checked against a reference written here, one exponent at
a time, with seeded random operands.  The last test checks the product
end to end against the oracle's literal factor products, which share no
algorithm with the kernel.
"""

from __future__ import annotations

import random

import pytest

from etaq.eta import expand_quotient
from etaq.oracle import direct_eta_product
from etaq.series import FAIL, INSUFFICIENT, PASS, EmptyWindow, LaurentSeries, compare


def schoolbook(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    n = min(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return LaurentSeries(a.offset + b.offset, tuple(out))


def random_series(rng: random.Random, length: int, bits: int) -> LaurentSeries:
    bound = 1 << bits
    return LaurentSeries(rng.randint(-7, 7),
                         tuple(rng.randint(-bound, bound) for _ in range(length)))


@pytest.mark.parametrize("seed", range(4))
def test_product_matches_schoolbook_on_random_windows(seed):
    # Offsets of both signs, unequal lengths, and mixed coefficient sizes.
    rng = random.Random(seed)
    for _ in range(150):
        bits = rng.choice((1, 4, 31, 64, 130))
        a = random_series(rng, rng.randint(1, 60), bits)
        b = random_series(rng, rng.randint(1, 60), rng.choice((1, bits)))
        assert a * b == schoolbook(a, b)
        assert b * a == schoolbook(b, a)


def test_product_length_one_windows():
    assert LaurentSeries(-3, (7,)) * LaurentSeries(5, (-6,)) == LaurentSeries(2, (-42,))
    long = LaurentSeries(0, (2, 3, 4))
    assert long * LaurentSeries(1, (-1,)) == LaurentSeries(1, (-2,))
    big = (1 << 200) - 3
    assert LaurentSeries(0, (big,)) * LaurentSeries(0, (-big,)) == LaurentSeries(0, (-big * big,))


def test_product_with_all_zero_operand():
    rng = random.Random(5)
    a = random_series(rng, 40, 200)
    zero = LaurentSeries(2, (0,) * 25)
    assert a * zero == LaurentSeries(a.offset + 2, (0,) * 25)
    assert zero * a == LaurentSeries(a.offset + 2, (0,) * 25)
    assert zero * zero == LaurentSeries(4, (0,) * 25)


def test_product_borrows_across_digits():
    # Coefficients near +-2**200 with mixed signs: every digit of the
    # packed operands and of the product is negative somewhere, so digits
    # borrow from their neighbours when packed and when read back.
    rng = random.Random(7)
    top = 1 << 200
    for _ in range(40):
        a = LaurentSeries(rng.randint(-3, 3), tuple(
            rng.choice((1, -1)) * (top - rng.randint(0, 1 << 20)) for _ in range(rng.randint(1, 30))))
        b = LaurentSeries(rng.randint(-3, 3), tuple(
            rng.choice((1, -1)) * (top - rng.randint(0, 1 << 20)) for _ in range(rng.randint(1, 30))))
        assert a * b == schoolbook(a, b)
        assert a * a == schoolbook(a, a)


@pytest.mark.parametrize("bits", (1, 7, 8, 63, 64, 200))
def test_product_reaches_the_digit_width_bound(bits):
    # With every coefficient +-max the last product coefficient is exactly
    # n * max|a| * max|b| in absolute value: the bound the width is chosen for.
    top = (1 << bits) - 1
    for n in (1, 2, 16, 255, 256):
        a = LaurentSeries(0, (top,) * n)
        b = LaurentSeries(0, (-top,) * n)
        assert (a * b).coeffs[-1] == -n * top * top
        assert (a * a).coeffs[-1] == n * top * top
        assert a * b == schoolbook(a, b)
        assert b * b == schoolbook(b, b)
        alternating = LaurentSeries(0, tuple(top if i % 2 else -top for i in range(n)))
        assert alternating * alternating == schoolbook(alternating, alternating)


def test_product_matches_literal_factor_products():
    factors = {1: 4, 2: 4, 5: 4, 10: 4}
    assert expand_quotient(factors, 2000) == direct_eta_product(factors, 2000)


def reference_sum(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    lo, hi = min(a.offset, b.offset), min(a.prec, b.prec)
    return LaurentSeries(lo, tuple(a[e] + b[e] for e in range(lo, hi)))


def test_add_and_sub_match_per_exponent_reference():
    rng = random.Random(3)
    for _ in range(400):
        a = random_series(rng, rng.randint(1, 20), 40)
        b = random_series(rng, rng.randint(1, 20), 40)
        if min(a.prec, b.prec) <= min(a.offset, b.offset):
            with pytest.raises(EmptyWindow):
                a + b
            continue
        assert a + b == reference_sum(a, b)
        assert a - b == reference_sum(a, -b)


def test_add_when_one_window_starts_above_the_sum():
    low = LaurentSeries(0, (1, 2, 3))
    high = LaurentSeries(5, (9, 9, 9))  # exact zeros on [0, 3)
    assert low + high == LaurentSeries(0, (1, 2, 3))
    assert high + low == LaurentSeries(0, (1, 2, 3))


def reference_compare(a: LaurentSeries, b: LaurentSeries, min_overlap: int):
    lo, hi = max(a.offset, b.offset), min(a.prec, b.prec)
    overlap = max(hi - lo, 0)
    if overlap < min_overlap or overlap == 0:
        return INSUFFICIENT, lo, hi - 1, overlap, None
    for e in range(lo, hi):
        if a[e] != b[e]:
            return FAIL, lo, hi - 1, overlap, (e, a[e], b[e])
    return PASS, lo, hi - 1, overlap, None


def test_compare_matches_per_exponent_reference():
    rng = random.Random(9)
    for _ in range(400):
        a = random_series(rng, rng.randint(1, 20), 2)
        coeffs = list(a.coeffs)
        if rng.random() < 0.7:
            coeffs[rng.randrange(len(coeffs))] += rng.choice((1, -1))
        b = LaurentSeries(a.offset + rng.randint(-4, 4), tuple(coeffs[:rng.randint(1, len(coeffs))]))
        min_overlap = rng.randint(0, 8)
        outcome = compare(a, b, min_overlap=min_overlap)
        assert (outcome.status, outcome.lo, outcome.hi, outcome.overlap,
                outcome.witness) == reference_compare(a, b, min_overlap)
