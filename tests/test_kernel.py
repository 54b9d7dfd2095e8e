"""The decimal Kronecker-substitution product and the slice-based add and
compare.

Every case is checked against a reference written here, one exponent at
a time, with seeded random operands.  One test checks the product end to
end against the oracle's Euler-series product, which shares no algorithm
with the kernel.  The kernel's tests also run in CI under
``python -X int_max_str_digits=640``, the lowest int <-> str limit
CPython accepts.
"""

from __future__ import annotations

import decimal
import math
import random
import sys

import pytest

from etaq import series
from etaq.cli import MAX_ORDER
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
    # n * max|a| * max|b| = ||a||_1 * max|b| in absolute value: the bound
    # the width is chosen for.
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


def composition(total: int, parts: int, rng: random.Random) -> tuple[int, ...]:
    """``parts`` positive integers summing to ``total``, in seeded order."""
    cuts = set()
    while len(cuts) < parts - 1:
        cuts.add(rng.randrange(1, total))
    cuts = sorted(cuts)
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, total]))


@pytest.mark.parametrize("d", (1, 2, 3, 17, 18, 40))
@pytest.mark.parametrize("twice_bound", ("below", "at"))
def test_product_at_a_power_of_ten_width_step(d, twice_bound):
    # ||a||_1 = B, b all +-1: the last coefficient is exactly +-B, the
    # bound the width is chosen for.  2B = 10**d - 2 still fits d digits;
    # 2B = 10**d needs d + 1.  With b all -1 every product coefficient is
    # negative, the upper half included.
    bound = 10 ** d // 2 - (twice_bound == "below")
    assert series._digit_count(2 * bound) == d + (twice_bound == "at")
    rng = random.Random(d)
    for n in (1, 2, 3, 9):
        if bound < n:
            continue
        a = LaurentSeries(0, composition(bound, n, rng))
        for sign in (1, -1):
            b = LaurentSeries(-1, (sign,) * n)
            product = a * b
            assert product.coeffs[-1] == sign * bound
            assert product == schoolbook(a, b)
        assert a * a == schoolbook(a, a)


def test_digit_count_is_the_smallest_width():
    for t in range(0, 2000):
        assert series._digit_count(t) == max(1, len(str(t)))
    for d in range(1, 60):
        assert series._digit_count(10 ** d - 1) == d
        assert series._digit_count(10 ** d) == d + 1


@pytest.mark.parametrize("d", (1, 2, 17, 640, 641))
@pytest.mark.parametrize("n", (1, 2, 3, 1000))
def test_bias_equals_its_digit_string(n, d):
    # The bias is built by doubling; the string form is its definition.
    bias = series._bias(n, d)
    expected = decimal.Decimal(("5" + "0" * (d - 1)) * n)
    assert bias == expected
    assert bias.as_tuple() == expected.as_tuple()


def test_product_with_negative_upper_half():
    # Positive low coefficients and a negative upper half: the unpacked sum
    # is positive only because of the 10**(2nd) offset.
    rng = random.Random(11)
    for n in (1, 2, 5, 40):
        a = LaurentSeries(0, tuple(rng.randint(1, 9) for _ in range(n)))
        b = LaurentSeries(0, (1,) + tuple(-rng.randint(50, 99) for _ in range(n - 1)))
        assert a * b == schoolbook(a, b)
        assert b * b == schoolbook(b, b)


def test_product_past_the_int_string_limit():
    # 5001-digit coefficients: past CPython's default limit of 4300 digits
    # for int <-> str conversions.  1001-digit ones are within it but past
    # the lowest limit, 640, which CI sets for this file.
    big = 10 ** 5001
    rng = random.Random(13)
    cases = [LaurentSeries(0, (1, 1 << 15000, -3)),
             LaurentSeries(2, (big - 7, -big + 1)),
             LaurentSeries(-1, tuple(rng.randint(-big, big) for _ in range(6))),
             LaurentSeries(0, (10 ** 1000, -1, 3 - 10 ** 1000))]
    for a in cases:
        for b in cases:
            assert a * b == schoolbook(a, b)
        assert a * a == schoolbook(a, a)


class _Packing(Exception):
    """Raised in place of packing: the product passed its size check."""


@pytest.mark.parametrize("extra, refused", ((0, False), (1, True)))
def test_packed_digit_cap_boundary(extra, refused, monkeypatch):
    # Two MAX_ORDER-term windows at the widest digit group the cap admits,
    # and one digit wider; the refusal comes before any string is built.
    def packing(n, d):
        raise _Packing(n * d)

    monkeypatch.setattr(series, "_bias", packing)
    assert series._MAX_PACKED_DIGITS % MAX_ORDER == 0
    width = series._MAX_PACKED_DIGITS // MAX_ORDER + extra
    x = math.isqrt(10 ** (width - 1) // 2) + 1  # the smallest x with 2 x^2 of `width` digits
    assert series._digit_count(2 * x * x) == width
    window = LaurentSeries(0, (x,) + (0,) * (MAX_ORDER - 1))
    with pytest.raises(series.ProductTooLarge if refused else _Packing):
        window * window


def test_product_leaves_the_decimal_context_and_int_limit_alone():
    context = decimal.getcontext()
    before = (context.prec, context.Emax, context.Emin, context.rounding,
              dict(context.traps), dict(context.flags))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    a = LaurentSeries(0, (1 << 15000, -3, 7) * 30)
    assert a * a == schoolbook(a, a)
    assert decimal.getcontext() is context
    assert (context.prec, context.Emax, context.Emin, context.rounding,
            dict(context.traps), dict(context.flags)) == before
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_decimal_is_the_c_implementation():
    # The kernel's speed rests on libmpdec; _pydecimal would be exact but
    # orders of magnitude slower.
    import _decimal

    assert decimal.Decimal is _decimal.Decimal


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
