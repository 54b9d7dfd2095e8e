"""The Kronecker-substitution product in both radixes, and the
slice-based add and compare.

The product runs in binary (CPython ints, w-byte groups) when its packed
operand fits ``series._BINARY_BYTES``, and in decimal (libmpdec, d-digit
groups) otherwise.  Each product case runs on both paths: with the cut
monkeypatched to 0 every product is decimal, and with a cut above every
test size every product is binary.  Further cases pin the boundaries between the
paths: the sign bit of each byte width and the cut itself.  Every case
is checked against a reference written here, one exponent at a time,
with seeded random operands.  One test checks the product end to end
against the oracle's Euler-series product, which shares no algorithm
with the kernel, on both sides of the cut.  The low half of a binary
product comes from Mulders' short product (``series._low_product``),
checked against x * y mod 2**bits on both sides of its own cut.  The
products through the right-operand memo (``series._right_operand``) are
checked the same way,
with a planted entry as the negative control, and the division
recurrence, whose near terms run through one function made per divisor
(``series._near_solver``), against the plain recurrence.  The kernel's
tests also run in CI under ``python -X int_max_str_digits=640``, the
lowest int <-> str limit CPython accepts.
"""

from __future__ import annotations

import decimal
import math
import random
import struct
import sys
from types import SimpleNamespace

import pytest

from etaq import eta, series
from etaq.cli import MAX_ORDER
from etaq.eta import expand_quotient
from etaq.oracle import direct_eta_product
from etaq.series import FAIL, INSUFFICIENT, PASS, EmptyWindow, LaurentSeries, compare


def schoolbook(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    n = min(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i in range(n):
        if a.coeffs[i]:
            for j in range(n - i):
                out[i + j] += a.coeffs[i] * b.coeffs[j]
    return LaurentSeries(a.offset + b.offset, tuple(out))


# The binary cut for each radix: 0 sends every product to decimal, and a
# cut above every size in this file sends every product to binary.
CUTS = {"decimal": 0, "binary": 1 << 40}


def on_both_radixes(monkeypatch):
    """Yield each radix name with the binary cut set for it."""
    for radix, cut in CUTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(series, "_BINARY_BYTES", cut)
            yield radix


@pytest.fixture
def paths(monkeypatch):
    """The (radix, n, group width) of every product, in order."""
    taken = []
    binary, decimal_ = series._binary_product, series._decimal_product

    def binary_product(a, b, w):
        taken.append(("binary", len(a), w))
        return binary(a, b, w)

    def decimal_product(a, b, d):
        taken.append(("decimal", len(a), d))
        return decimal_(a, b, d)

    monkeypatch.setattr(series, "_binary_product", binary_product)
    monkeypatch.setattr(series, "_decimal_product", decimal_product)
    return taken


def random_series(rng: random.Random, length: int, bits: int) -> LaurentSeries:
    bound = 1 << bits
    return LaurentSeries(rng.randint(-7, 7),
                         tuple(rng.randint(-bound, bound) for _ in range(length)))


@pytest.mark.parametrize("seed", range(4))
def test_product_matches_schoolbook_on_random_windows(seed, monkeypatch, paths):
    # Offsets of both signs, unequal lengths, and mixed coefficient sizes.
    for radix in on_both_radixes(monkeypatch):
        paths.clear()
        check_random_windows(random.Random(seed))
        # 64- and 130-bit coefficients need groups wider than 8 bytes, which
        # are binary groups too.
        assert {path for path, _, _ in paths} == {radix}


def check_random_windows(rng: random.Random) -> None:
    for _ in range(150):
        bits = rng.choice((1, 4, 31, 64, 130))
        a = random_series(rng, rng.randint(1, 60), bits)
        b = random_series(rng, rng.randint(1, 60), rng.choice((1, bits)))
        assert a * b == schoolbook(a, b)
        assert b * a == schoolbook(b, a)


def test_product_length_one_windows(monkeypatch):
    for _ in on_both_radixes(monkeypatch):
        assert LaurentSeries(-3, (7,)) * LaurentSeries(5, (-6,)) == LaurentSeries(2, (-42,))
        long = LaurentSeries(0, (2, 3, 4))
        assert long * LaurentSeries(1, (-1,)) == LaurentSeries(1, (-2,))
        big = (1 << 200) - 3
        assert LaurentSeries(0, (big,)) * LaurentSeries(0, (-big,)) == LaurentSeries(0, (-big * big,))


def test_product_with_all_zero_operand(monkeypatch):
    rng = random.Random(5)
    zero = LaurentSeries(2, (0,) * 25)
    for _ in on_both_radixes(monkeypatch):
        for bits in (200, 4):
            a = random_series(rng, 40, bits)
            assert a * zero == LaurentSeries(a.offset + 2, (0,) * 25)
            assert zero * a == LaurentSeries(a.offset + 2, (0,) * 25)
        assert zero * zero == LaurentSeries(4, (0,) * 25)


def test_product_borrows_across_digits(monkeypatch):
    # Coefficients near +-2**200 (decimal groups) and near +-2**24 (8-byte
    # groups) with mixed signs: every group of the packed operands and of
    # the product is negative somewhere, so groups borrow from their
    # neighbours when packed and when read back.
    for _ in on_both_radixes(monkeypatch):
        rng = random.Random(7)
        for top in (1 << 200, 1 << 24):
            for _ in range(40):
                a = LaurentSeries(rng.randint(-3, 3), tuple(
                    rng.choice((1, -1)) * (top - rng.randint(0, 1 << 20))
                    for _ in range(rng.randint(1, 30))))
                b = LaurentSeries(rng.randint(-3, 3), tuple(
                    rng.choice((1, -1)) * (top - rng.randint(0, 1 << 20))
                    for _ in range(rng.randint(1, 30))))
                assert a * b == schoolbook(a, b)
                assert a * a == schoolbook(a, a)


@pytest.mark.parametrize("bits", (1, 7, 8, 63, 64, 200))
def test_product_reaches_the_digit_width_bound(bits, monkeypatch):
    # With every coefficient +-max the last product coefficient is exactly
    # n * max|a| * max|b| = ||a||_1 * max|b| in absolute value: the bound
    # the width is chosen for.
    top = (1 << bits) - 1
    for _ in on_both_radixes(monkeypatch):
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
def test_product_at_a_power_of_ten_width_step(d, twice_bound, monkeypatch):
    # ||a||_1 = B, b all +-1: the last coefficient is exactly +-B, the
    # bound the width is chosen for.  2B = 10**d - 2 still fits d digits;
    # 2B = 10**d needs d + 1.  With b all -1 every product coefficient is
    # negative, the upper half included.
    bound = 10 ** d // 2 - (twice_bound == "below")
    assert series._digit_count(2 * bound) == d + (twice_bound == "at")
    for _ in on_both_radixes(monkeypatch):
        check_bound_reached(bound, random.Random(d))


def check_bound_reached(bound: int, rng: random.Random) -> None:
    """Products whose kernel bound is exactly ``bound`` and whose last
    coefficient reaches it, with either sign."""
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


@pytest.mark.parametrize("w", range(1, 17))
@pytest.mark.parametrize("sign_bit", ("below", "at"))
def test_product_at_a_byte_width_sign_bit(w, sign_bit, monkeypatch, paths):
    # B = 2**(8w - 1) - 1 is the largest bound a w-byte group holds next
    # to its sign bit; B = 2**(8w - 1) takes the next width.  The product
    # coefficients reach +-B.  Groups of 1..8 bytes read back through
    # struct, and wider ones one int at a time once a coefficient passes
    # 8 bytes.  While binary groups were 1, 2, 4 or 8 bytes wide, B =
    # 2**(8w - 1) took 2w bytes; every width in 1..8 is now a group width,
    # and while they stopped at 8 bytes, B = 2**63 went decimal.
    bound = (1 << 8 * w - 1) - (sign_bit == "below")
    for radix in on_both_radixes(monkeypatch):
        paths.clear()
        check_bound_reached(bound, random.Random(w))
        # The products by the all +-1 windows, whose kernel bound is B; every
        # third product is a square.
        taken = {(path, width) for path, _, width in paths[0::3] + paths[1::3]}
        if radix == "decimal":
            assert {path for path, _ in taken} == {"decimal"}
        else:
            assert taken == {("binary", w + (sign_bit == "at"))}


def test_three_byte_groups_need_their_sign_extended(monkeypatch, paths):
    # Negative control: with every sign-extension byte read as zero, a
    # negative coefficient of a 3-byte product comes back as c + 2**24.
    a = LaurentSeries(0, (1000, -1000, 3))
    b = LaurentSeries(0, (2000, 7, -5))
    assert a * b == schoolbook(a, b)
    monkeypatch.setattr(series, "_SIGN_BYTES", bytes(256))
    wrong = a * b
    assert paths == [("binary", 3, 3)] * 2
    assert wrong.coeffs[1] == schoolbook(a, b).coeffs[1] + (1 << 24)
    assert wrong != schoolbook(a, b)


@pytest.mark.parametrize("w", (1, 8, 16))
@pytest.mark.parametrize("extra", (0, 1))
def test_product_at_the_binary_cut(w, extra, paths):
    # n*w bytes equal to the cut stay binary; one more group (one more
    # byte for w = 1) goes to decimal, at 16-byte groups too.  a has
    # ||a||_1 = 3, so the bound is 3 max|b|, which takes exactly w bytes.
    # max|b| was 1 << 40 for w = 8 while groups were 1, 2, 4 or 8 bytes
    # wide; 3 << 40 now takes 6.
    assert series._BINARY_BYTES % w == 0
    n = series._BINARY_BYTES // w + extra
    top = ((1 << 8 * w - 1) - 1) // 3
    assert (3 * top).bit_length() == 8 * w - 1
    rng = random.Random(n)
    a = LaurentSeries(1, (1, -1) + (0,) * (n - 3) + (1,))
    b = LaurentSeries(-2, (top,) + tuple(rng.randint(-top, top) for _ in range(n - 1)))
    assert a * b == schoolbook(a, b)
    assert len(paths) == 1
    path, size, width = paths[0]
    assert (path, size) == ("decimal" if extra else "binary", n)
    if not extra:
        assert width == w


def test_square_on_the_binary_path_packs_its_operand_once(monkeypatch, paths):
    packs = []

    def pack(fmt, *values):
        packs.append(fmt)
        return struct.pack(fmt, *values)

    monkeypatch.setattr(series, "struct", SimpleNamespace(
        pack=pack, unpack=struct.unpack, Struct=struct.Struct))
    a = random_series(random.Random(17), 300, 20)
    assert a * a == schoolbook(a, a)
    assert len(packs) == 1
    twin = LaurentSeries(a.offset, tuple(list(a.coeffs)))
    assert twin.coeffs is not a.coeffs
    assert a * twin == schoolbook(a, twin)
    assert len(packs) == 3
    # The bound has 48 bits: it took 8-byte groups while groups were 1, 2,
    # 4 or 8 bytes wide, and takes 7, packed at 8 with the top byte deleted.
    assert paths == [("binary", 300, 7)] * 2


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


def test_product_with_negative_upper_half(monkeypatch):
    # Positive low coefficients and a negative upper half: the decimal sum
    # is positive only because of the 10**(2nd) offset, and the binary
    # mask must drop a negative upper half.
    for _ in on_both_radixes(monkeypatch):
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


def test_packed_digit_cap_is_eight_million_digits(monkeypatch):
    # The cap by value: two 20000-term windows whose bound needs 401-digit
    # groups pack 8,020,000 digits each.  The refusal comes before packing,
    # so a cap raised past that packs nothing here either.
    monkeypatch.setattr(series, "_bias", lambda n, d: pytest.fail(f"packed {n * d} digits"))
    x = math.isqrt(10 ** 400 // 2) + 1  # 2 x^2 has 401 digits
    a = LaurentSeries(0, (x,) + (0,) * 19999)
    b = LaurentSeries(0, (0, x) + (0,) * 19998)
    with pytest.raises(series.ProductTooLarge) as refusal:
        a * b
    assert str(refusal.value) == (
        "product of two 20000-term windows needs 401-digit groups: "
        "8020000 packed digits per operand, above the cap of 8000000")


def test_product_leaves_the_decimal_context_and_int_limit_alone(paths):
    context = decimal.getcontext()
    before = (context.prec, context.Emax, context.Emin, context.rounding,
              dict(context.traps), dict(context.flags))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    a = LaurentSeries(0, (1 << 15000, -3, 7) * 30)
    assert a * a == schoolbook(a, a)
    # 600 4-byte groups: a packed operand of about 5800 digits, past the
    # default int <-> str limit, multiplied in binary.
    b = random_series(random.Random(19), 600, 10)
    assert b * b == schoolbook(b, b)
    assert [path for path, _, _ in paths] == ["decimal", "binary"]
    assert paths[1][2] == 4
    assert decimal.getcontext() is context
    assert (context.prec, context.Emax, context.Emin, context.rounding,
            dict(context.traps), dict(context.flags)) == before
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_decimal_is_the_c_implementation():
    # The kernel's speed rests on libmpdec; _pydecimal would be exact but
    # orders of magnitude slower.
    import _decimal

    assert decimal.Decimal is _decimal.Decimal


def test_product_matches_literal_factor_products(paths):
    # Expanded cold, so that its products run here: short ones in binary,
    # and 2000-term ones with 13-digit groups in decimal, past the cut.
    factors = {1: 4, 2: 4, 5: 4, 10: 4}
    eta._expand_quotient_cached.cache_clear()
    try:
        assert expand_quotient(factors, 2000) == direct_eta_product(factors, 2000)
    finally:
        eta._expand_quotient_cached.cache_clear()
    assert any(path == "binary" for path, _, _ in paths)
    # A decimal group of at most 18 digits holds every bound below 10**18/2
    # < 2**63: that product fitted 8-byte groups and went decimal by its size.
    assert any(path == "decimal" and d <= 18 for path, _, d in paths)


@pytest.mark.parametrize("bits", (1, 8, 100, series._SHORT_BITS, series._SHORT_BITS + 1,
                                  3 * series._SHORT_BITS + 7, 12 * series._SHORT_BITS))
def test_low_product_is_the_product_mod_a_power_of_two(bits):
    # Seeded signed operands of either sign, below, at and past 2**bits,
    # on both sides of the cut where the short product starts to split;
    # 12 cuts wide, its cross terms split again.
    rng = random.Random(bits)
    mask = (1 << bits) - 1
    for _ in range(12):
        x, y = (rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, bits + 40))
                for _ in range(2))
        assert series._low_product(x, y, bits) & mask == x * y & mask


def test_binary_products_past_the_short_cut_match_schoolbook(monkeypatch, paths):
    # 600 terms in 7- and 17-byte groups: 33.6 and 81.6 kbit per operand,
    # past ``_SHORT_BITS``, so the low half comes from the short product,
    # whose cross terms split once more at 81.6 kbit.
    rng = random.Random(41)
    monkeypatch.setattr(series, "_BINARY_BYTES", 1 << 40)
    for bits in (20, 60):
        a, b = random_series(rng, 600, bits), random_series(rng, 600, bits)
        assert a * b == schoolbook(a, b)
    assert [(n, w) for _, n, w in paths] == [(600, 7), (600, 17)]


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


def test_products_by_one_right_operand_match_schoolbook(monkeypatch, paths):
    # A residue-class join: left windows of lengths n and n - 1 by one
    # right window, repeated, so the memo is hit, missed by the cut length
    # and hit again; squares of the right window and of a left one; and
    # 100-bit coefficients, whose groups are wider than 8 bytes.
    rng = random.Random(23)
    for radix in on_both_radixes(monkeypatch):
        for bits in (3, 40, 100):
            paths.clear()
            window = random_series(rng, 37, bits)
            lefts = [random_series(rng, length, bits) for length in (37, 37, 36, 36, 37)]
            for a in lefts + lefts[::-1]:
                assert a * window == schoolbook(a, window)
            assert window * window == schoolbook(window, window)
            assert lefts[2] * lefts[2] == schoolbook(lefts[2], lefts[2])
            assert window * window == schoolbook(window, window)
            assert {path for path, _, _ in paths} == {radix}
            if radix == "binary" and bits == 100:
                assert min(width for _, _, width in paths) > 8


def test_a_join_packs_its_right_operand_once_per_width(monkeypatch, paths):
    packs = []

    def pack(fmt, *values):
        packs.append(len(values))
        return struct.pack(fmt, *values)

    monkeypatch.setattr(series, "struct", SimpleNamespace(
        pack=pack, unpack=struct.unpack, Struct=struct.Struct, error=struct.error))
    rng = random.Random(29)
    window = random_series(rng, 50, 8)
    lefts = [random_series(rng, 50, 8) for _ in range(5)]
    for a in lefts:
        assert a * window == schoolbook(a, window)
    # One pack per left window and one for the right window: every product
    # took the same group width.
    assert len({width for _, _, width in paths}) == 1
    assert len(packs) == 6
    # A left window with a wider bound takes another width, packed once more.
    wide = random_series(rng, 50, 30)
    assert wide * window == schoolbook(wide, window)
    assert len(packs) == 8


def test_a_planted_entry_serves_only_its_own_tuple(monkeypatch, paths):
    # Negative control: an entry holding a wrong packed int for one tuple.
    # A product by an equal tuple that is another object must still be
    # exact, so the entry was not served; the product by the planted tuple
    # itself reads the wrong int, which shows the memo is on the path.
    rng = random.Random(31)
    a = random_series(rng, 40, 12)
    planted = tuple(rng.randint(-999, 999) for _ in range(40))
    twin = tuple(list(planted))
    assert twin == planted and twin is not planted
    exact = schoolbook(a, LaurentSeries(0, planted))
    assert exact.offset == a.offset
    assert a * LaurentSeries(0, twin) == exact
    [(_, _, w)] = paths
    magnitudes = list(map(abs, planted))
    wrong = (planted[0] + 1,) + planted[1:]
    x = sum(c << 8 * w * i for i, c in enumerate(wrong))

    def plant():
        monkeypatch.setattr(series, "_last_right", (
            planted, 40, planted, max(magnitudes), sum(magnitudes), {w: x}))

    plant()
    assert series._binary_product(a.coeffs, twin, w) == exact.coeffs
    assert a * LaurentSeries(0, twin) == exact
    plant()
    served = a * LaurentSeries(0, planted)
    assert served == schoolbook(a, LaurentSeries(0, wrong))
    assert served != exact
    assert [width for _, _, width in paths] == [w] * 4


def test_a_memo_hit_still_refuses_a_product_too_large():
    # The same refusal, with the same message, on the miss that makes the
    # entry and on the hit that reads it.
    width = series._MAX_PACKED_DIGITS // MAX_ORDER + 1
    x = math.isqrt(10 ** (width - 1) // 2) + 1  # 2 x^2 has `width` digits, one too many
    window = LaurentSeries(0, (x,) + (0,) * (MAX_ORDER - 1))
    messages = []
    for _ in range(2):
        with pytest.raises(series.ProductTooLarge) as refusal:
            window * window
        messages.append(str(refusal.value))
        assert series._last_right[0] is window.coeffs
    assert messages[0] == messages[1]


def plain_quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """c_k = b_0 (a_k - sum_{j>=1} b_j c_{k-j}), one output and one divisor
    term at a time: the reference for ``series._quotient``."""
    terms = [(j, x) for j, x in enumerate(b) if j and x]
    c: list[int] = []
    for k, x_k in enumerate(a):
        c.append(b[0] * (x_k - sum(x * c[k - j] for j, x in terms if j <= k)))
    return tuple(c)


def sparse_divisor(rng: random.Random, n: int, lead: int, near: tuple[int, ...],
                   values: tuple[int, ...]) -> tuple[int, ...]:
    """A divisor on n terms led by ``lead``: a seeded sample of the
    exponents in ``near`` and up to 20 exponents past 64, with seeded
    values."""
    b = [0] * n
    b[0] = lead
    far = range(64, n)
    for j in rng.sample(near, min(4, len(near))) + rng.sample(far, min(20, len(far))):
        b[j] = rng.choice(values)
    return tuple(b)


@pytest.mark.parametrize("n", (1, 40, 64, 65, 200))
def test_near_recurrence_matches_the_plain_recurrence(n):
    # Seeded sparse divisors led by +1 and by -1, with +-1 near terms only,
    # with other values, and with none; theta(2m, m)'s +-2 and Jacobi's
    # cube's odd values; and a near value wider than 640 digits, past the
    # lowest int <-> str limit, which no source text may hold.
    rng = random.Random(n)
    near = tuple(range(1, min(n, 64)))
    wide = 10 ** 700 + 1
    divisors = [eta._theta(4, 2, n).coeffs, eta._cube(1, n).coeffs, eta._cube(3, n).coeffs]
    for lead in (1, -1):
        divisors += [sparse_divisor(rng, n, lead, near, (1, -1)),
                     sparse_divisor(rng, n, lead, near, (1, -1, 2, -3, 7)),
                     sparse_divisor(rng, n, lead, near, (-wide, wide, 1)),
                     sparse_divisor(rng, n, lead, (), (1, -1, 2))]
    for b in divisors:
        a = tuple(rng.randint(-99, 99) for _ in range(n))
        assert series._quotient(a, b) == plain_quotient(a, b)


def test_near_recurrence_on_lane_sized_numerators():
    # Numerators of g*w-byte ints, as ``eta._divide`` passes them on lanes.
    rng = random.Random(37)
    g, w, n = 5, 9, 150
    coeffs = tuple(rng.randint(-(1 << 40), 1 << 40) for _ in range(g * n))
    a = tuple(series._lanes(coeffs, g, w))
    assert max(map(abs, a)).bit_length() > 8 * w * (g - 1)
    for b in (eta._theta(3, 1, n).coeffs, eta._theta(2, 1, n).coeffs, eta._cube(1, n).coeffs):
        assert series._quotient(a, b) == plain_quotient(a, b)


def test_a_divisor_with_no_near_term_makes_no_near_solver(monkeypatch):
    def refuse(terms):
        raise AssertionError(f"near solver made for {terms}")

    monkeypatch.setattr(series, "_near_solver", refuse)
    b = (1,) + (0,) * 69 + (-2,) + (0,) * 29
    a = tuple(range(100))
    assert series._quotient(a, b) == plain_quotient(a, b)
    assert series._quotient(a, (-1,) + b[1:]) == plain_quotient(a, (-1,) + b[1:])


def test_near_solver_cache_stays_within_its_bound():
    bound = series._near_solver.cache_info().maxsize
    patterns = [((j, x),) for j in range(1, 64) for x in (1, -1, 2)]
    patterns += [((1, x), (5, -1)) for x in range(3, bound + 3)]
    assert len(set(patterns)) > bound
    for terms in patterns:
        solve = series._near_solver(terms)
    assert series._near_solver.cache_info().currsize <= bound
    # The last one made still solves: c[k] -= x c[k - 1] - c[k - 5].
    c = [1, 2, 3, 4, 5, 6, 7]
    solve(c, 5, 7)
    x = bound + 2
    assert c[5:] == [6 - x * 5 + 1, 7 - x * (6 - x * 5 + 1) + 2]
