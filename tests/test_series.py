"""Unit tests for the exact Laurent-window arithmetic."""

from __future__ import annotations

import math
import random

import pytest

import etaq.eta as eta
from etaq.series import (
    FAIL,
    INSUFFICIENT,
    PASS,
    SKIPPED,
    AllZeroWindow,
    EmptyWindow,
    LaurentSeries,
    NonUnitLeadingCoefficient,
    Report,
    compare,
    two_adic_valuation,
    worst,
)
from etaq.series import _lanes, _unlanes


def series(offset, *coeffs):
    return LaurentSeries(offset, tuple(coeffs))


def test_window_invariants():
    s = series(-2, 3, 0, 1)
    assert s.offset == -2
    assert s.prec == 1
    assert s[-2] == 3
    assert s[0] == 1
    assert s[-10] == 0  # below the window is exactly zero
    with pytest.raises(IndexError):
        s[1]
    with pytest.raises(EmptyWindow):
        LaurentSeries(0, ())


def test_coeffs_coerced_to_tuple():
    s = LaurentSeries(0, [1, 2, 3])
    assert s.coeffs == (1, 2, 3)


def test_add_cancellation():
    total = series(0, 1, 1) + series(0, 1, -1)
    assert total == series(0, 2, 0)


def test_add_mixed_offsets():
    a = series(-1, 1, 0, 0, 0)   # q^-1 on [-1, 3)
    b = series(0, 1, 0, 0)       # 1 on [0, 3)
    assert a + b == series(-1, 1, 1, 0, 0)


def test_add_zero_series_is_identity():
    a = series(0, 4, -2, 7)
    zero = LaurentSeries.from_terms({}, 0, 3)
    assert a + zero == a


def test_mul_difference_of_squares():
    a = series(0, 1, 1, 0)
    b = series(0, 1, -1, 0)
    assert a * b == series(0, 1, 0, -1)


def test_mul_by_unit_monomial_shifts():
    a = series(-1, 1, 1)                      # q^-1 + 1
    q = LaurentSeries.from_terms({1: 1}, 1, 3)
    assert a * q == series(0, 1, 1)           # 1 + q


def test_mul_window_length_rule():
    a = series(0, *range(1, 6))   # [0, 5)
    b = series(2, 1, 1)           # [2, 4)
    product = a * b
    assert product.offset == 2
    # prec = min(prec_a + offset_b, prec_b + offset_a) = min(7, 4)
    assert product.prec == 4
    assert product.coeffs == (1, 3)


def test_scalar_mul_and_neg():
    a = series(-1, 2, -3)
    assert 5 * a == series(-1, 10, -15)
    assert a * -1 == -a
    assert a - a == series(-1, 0, 0)


def test_shift():
    a = series(0, 1, 1)
    assert a.shift(-2) == series(-2, 1, 1)
    assert a.shift(0) == a
    assert a.shift(3).shift(-3) == a


def test_invert_geometric():
    one_minus_q = series(0, 1, -1, 0, 0, 0, 0)
    inv = one_minus_q.invert(6)
    assert inv == series(0, 1, 1, 1, 1, 1, 1)
    assert (one_minus_q * inv)[0] == 1


def test_invert_offset_tracks_leading_exponent():
    a = series(1, 1, 5, 7)   # q*(1 + 5q + 7q^2)
    assert a.invert(3).offset == -1


def test_invert_negative_unit():
    a = series(0, -1, 1)
    inv = a.invert(2)
    product = a * inv
    assert product[0] == 1 and product[1] == 0


def test_invert_window_cap():
    a = series(0, 1, -1, 0)
    # only 3 coefficients known, so asking for 10 yields 3
    assert a.invert(10).prec == 3


def test_invert_errors():
    with pytest.raises(NonUnitLeadingCoefficient):
        series(0, 2, 1).invert(5)
    with pytest.raises(AllZeroWindow):
        series(0, 0, 0).invert(5)
    with pytest.raises(EmptyWindow):
        series(0, 1, 1).invert(0)


def _loop_divide(a, b):
    """The per-coefficient division loop, one output at a time over every
    nonzero divisor term: the reference for ``a / b`` and ``invert``,
    which run the same recurrence in blocks."""
    i0 = next(i for i, c in enumerate(b.coeffs) if c)
    lead = b.coeffs[i0]
    n = min(len(a.coeffs), len(b.coeffs) - i0)
    terms = [(j, x) for j, x in enumerate(b.coeffs[i0:i0 + n]) if x and j]
    out = []
    for k in range(n):
        out.append(lead * (a.coeffs[k] - sum(x * out[k - j] for j, x in terms if j <= k)))
    return LaurentSeries(a.offset - b.offset - i0, tuple(out))


def _unit_led(rng, max_len):
    """A dense window whose lowest nonzero coefficient, after up to three
    zeros, is +1 or -1; the others reach past +-1."""
    zeros = rng.randint(0, 3)
    rest = [rng.randint(-9, 9) for _ in range(rng.randint(0, max_len))]
    return LaurentSeries(rng.randint(-8, 8), (0,) * zeros + (rng.choice((1, -1)),) + tuple(rest))


def test_invert_matches_the_loop_on_dense_series():
    rng = random.Random(211)
    for _ in range(60):
        a = _unit_led(rng, 300)
        n_terms = rng.randint(1, 320)
        assert a.invert(n_terms) == _loop_divide(LaurentSeries.one(n_terms), a)


def test_division_window_and_product_with_offsets():
    # Windows past 64 terms run the blockwise pass as well as the
    # per-output terms, for divisor coefficients of +-1 and wider.
    rng = random.Random(409)
    for _ in range(60):
        a = LaurentSeries(rng.randint(-8, 8),
                          tuple(rng.randint(-99, 99) for _ in range(rng.randint(1, 300))))
        b = _unit_led(rng, 300)
        v = b.offset + next(i for i, c in enumerate(b.coeffs) if c)
        quotient = a / b
        assert quotient.offset == a.offset - v
        assert len(quotient.coeffs) == min(len(a.coeffs), b.prec - v)
        product = quotient * b
        assert all(product[e] == a[e] for e in range(product.offset, product.prec))
        longer = (LaurentSeries(a.offset, a.coeffs + (rng.randint(-99, 99),) * 70)
                  / LaurentSeries(b.offset, b.coeffs + (rng.randint(-9, 9),) * 70))
        assert longer.offset == quotient.offset
        assert longer.coeffs[:len(quotient.coeffs)] == quotient.coeffs


def _thetas(n):
    """Theta divisors on n terms: f1 = theta(3, 1); theta(10, 1), with a
    term at exactly q^64; theta(10, 5), whose terms at 5 j^2 are +-2 (the
    first past 64 at q^80); and -f1, led by -1."""
    f1 = eta._theta(3, 1, n)
    return [f1, eta._theta(10, 1, n), eta._theta(10, 5, n), -f1]


@pytest.mark.parametrize("n", (1, 63, 64, 65, 127, 128, 129, 2000))
def test_division_matches_the_loop_at_block_boundaries(n):
    # Windows ending one short of, at and one past a block of 64 outputs,
    # by theta divisors and, up to 129 terms, by dense ones (a term at
    # every j, 63 and 127 included); numerators and divisors with offsets.
    assert eta._theta(10, 1, 65).coeffs[64] == 1
    assert eta._theta(10, 5, 81).coeffs[80] == 2
    rng = random.Random(n)
    divisors = _thetas(n)
    if n <= 129:
        divisors.append(LaurentSeries(0, (1,) + tuple(rng.choice((-2, -1, 1, 3))
                                                     for _ in range(n - 1))))
    for b in divisors:
        for a_offset, b_offset in ((0, 0), (-5, 3), (7, -2)):
            a = LaurentSeries(a_offset, tuple(rng.randint(-99, 99) for _ in range(n)))
            quotient = a / b.shift(b_offset)
            assert quotient == _loop_divide(a, b.shift(b_offset))
            assert quotient.offset == a_offset - b_offset
            assert len(quotient.coeffs) == n


@pytest.mark.parametrize("p, a, n", ((10, 1, 65), (3, 1, 58), (3, 1, 71), (3, 1, 1963)))
def test_division_by_theta_with_its_last_term_at_the_window_end(p, a, n):
    theta = eta._theta(p, a, n)
    assert theta.coeffs[n - 1] != 0
    for numerator in (LaurentSeries.one(n), LaurentSeries(0, tuple(range(1, n + 1)))):
        assert numerator / theta == _loop_divide(numerator, theta)


def _grouped_divisors(n):
    """Unit-led divisors on n terms whose far non-unit terms share values:
    +-2 and +-3 repeated at exponents below and past 64, with a value's
    far terms on both sides of block edges; a lone 5 past 64 and a lone
    -7 below it; and Jacobi's cubes, whose values all differ."""
    terms = {1: 2, 5: -2, 70: 2, 130: 2, 200: 2, 77: -2, 150: -2, 64: 3, 129: 3,
             190: 3, 10: -3, 300: -3, 320: -3, 99: 5, 40: -7, 3: 1, 66: -1, 256: 1}
    mixed = [0] * n
    mixed[0] = 1
    for j, x in terms.items():
        if j < n:
            mixed[j] = x
    mixed = LaurentSeries(0, tuple(mixed))
    return [mixed, -mixed, eta._cube(1, n), eta._cube(2, n), eta._theta(2, 1, n)]


@pytest.mark.parametrize("n", (65, 131, 400))
def test_grouped_division_matches_the_loop(n):
    rng = random.Random(n)
    for b in _grouped_divisors(n):
        a = LaurentSeries(-2, tuple(rng.randint(-99, 99) for _ in range(n)))
        assert a / b == _loop_divide(a, b)


# Divisor values for the far terms, at q^64 and past; only -1 joins a
# block's sum unscaled.
_FAR_VALUES = (1, -1, 2, -2, 3, -3, 5, -7)


def _sparse_divisors(rng, n):
    """Unit-led sparse divisors on n terms, each with a few near terms:
    values of ``_FAR_VALUES`` at random exponents, interleaved across block
    edges; values that all differ; and runs, each value's far terms
    starting after the previous value's last, with one far +1 term.  Each
    comes led by +1 and, negated, by -1."""
    def divisor(terms):
        return LaurentSeries(0, (1,) + tuple(terms.get(j, 0) for j in range(1, n)))

    near = {j: rng.choice(_FAR_VALUES) for j in rng.sample(range(1, min(n, 64)), 4)}
    mixed = {j: rng.choice(_FAR_VALUES) for j in rng.sample(range(1, n), 30)}
    distinct = {j: rng.choice((1, -1)) * (k + 2)
                for k, j in enumerate(rng.sample(range(64, max(n, 80)), 16))}
    runs = {}
    bounds = sorted(rng.sample(range(65, max(n, 80)), 6))
    for x, lo, hi in zip((2, -1, -3, 5, -7), [64] + bounds, bounds):
        runs.update(dict.fromkeys(rng.sample(range(lo, hi), min(3, hi - lo)), x))
    runs[rng.randrange(bounds[-1], max(n, bounds[-1] + 1))] = 1
    out = [divisor({**near, **terms}) for terms in (mixed, distinct, runs)]
    return out + [-b for b in out]


@pytest.mark.parametrize("n", (63, 64, 65, 127, 128, 129, 700))
def test_division_by_far_terms_of_every_value_matches_the_loop(n):
    # The far terms are visited by value in order of their first exponent,
    # and a block stops at the first value that does not reach it.
    rng = random.Random(7 * n)
    for b in _sparse_divisors(rng, n):
        for a_offset, b_offset in ((0, 0), (-5, 3), (7, -2)):
            a = LaurentSeries(a_offset, tuple(rng.randint(-99, 99) for _ in range(n)))
            assert a / b.shift(b_offset) == _loop_divide(a, b.shift(b_offset))


def _positions(values, g, w):
    """sum_r values[i*g + r] * 2**(8w*r) for each position i, by shifts."""
    return [sum(x << 8 * w * r for r, x in enumerate(values[i:i + g]))
            for i in range(0, len(values), g)]


@pytest.mark.parametrize("g", (1, 2, 5, 10))
def test_lanes_round_trip_at_every_width(g):
    # Lanes of 1 to 18 bytes, so packing sign-extends past 8 bytes and
    # drops bytes below it, and values wider than 8 bytes take one
    # to_bytes each; a tail of N mod g is padded with zeros.  Reading back
    # takes one struct.unpack when every lane fits 8 bytes, else reads
    # each lane, so both run on values up to the lane's edge.
    rng = random.Random(g)
    for w in range(1, 19):
        edge = 1 << 8 * w - 1
        for n in sorted({1, max(g - 1, 1), g, g + 1, 5 * g + 3}):
            for top in sorted({min(edge, 1 << 63), edge}):
                c = tuple(rng.choice((-top, top - 1, rng.randrange(-top, top)))
                          for _ in range(n))
                padded = c + (0,) * (-n % g)
                positions = _lanes(c, g, w)
                assert positions == _positions(padded, g, w)
                assert _unlanes(tuple(positions), g, w) == padded
            wide = tuple(rng.choice((-edge, edge - 1, rng.randrange(-edge, edge)))
                         for _ in range(len(padded)))
            assert _unlanes(tuple(_positions(wide, g, w)), g, w) == wide


def test_division_errors_with_offsets():
    a = series(-3, 1, 2, 3)
    with pytest.raises(NonUnitLeadingCoefficient):
        a / series(2, 0, 0, 3, 1)
    with pytest.raises(NonUnitLeadingCoefficient):
        a / series(-4, 0, -2, 1)
    with pytest.raises(AllZeroWindow):
        a / series(-1, 0, 0, 0)
    with pytest.raises(TypeError):
        a / 2


def test_extract_matches_per_index_reference():
    rng = random.Random(23)
    for _ in range(300):
        a = LaurentSeries(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 40))))
        m, r = rng.randint(1, 12), rng.randint(-15, 30)
        exponents = [e for e in range(a.offset, a.prec) if (e - r) % m == 0]
        if not exponents:
            with pytest.raises(EmptyWindow):
                a.extract(m, r)
            continue
        expected = LaurentSeries((exponents[0] - r) // m, tuple(a[e] for e in exponents))
        assert a.extract(m, r) == expected


def test_extract_basic():
    a = series(0, 1, 2, 3, 4)
    assert a.extract(2, 1) == series(0, 2, 4)


def test_extract_negative_offsets():
    a = series(-1, 1, 0, 1)      # q^-1 + q
    assert a.extract(2, 1) == series(-1, 1, 1)


def test_extract_clips_to_stored_window():
    # Exponent 0 is known zero by convention, but the extracted window
    # starts at ceil((offset - r) / m): only stored exponents survive.
    a = series(2, 7, 8)          # window [2, 4)
    assert a.extract(2, 0) == series(1, 7)


def test_extract_empty_window():
    a = series(0, 1, 2, 3)
    with pytest.raises(EmptyWindow):
        a.extract(10, 5)
    with pytest.raises(ValueError):
        a.extract(0, 0)


def test_alternate_signs():
    a = series(0, 1, 1, 1)
    assert a.alternate_signs() == series(0, 1, -1, 1)
    b = series(-1, 2, 3)         # odd offset: first entry negated
    assert b.alternate_signs() == series(-1, -2, 3)
    assert b.alternate_signs().alternate_signs() == b


def test_two_adic_valuation():
    assert two_adic_valuation(6) == 1
    assert two_adic_valuation(-64) == 6
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(0) == math.inf
    assert two_adic_valuation(-10) == 1


def test_two_adic_valuation_multiplicative():
    for x in (2, -6, 40, 96):
        for y in (3, -8, 12):
            assert two_adic_valuation(x * y) == \
                two_adic_valuation(x) + two_adic_valuation(y)


def test_compare_equal_and_witness():
    a = series(0, 1, 1)
    assert compare(a, a, min_overlap=2).status == PASS
    outcome = compare(series(0, 1, 1), series(0, 1, -1), min_overlap=2)
    assert outcome.status == FAIL
    assert outcome.witness == (1, 1, -1)


def test_compare_insufficient_overlap():
    a = series(0, *([1] * 5))       # [0, 5)
    b = series(10, *([1] * 10))     # [10, 20)
    assert compare(a, b, min_overlap=1).status == INSUFFICIENT


def test_compare_never_passes_vacuously():
    a = series(0, 1)
    b = series(5, 1)
    assert compare(a, b, min_overlap=0).status == INSUFFICIENT


def test_compare_reports_range():
    a = series(-1, *([0] * 10))
    b = series(0, *([0] * 6))
    outcome = compare(a, b, min_overlap=3)
    assert outcome.status == PASS
    assert (outcome.lo, outcome.hi, outcome.overlap) == (0, 5, 6)


def test_dump_format():
    s = series(-1, 3, 0, -12)
    assert s.dump() == "offset=-1 prec=2\n3\n0\n-12"


@pytest.mark.parametrize("offset", (-7, -1, 0, 3))
def test_dump_matches_line_join(offset):
    # dump formats every coefficient with one %; the text must equal the
    # header and str() of each coefficient joined by newlines.
    rng = random.Random(offset)
    coeffs = [0, -1, 1, 10**19, -10**19 - 1, 2**64, -(3**80)] + [
        rng.randrange(-10**30, 10**30) for _ in range(50)] + [0]
    s = LaurentSeries(offset, tuple(coeffs))
    assert s.dump() == "\n".join(
        [f"offset={offset} prec={offset + len(coeffs)}"] + [str(c) for c in coeffs])
    one = LaurentSeries(offset, (-5,))
    assert one.dump() == f"offset={offset} prec={offset + 1}\n-5"


def test_from_terms_validates_window():
    with pytest.raises(ValueError):
        LaurentSeries.from_terms({5: 1}, 0, 3)
    with pytest.raises(EmptyWindow):
        LaurentSeries.from_terms({}, 3, 3)
    assert LaurentSeries.one(3) == series(0, 1, 0, 0)


def test_iteration_yields_exponent_pairs():
    assert list(series(-2, 5, 6)) == [(-2, 5), (-1, 6)]


def test_worst_orders_fail_over_insufficient_over_pass():
    assert worst([]) == PASS
    assert worst([PASS, SKIPPED]) == PASS
    assert worst([SKIPPED]) == PASS
    assert worst([PASS, INSUFFICIENT, SKIPPED]) == INSUFFICIENT
    assert worst([INSUFFICIENT, FAIL, PASS]) == FAIL
    assert worst(iter([FAIL, INSUFFICIENT])) == FAIL


def test_report_of_comparison():
    a = series(-1, 1, 2, 3)
    failed = Report.of("x", "a == b", 9, compare(a, series(-1, 1, 5, 3), min_overlap=1))
    assert failed.status == FAIL
    assert failed.checked == {"from": -1, "to": 1, "points": 3}
    assert failed.witness == {"exponent": 0, "lhs": "2", "rhs": "5"}
    assert failed.to_dict() == {
        "label": "x", "status": FAIL, "claim": "a == b", "order": 9,
        "checked": {"from": -1, "to": 1, "points": 3},
        "witness": {"exponent": 0, "lhs": "2", "rhs": "5"}, "note": None,
    }

    passed = Report.of("y", None, None, compare(a, a, min_overlap=1), note="n")
    assert (passed.status, passed.witness, passed.note) == (PASS, None, "n")
    assert passed.identity == "y"

    empty = Report.of("z", None, None, compare(a, series(5, 1), min_overlap=1))
    assert (empty.status, empty.checked) == (INSUFFICIENT, None)


def test_report_dict_keeps_the_field_order_and_copies_its_dicts():
    report = Report.of("x", "a == b", 9, compare(series(0, 1, 2), series(0, 1, 3), 1), "n")
    payload = report.to_dict()
    assert list(payload.items()) == [
        ("label", "x"), ("status", FAIL), ("claim", "a == b"), ("order", 9),
        ("checked", {"from": 0, "to": 1, "points": 2}),
        ("witness", {"exponent": 1, "lhs": "2", "rhs": "3"}), ("note", "n")]
    payload["checked"]["points"] = 0
    payload["witness"]["lhs"] = "0"
    assert report.checked == {"from": 0, "to": 1, "points": 2}
    assert report.witness == {"exponent": 1, "lhs": "2", "rhs": "3"}


def test_scalar_mul_by_bool_gives_int_coefficients():
    a = series(-1, 2, -3)
    for scalar, coeffs in ((True, (2, -3)), (False, (0, 0))):
        for product in (a * scalar, scalar * a):
            assert product == series(-1, *coeffs)
            assert all(type(c) is int for c in product.coeffs)
