"""Tests for the brute-force oracle and the cross-check harness.

The oracle's Euler and Cauchy sums, and the products and k(q) built on
them, are checked against references that share nothing with them:
Euler's divisor-sum recurrence, which reads only divisor sums of the
factor exponents; literal products that multiply in or divide out one
(1 - q^d) factor at a time; and digests of literal products recorded in
``perfbench/reference.json``.  The Durfee-square sum for p(n) is checked
against the parts-accumulation program it replaced, and Euler's series
for f1 against the divisor-sum recurrence.  The residue-class division
by (1 - q^d) is checked against the ascending loop c[n] += c[n - d], its
block passes against the per-class prefix sums, and the block-summed f1
pass against the per-term passes it replaced.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import etaq.eta as eta
import etaq.identities as identities
import etaq.oracle as oracle
from etaq.cli import main
from etaq.identities import CATALOG
import prop_support as props
from etaq.oracle import (
    cross_check,
    direct_eta_product,
    direct_k,
    partition_counts,
)
from etaq.series import FAIL, PASS, LaurentSeries, worst

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

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


def test_partition_counts_thousand():
    assert partition_counts(1001)[1000] == 24061467864032622473692149727991


def times_binomial(c: list[int], d: int) -> None:
    """c *= (1 - q^d) in place; both slices are read before the write."""
    c[d:] = map(operator.sub, c[d:], c[:len(c) - d])


def over_binomial(c: list[int], d: int) -> None:
    """c /= (1 - q^d) in place: c[n] += c[n - d] in ascending n."""
    for n in range(d, len(c)):
        c[n] += c[n - d]


def literal_eta_product(factors: dict[int, int], order: int) -> list[int]:
    """prod f_m^{e_m} on [0, order), one (1 - q^d) factor per exponent unit."""
    c = [1] + [0] * (order - 1)
    for m, e in sorted(factors.items()):
        step = times_binomial if e > 0 else over_binomial
        for _ in range(abs(e)):
            for d in range(m, order, m):
                step(c, d)
    return c


def divisor_sum_product(a: list[int]) -> list[int]:
    """prod_{d>=1} (1 - q^d)^{a[d]} on [0, len(a)); a[0] is ignored.

    With s_k = -sum_{d | k} d a_d, F_0 = 1 and n F_n = sum_{k=1}^{n} s_k
    F_{n-k} (Apostol, Introduction to Analytic Number Theory, Thm 14.8).
    Each division by n is exact; a remainder raises ``ArithmeticError``.
    """
    s = [0] * len(a)
    for d in range(1, len(a)):
        if a[d]:  # s_k -= d a_d at every multiple k of d
            s[d::d] = [x - d * a[d] for x in s[d::d]]
    f = [1]
    for n in range(1, len(a)):
        q, r = divmod(sum(map(operator.mul, f, s[n:0:-1])), n)
        if r:
            raise ArithmeticError(f"inexact division by {n} at q^{n}")
        f.append(q)
    return f[:len(a)]  # the empty window stays empty


def divisor_sum_eta_product(factors: dict[int, int], order: int) -> list[int]:
    """prod f_m^{e_m} on [0, order) with a_d = sum_{m | d} e_m."""
    a = [0] * order
    for m, e in factors.items():
        for d in range(m, order, m):
            a[d] += e
    return divisor_sum_product(a)


def divisor_sum_k(order: int) -> list[int]:
    """k(q) on [1, order) with a_d read from the oracle's exponents by d mod 10."""
    return divisor_sum_product([oracle._K_EXPONENT.get(d % 10, 0) for d in range(order - 1)])


def parts_accumulation(order: int) -> list[int]:
    """p(0), ..., p(order-1) by dividing 1 by (1 - q^d) for each part size d."""
    c = [1] + [0] * (order - 1)
    for d in range(1, order):
        over_binomial(c, d)
    return c


def literal_k(order: int) -> list[int]:
    """k(q) on [1, order), one factor at a time in increasing d."""
    c = [1] + [0] * (order - 2)
    for d in range(1, order - 1):
        if d % 10 in (1, 2, 8, 9):
            times_binomial(c, d)
        elif d % 10 in (3, 4, 6, 7):
            over_binomial(c, d)
    return c


def literal_pochhammer(c: list[int], r: int, m: int, step) -> list[int]:
    """c times or over (q^r; q^m)_inf, one (1 - q^d) factor per d = r, r + m, ..."""
    c = c[:]
    for d in range(r, len(c), m):
        step(c, d)
    return c


def shifted_copies(c: list[int], f1: list[int], m: int) -> None:
    """c *= f1(q^m) in place, one pass over the window per nonzero term of f1(q^m).

    Term q^j of f1(q^m) is +1 or -1; its pass adds or subtracts the
    product before this call, shifted by j, to every term from q^j on.
    """
    n = len(c)
    before = c[:]
    for i, v in enumerate(f1[1:-(-n // m)], 1):
        if v:
            j = m * i
            c[j:] = map(operator.add if v > 0 else operator.sub, c[j:], before[:n - j])


@pytest.mark.parametrize("length", (1, 2, 17, 64, 257, 2000))
def test_over_binomial_matches_the_ascending_loop(length):
    # Every d from 1 to length + 1: d = 1, d^2 below and above the length,
    # and d at or past it, where every residue class has one term.
    rng = random.Random(length)
    window = [rng.randint(-9, 9) for _ in range(length)]
    for d in range(1, length + 2):
        c, reference = window[:], window[:]
        oracle._over_binomial(c, d)
        over_binomial(reference, d)
        assert c == reference, (length, d)


@pytest.mark.parametrize("length", (99, 100, 101, 2000))
def test_over_binomial_blocks_match_the_per_class_loop(length):
    # Fewer later blocks of d terms than classes with two or more terms
    # takes the block passes, otherwise the per-class prefix sums: d = 1,
    # d^2 just below and just above the length, d = length / 2, d =
    # length - 1 and d at or past the length.  Both branches are taken.
    rng = random.Random(length)
    window = [rng.randint(-9, 9) for _ in range(length)]
    below, above = math.isqrt(length - 1), math.isqrt(length) + 1
    branches = set()
    for d in {1, below, above, length // 2, length - 1, length, length + 1}:
        c, reference = window[:], window[:]
        oracle._over_binomial(c, d)
        for r in range(d):
            reference[r::d] = itertools.accumulate(reference[r::d])
        assert c == reference, (length, d)
        branches.add(-(-length // d) - 1 < min(d, length - d))
    assert branches == {True, False}


@pytest.mark.parametrize("m", (1, 2, 5, 10, 40))
@pytest.mark.parametrize("e", (1, 5))
def test_blocked_f1_pass_matches_the_per_term_passes(m, e):
    # Orders around the first two block edges, where terms with j >= B
    # start inside a later block; for each sign, one past its first term
    # j >= B, so that j ends the last block; and 2000.
    block = oracle._BLOCK
    f1 = oracle._f1(2000)
    one_past = {}
    for i, v in enumerate(f1):
        if v and m * i >= block:
            one_past.setdefault(v, m * i + 1)
    rng = random.Random(10 * m + e)
    window = [rng.randint(-9, 9) for _ in range(2000)]
    for order in (block - 1, block, block + 1, 2 * block + 1, *one_past.values(), 2000):
        c, reference = window[:order], window[:order]
        for _ in range(e):
            oracle._times_f1(c, f1, m)
            shifted_copies(reference, f1, m)
        assert c == reference, (m, e, order)


@pytest.mark.parametrize("m", (1, 2, 5, 10))
@pytest.mark.parametrize("helper, step", (
    (oracle._times_pochhammer, times_binomial),
    (oracle._over_pochhammer, over_binomial),
), ids=("euler", "cauchy"))
def test_pochhammer_sums_match_the_literal_product(helper, step, m):
    # Orders 1..200 cross every step boundary s_n of both sums for these m.
    rng = random.Random(m)
    window = [rng.randint(-9, 9) for _ in range(2000)]
    for r in range(1, m + 1):
        reference = literal_pochhammer(window[:200], r, m, step)
        for order in range(1, 201):
            c = window[:order]
            helper(c, r, m)
            assert c == reference[:order], (r, m, order)
        c = window[:]
        helper(c, r, m)
        assert c == literal_pochhammer(window, r, m, step), (r, m)


@pytest.mark.parametrize("factors", props.random_quotients(18, 8), ids=str)
def test_recurrence_matches_literal_product(factors):
    for order in (1, 2, 97, 240):
        coeffs = list(direct_eta_product(factors, order).coeffs)
        assert coeffs == literal_eta_product(factors, order)
        assert coeffs == divisor_sum_eta_product(factors, order)


def test_random_quotients_cover_reduced_quotients():
    quotients = props.random_quotients(18, 8)
    assert sum(math.gcd(*q) > 1 for q in quotients) >= 4
    assert sum(any(e < 0 for e in q.values()) for q in quotients) >= 9
    assert sum(len(q) >= 3 for q in quotients) >= 4


@pytest.mark.parametrize("factors", ({60: 3}, {1: -2, 200: 1}, {100: -1, 150: 4}, {}))
def test_recurrence_with_periods_at_or_past_the_order(factors):
    for order in (1, 2, 60, 100, 150, 151):
        coeffs = list(direct_eta_product(factors, order).coeffs)
        assert coeffs == literal_eta_product(factors, order)
        assert coeffs == divisor_sum_eta_product(factors, order)


def test_durfee_sum_matches_parts_accumulation_at_every_order():
    # Orders 1..200 cross every k^2 boundary up to 14^2.
    reference = parts_accumulation(200)
    for order in range(1, 201):
        assert partition_counts(order) == reference[:order], order
    assert partition_counts(2000) == parts_accumulation(2000)


def test_euler_series_matches_product_recurrence_at_every_order():
    # Orders 1..300 cross every triangular number k(k+1)/2 up to k = 24.
    reference = divisor_sum_eta_product({1: 1}, 300)
    for order in range(1, 301):
        assert oracle._f1(order) == reference[:order], order
    assert oracle._f1(2000) == divisor_sum_eta_product({1: 1}, 2000)


def test_recurrence_matches_literal_k_at_every_order():
    literal = literal_k(300)
    assert literal == divisor_sum_k(300)
    for order in range(2, 301):
        k = direct_k(order)
        assert (k.offset, list(k.coeffs)) == (1, literal[:order - 1])
        assert list(k.coeffs) == divisor_sum_k(order), order
    assert list(direct_k(2000).coeffs) == divisor_sum_k(2000)


def test_recurrence_matches_digests_recorded_from_literal_products():
    # perfbench/reference.json holds BLAKE2b-64 digests of the dump texts
    # of the literal factor-by-factor products, one per session quotient.
    reference = json.loads(REFERENCE.read_text())
    assert reference["digest"] == "blake2b-64"
    assert len(reference["quotients"]) == 32
    for text, digests in reference["quotients"].items():
        dump = direct_eta_product(eta.parse_quotient(text), 600).dump()
        assert hashlib.blake2b(dump.encode(), digest_size=8).hexdigest() == \
            digests["expand"]["600"], text


def test_inexact_division_raises(monkeypatch):
    # Tripwire on the reference: a non-integral exponent makes n F_n
    # indivisible by n, and the recurrence must raise rather than floor.
    monkeypatch.setitem(oracle._K_EXPONENT, 3, Fraction(-1, 2))
    with pytest.raises(ArithmeticError, match="inexact division by 3 at q\\^3"):
        divisor_sum_k(40)
    with pytest.raises(ArithmeticError, match="inexact division"):
        divisor_sum_eta_product({1: Fraction(1, 3)}, 10)


def _refuse_oracle_sequences(monkeypatch):
    def unreachable(order):
        raise AssertionError("built an oracle sequence for a refused factor")

    monkeypatch.setattr(oracle, "_f1", unreachable)
    monkeypatch.setattr(oracle, "partition_counts", unreachable)


@pytest.mark.parametrize("exponent", (Fraction(1, 3), 0.5, "1", True))
def test_direct_eta_product_refuses_a_non_integer_exponent(monkeypatch, exponent):
    # Refused before any work: neither oracle sequence is built.
    _refuse_oracle_sequences(monkeypatch)
    with pytest.raises(ValueError, match="exponent of f2 must be an integer"):
        direct_eta_product({1: 1, 2: exponent}, 10)


@pytest.mark.parametrize("period", (True, 1.5, 2.0, "2", 0))
def test_direct_eta_product_refuses_a_non_integer_period(monkeypatch, period):
    # As eta.expand_quotient does: {True: 2} is not f1^2.
    _refuse_oracle_sequences(monkeypatch)
    with pytest.raises(ValueError, match="period must be a positive integer"):
        direct_eta_product({period: 2}, 10)


@pytest.mark.parametrize("order", (0, -5))
def test_direct_eta_product_refuses_an_empty_order(monkeypatch, order):
    # As partition_counts and eta.expand_quotient do, before any work.
    _refuse_oracle_sequences(monkeypatch)
    with pytest.raises(ValueError, match=f"order must be >= 1, got {order}"):
        direct_eta_product({1: 1}, order)


def test_direct_eta_product_single_factor():
    assert direct_eta_product({1: 1}, 13).coeffs == (
        1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1,
    )


def test_direct_eta_product_inverse_is_partitions():
    s = direct_eta_product({1: -1}, 500)
    assert list(s.coeffs) == partition_counts(500)


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
        "label": "f1: pentagonal expansion vs Euler's series",
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


def test_cross_check_builds_each_oracle_sequence_once(monkeypatch):
    # p(n) comes from one Durfee sum and every f_m from one Euler series
    # for f1; M, P* and T* are built once each from those two windows.
    products, partitions, f1s = [], [], []

    def counting_product(factors, order, f1, p, real=oracle._eta_product):
        products.append(tuple(sorted(factors.items())))
        return real(factors, order, f1, p)

    def counting_partitions(order, real=oracle.partition_counts):
        partitions.append(order)
        return real(order)

    def counting_f1(order, real=oracle._f1):
        f1s.append(order)
        return real(order)

    monkeypatch.setattr(oracle, "_eta_product", counting_product)
    monkeypatch.setattr(oracle, "partition_counts", counting_partitions)
    monkeypatch.setattr(oracle, "_f1", counting_f1)
    checks = cross_check(120)
    assert all(check.status == PASS for check in checks)
    assert partitions == [120]
    assert f1s == [120]
    # So never {1: 1} or {1: -1}, never a single period m > 1, never the
    # same factors twice.
    assert sorted(products) == sorted(
        tuple(sorted(eta.TARGETS[tag].items())) for tag in ("M", "PSTAR", "TSTAR"))


def test_cross_check_flags_a_division_defect_in_the_series_sums(monkeypatch):
    # Negative control for both series sums: skipping the division by
    # (1 - q^3) drops two factors from every Durfee term k >= 3 (first
    # seen at q^(9+3)) and one from every Euler term k >= 3 (at q^(6+3)).
    # M, T* and P* are built from those two windows.  k(q)'s sums first
    # divide by (1 - q^3) in the n = 1 term q^3/((1 - q^10)(1 - q^3)) of
    # Cauchy's sum for 1/(q^3; q^10)_inf, whose q^(3+3) then goes missing:
    # first seen at q^(1+3+3).  Its other sums divide by 10n and 10n - 10 + r.
    real = oracle._over_binomial
    monkeypatch.setattr(oracle, "_over_binomial",
                        lambda c, d: None if d == 3 else real(c, d))
    flagged = {c.label: c for c in cross_check(60) if c.status != PASS}
    assert all(c.status == FAIL for c in flagged.values())
    assert sorted(flagged) == sorted([
        "f1: pentagonal expansion vs Euler's series",
        "f2: pentagonal expansion vs Euler's series",
        "f4: pentagonal expansion vs Euler's series",
        "f5: pentagonal expansion vs Euler's series",
        "EULER_P: quotient expander vs Durfee-square sum",
        "M: quotient expander vs Euler-series product",
        "PSTAR: quotient expander vs Euler-series product",
        "TSTAR: quotient expander vs Euler-series product",
        "k: theta quotient vs Euler and Cauchy series",
        "1/f1: series inversion vs Durfee-square sum",
        "p(5n+4) == 0 mod 5",
        "p(7n+5) == 0 mod 7",
        "p(11n+6) == 0 mod 11",
    ])
    assert flagged["f1: pentagonal expansion vs Euler's series"].witness == {
        "exponent": 9, "lhs": "0", "rhs": "1"}
    partition_witness = {"exponent": 12, "lhs": "77", "rhs": "75"}
    assert flagged["EULER_P: quotient expander vs Durfee-square sum"].witness == \
        partition_witness
    assert flagged["1/f1: series inversion vs Durfee-square sum"].witness == \
        partition_witness
    assert flagged["M: quotient expander vs Euler-series product"].witness == {
        "exponent": 12, "lhs": "-48", "rhs": "-50"}
    assert flagged["PSTAR: quotient expander vs Euler-series product"].witness == {
        "exponent": 9, "lhs": "20", "rhs": "24"}
    assert flagged["TSTAR: quotient expander vs Euler-series product"].witness == {
        "exponent": 9, "lhs": "-10", "rhs": "-5"}
    assert flagged["k: theta quotient vs Euler and Cauchy series"].witness == {
        "exponent": 7, "lhs": "2", "rhs": "1"}
    # The Durfee sum's counts break each classical congruence; the scan
    # names the first n of the label whose p(mn+r) is off, and that
    # argument of p.  The checked window counts arguments of p.
    for label, witness, checked in (
            ("p(5n+4) == 0 mod 5", {"n": 3, "argument": 19, "value": "358", "modulus": 5},
             {"from": 4, "to": 59, "points": 12}),
            ("p(7n+5) == 0 mod 7", {"n": 1, "argument": 12, "value": "75", "modulus": 7},
             {"from": 5, "to": 54, "points": 8}),
            ("p(11n+6) == 0 mod 11", {"n": 2, "argument": 28, "value": "1591", "modulus": 11},
             {"from": 6, "to": 50, "points": 5})):
        assert (flagged[label].witness, flagged[label].checked) == (witness, checked)


def test_cross_check_flags_a_skipped_f1_term_in_the_sparse_pass(monkeypatch):
    # Negative control for the products' multiplication pass: it reads f1
    # without its q^5 term, while the f_m rows read the intact window.
    real = oracle._eta_product

    def broken(factors, order, f1, p):
        return real(factors, order, [0 if i == 5 else v for i, v in enumerate(f1)], p)

    monkeypatch.setattr(oracle, "_eta_product", broken)
    flagged = [c for c in cross_check(60) if c.status != PASS]
    assert all(c.status == FAIL for c in flagged)
    assert {c.label: c.witness for c in flagged} == {
        "M: quotient expander vs Euler-series product":
            {"exponent": 10, "lhs": "22", "rhs": "17"},
        "PSTAR: quotient expander vs Euler-series product":
            {"exponent": 5, "lhs": "-8", "rhs": "-12"},
        "TSTAR: quotient expander vs Euler-series product":
            {"exponent": 5, "lhs": "-5", "rhs": "-10"},
    }


def test_cross_check_flags_a_block_edge_defect_in_the_f1_pass(monkeypatch):
    # Negative control for the blocked f1 pass: from the second output
    # block on, the bisection drops the last term of each sign that
    # reaches the block.  In the block [256, 512) that loses f1(q^5)'s
    # -q^(5*77) (M and P*) and f1(q^10)'s -q^(10*40) (T*); every other
    # dropped term lies higher.  The first block, the f_m rows and the sums
    # are untouched, so only the three products fail, at exponents >= 256.
    block = oracle._BLOCK
    assert block == 256
    real = oracle.bisect_left
    monkeypatch.setattr(oracle, "bisect_left",
                        lambda a, x: max(0, real(a, x) - 1) if x > block else real(a, x))
    flagged = [c for c in cross_check(2 * block + 1) if c.status != PASS]
    assert all(c.status == FAIL for c in flagged)
    assert {c.label: c.witness for c in flagged} == {
        "M: quotient expander vs Euler-series product":
            {"exponent": 385, "lhs": "-2158", "rhs": "-2153"},
        "PSTAR: quotient expander vs Euler-series product":
            {"exponent": 385, "lhs": "1432", "rhs": "1436"},
        "TSTAR: quotient expander vs Euler-series product":
            {"exponent": 400, "lhs": "8192", "rhs": "8197"},
    }


def test_cross_check_flags_a_skipped_division_in_the_cauchy_sum_for_k(monkeypatch):
    # Negative control for k(q)'s Cauchy sums: the first division by
    # (1 - q^13) is in the n = 2 term of 1/(q^3; q^10)_inf, at
    # s_2 = 3*2 + 10*2*1 = 26 over (1 - q^10)(1 - q^20)(1 - q^3)(1 - q^13).
    # Dropping it loses that term's q^(26+13), first seen at q^(1+26+13).
    # At order 60 no other sum divides by (1 - q^13): the Durfee and Euler
    # sums stop at q^(7^2) and q^(10*11/2), and the Cauchy sums for M and
    # T* divide by multiples of 10 and 5.
    real = oracle._over_binomial
    monkeypatch.setattr(oracle, "_over_binomial",
                        lambda c, d: None if d == 13 else real(c, d))
    flagged = {c.label: c for c in cross_check(60) if c.status != PASS}
    assert list(flagged) == ["k: theta quotient vs Euler and Cauchy series"]
    assert flagged["k: theta quotient vs Euler and Cauchy series"].status == FAIL
    assert flagged["k: theta quotient vs Euler and Cauchy series"].witness == {
        "exponent": 40, "lhs": "23", "rhs": "22"}


def test_cross_check_flags_an_off_by_one_second_divisor_in_cauchy_sums(monkeypatch):
    # Negative control for the second divisor of each Cauchy step: every
    # sum's n-th term divides by (1 - q^(mn)), then by (1 - q^(m(n-1)+r)),
    # which this defect turns into (1 - q^(m(n-1)+r+1)).  Only Cauchy sums
    # call _over_binomial in pairs, so every second call inside one is hit.
    real_binomial, real_sum = oracle._over_binomial, oracle._over_pochhammer
    calls = None  # _over_binomial calls inside the running Cauchy sum

    def broken_binomial(c, d):
        nonlocal calls
        if calls is not None:
            calls += 1
            d += calls % 2 == 0
        real_binomial(c, d)

    def counting_sum(c, r, m):
        nonlocal calls
        calls = 0
        try:
            real_sum(c, r, m)
        finally:
            calls = None

    monkeypatch.setattr(oracle, "_over_binomial", broken_binomial)
    monkeypatch.setattr(oracle, "_over_pochhammer", counting_sum)
    # The Durfee sum's n = 1 term q/((1 - q)(1 - q^2)) has 1 at q^2, not 2,
    # so p(2) is off: the p rows, and M and T* through p spread by 1 and 2.
    # k(q)'s n = 1 term of 1/(q^3; q^10)_inf, q^3/((1 - q^10)(1 - q^4)),
    # loses its q^(3+3): first seen at q^(1+3+3).  The f_m and P* rows read
    # only Euler's sum for f1.
    flagged = {c.label: c for c in cross_check(60) if c.status != PASS}
    assert all(c.status == FAIL for c in flagged.values())
    partition_witness = {"exponent": 2, "lhs": "2", "rhs": "1"}
    assert {label: c.witness for label, c in flagged.items()} == {
        "EULER_P: quotient expander vs Durfee-square sum": partition_witness,
        "M: quotient expander vs Euler-series product":
            {"exponent": 2, "lhs": "-3", "rhs": "-4"},
        "TSTAR: quotient expander vs Euler-series product":
            {"exponent": 4, "lhs": "-8", "rhs": "-9"},
        "k: theta quotient vs Euler and Cauchy series":
            {"exponent": 7, "lhs": "2", "rhs": "1"},
        "1/f1: series inversion vs Durfee-square sum": partition_witness,
        "p(5n+4) == 0 mod 5": {"n": 0, "argument": 4, "value": "3", "modulus": 5},
        "p(7n+5) == 0 mod 7": {"n": 0, "argument": 5, "value": "4", "modulus": 7},
        "p(11n+6) == 0 mod 11": {"n": 0, "argument": 6, "value": "6", "modulus": 11},
    }


def _corrupt_one_row(monkeypatch, name, hit, exponent):
    """Patch eta.<name> to add 1 at q^exponent where hit(args); run cross_check."""
    real = getattr(eta, name)

    def broken(*args):
        s = real(*args)
        if hit(*args):
            coeffs = list(s.coeffs)
            coeffs[exponent - s.offset] += 1
            return LaurentSeries(s.offset, coeffs)
        return s

    monkeypatch.setattr(eta, name, broken)
    return [c for c in cross_check(60) if c.status != PASS]


def test_cross_check_flags_a_defect_in_the_euler_p_expansion(monkeypatch):
    # Negative control for the row whose oracle is the partition program.
    flagged = _corrupt_one_row(
        monkeypatch, "gen_target", lambda tag, order: tag == "EULER_P", 23)
    assert [c.label for c in flagged] == [
        "EULER_P: quotient expander vs Durfee-square sum"]
    assert flagged[0].status == FAIL
    assert flagged[0].witness == {"exponent": 23, "lhs": "1256", "rhs": "1255"}


def test_cross_check_flags_a_defect_in_f5(monkeypatch):
    # Negative control for a row whose oracle is f1 spread by 5: f5 has
    # coefficient -1 at q^10 (f1's at q^2), which the defect turns into 0.
    flagged = _corrupt_one_row(
        monkeypatch, "expand_f", lambda m, order: m == 5, 10)
    assert [c.label for c in flagged] == [
        "f5: pentagonal expansion vs Euler's series"]
    assert flagged[0].status == FAIL
    assert flagged[0].witness == {"exponent": 10, "lhs": "0", "rhs": "-1"}


@pytest.mark.parametrize("m", oracle._CHECK_PERIODS)
def test_spread_of_f1_is_the_single_period_product(m):
    for order in (1, 2, 97, 301):
        f1 = oracle._f1(order)
        assert list(oracle._spread(f1, m, order).coeffs) == divisor_sum_eta_product(
            {m: 1}, order)


def test_check_periods_cover_catalog_and_targets():
    # cross_check promises a row for every period the catalog reads.
    catalog = {int(m) for statement in CATALOG.values()
               for m in re.findall(r"\bf([1-9]\d*)\b", statement)}
    targets = {m for factors in eta.TARGETS.values() for m in factors}
    assert 40 in catalog
    assert catalog | targets <= set(oracle._CHECK_PERIODS)


def test_every_battery_quotient_matches_the_oracle(monkeypatch, capsys):
    # Collect every quotient `verify all` expands, then check each one
    # against the oracle's Euler-series product from a cold cache.  The
    # catalog and the dissection rows (F, G and H included) all expand
    # their quotients through the catalog's evaluator.
    seen = set()

    def recording(factors, order, real=identities.expand_quotient):
        seen.add(tuple(sorted(factors.items())))
        return real(factors, order)

    monkeypatch.setattr(identities, "expand_quotient", recording)
    main(["verify", "all", "--order", "500", "--kmax", "8"])
    capsys.readouterr()
    assert len(seen) == 33
    assert all(len(factors) > 1 for factors in seen)
    try:
        for order in (1, 97, 301):
            eta._expand_quotient_cached.cache_clear()
            for factors in sorted(seen):
                assert eta.expand_quotient(dict(factors), order) == direct_eta_product(
                    dict(factors), order), (factors, order)
    finally:
        eta._expand_quotient_cached.cache_clear()
