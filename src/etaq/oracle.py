"""Independent recomputation paths used to validate the fast expander.

Three algorithms, none of them the fast expander's:

* Partition counts sum the Durfee-square series (Andrews, The Theory of
  Partitions, 1976, ch. 2)
  sum_n p(n) q^n = sum_{k>=0} q^(k^2) / (q;q)_k^2,
  building 1/(q;q)_k^2 from 1/(q;q)_{k-1}^2 by two in-place divisions by
  (1 - q^k), each on the order - k^2 terms that can still reach the
  window: about (4/3) N^(3/2) term operations.
* f1 = (q;q)_inf sums Euler's series
  (q;q)_inf = sum_{k>=0} (-1)^k q^(k(k+1)/2) / (q;q)_k
  in the same way, one division by (1 - q^k) per term: about N^(3/2).
* Eta products and k(q) come from one exact recurrence on the exponents
  a_d of their literal (1 - q^d) factors, F = prod_{d>=1} (1 - q^d)^{a_d}:
  with s_k = -sum_{d | k} d a_d, F_0 = 1 and n F_n = sum_{k=1}^{n} s_k
  F_{n-k} (Apostol, Introduction to Analytic Number Theory, Thm 14.8).
  Each division by n is exact; a remainder raises ``ArithmeticError``.
  One product is an N^2/2 convolution.

In ``cross_check`` the Durfee sum is the oracle for 1/f1 (the EULER_P
row and the inversion row) and for the p(mn+r) rows.  Euler's series
gives f1, whose spread f1(q^m) checks every f_m row.  The recurrence runs
once each for M, T*, P* and k.

None of them shares anything with :mod:`etaq.eta` or the product kernel
of :mod:`etaq.series`: no theta series, no pentagonal numbers, no
Kronecker packing, no ``Decimal``, no ``LaurentSeries.invert``.  The
recurrence's inputs are divisor sums of factor exponents, never a
series' coefficients.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Sequence

from . import eta
from .identities import MIN_ORDER
from .series import FAIL, PASS, LaurentSeries, Report, compare


def _over_binomial(c: list[int], d: int) -> None:
    """c /= (1 - q^d) in place, one block of d coefficients at a time.

    Each block c[i:i+d] adds the block before it, which is already
    divided: the ascending update c[n] += c[n - d], d entries at once.
    """
    for i in range(d, len(c), d):
        c[i:i + d] = map(operator.add, c[i:i + d], c[i - d:i])


def partition_counts(order: int) -> list[int]:
    """p(0), ..., p(order-1) by the Durfee-square series sum_k q^(k^2)/(q;q)_k^2."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    t = [1] + [0] * (order - 1)  # 1/(q;q)_k^2 on the order - k^2 terms that reach the window
    p = t[:]
    for k in range(1, math.isqrt(order - 1) + 1):
        del t[order - k * k:]
        _over_binomial(t, k)
        _over_binomial(t, k)
        p[k * k:] = map(operator.add, p[k * k:], t)
    return p


def _f1(order: int) -> list[int]:
    """(q;q)_inf on [0, order) by Euler's series sum_k (-1)^k q^(k(k+1)/2)/(q;q)_k."""
    t = [1] + [0] * (order - 1)  # 1/(q;q)_k on the order - k(k+1)/2 terms that reach the window
    f = t[:]
    k = 1
    while (start := k * (k + 1) // 2) < order:
        del t[order - start:]
        _over_binomial(t, k)
        f[start:] = map(operator.sub if k % 2 else operator.add, f[start:], t)
        k += 1
    return f


def _euler_product(a: list[int]) -> list[int]:
    """prod_{d>=1} (1 - q^d)^{a[d]} on [0, len(a)); a[0] is ignored."""
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


def direct_eta_product(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order): a series in q^g, g the gcd of the periods."""
    for m, e in factors.items():
        if m < 1:
            raise ValueError(f"period must be >= 1, got {m}")
        if e == 0:
            raise ValueError(f"exponent of f{m} must be nonzero")
    g = math.gcd(*factors) or 1
    a = [0] * -(-order // g)
    for m, e in sorted(factors.items()):  # a_d = sum_{m | gd} e_m on ceil(order/g) terms
        for d in range(m // g, len(a), m // g):
            a[d] += e
    return _spread(_euler_product(a), g, order)


def _spread(f: Sequence[int], m: int, order: int) -> LaurentSeries:
    """sum_i f[i] q^(m i) on [0, order), from the first ceil(order/m) terms of f.

    With f the coefficients of F(q), this is F(q^m); f_m is f1 spread by m.
    """
    c = [0] * order
    c[::m] = f[:-(-order // m)]
    return LaurentSeries(0, tuple(c))


# a_d of k(q) by d mod 10: (1 - q^d) upstairs in d = 1,2,8,9, downstairs in 3,4,6,7.
_K_EXPONENT = {1: 1, 2: 1, 8: 1, 9: 1, 3: -1, 4: -1, 6: -1, 7: -1}


def direct_k(order: int) -> LaurentSeries:
    """k(q) on [1, order): q prod (1 - q^d)^{a_d} with a_d = _K_EXPONENT[d % 10]."""
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    return LaurentSeries(1, tuple(_euler_product(
        [_K_EXPONENT.get(d % 10, 0) for d in range(order - 1)])))


def _agreement(name: str, order: int, a: LaurentSeries, b: LaurentSeries) -> Report:
    """Compare a and b on their common window; witness the first mismatch."""
    return Report.of(name, None, order, compare(a, b, min_overlap=1))


_CHECK_PERIODS = (1, 2, 4, 5, 8, 10, 20, 40)


def cross_check(order: int) -> list[Report]:
    """Compare the fast expander against the brute-force paths.

    Covers every period used by the identity catalog (each f_m through
    the quotient expander, the path the verifiers use), all four named
    generating targets, k(q) (the theta quotient against its literal
    product), the inversion path (1/f1 against the partition counts), and
    the classical partition congruences p(5n+4) == 0 mod 5,
    p(7n+5) == 0 mod 7, p(11n+6) == 0 mod 11 as a sanity gate on the
    oracle itself.

    Each oracle sequence is built once, by one of three algorithms:

    * the Durfee-square sum (``partition_counts``, about N^(3/2) term
      operations) checks the EULER_P row, the 1/f1 row and the three
      p(mn+r) rows;
    * Euler's series for f1 (``_f1``, about N^(3/2)) checks every f_m
      row, as f1 spread by m;
    * the divisor-sum recurrence (``direct_eta_product`` and
      ``direct_k``, N^2/2 each) checks the M, T*, P* and k rows.
    """
    if order < MIN_ORDER:
        raise ValueError(f"order must be >= {MIN_ORDER}, got {order}")
    checks: list[Report] = []
    counts = partition_counts(order)
    partitions = LaurentSeries(0, tuple(counts))

    f1 = _f1(order)
    for m in _CHECK_PERIODS:
        checks.append(_agreement(
            f"f{m}: pentagonal expansion vs Euler's series", order,
            eta.expand_f(m, order), _spread(f1, m, order)))

    for tag, factors in sorted(eta.TARGETS.items()):
        name, expected = (("Durfee-square sum", partitions) if factors == {1: -1} else
                          ("divisor-sum recurrence", direct_eta_product(factors, order)))
        checks.append(_agreement(f"{tag}: quotient expander vs {name}", order,
                                 eta.gen_target(tag, order), expected))

    checks.append(_agreement(
        "k: theta quotient vs divisor-sum recurrence", order,
        eta.expand_k(order), direct_k(order)))

    checks.append(_agreement(
        "1/f1: series inversion vs Durfee-square sum", order,
        eta.expand_f(1, order).invert(order), partitions))

    for modulus, residue in ((5, 4), (7, 5), (11, 6)):
        ns = range(residue, order, modulus)
        witness = next(({"n": n, "value": str(counts[n]), "modulus": modulus}
                        for n in ns if counts[n] % modulus), None)
        checks.append(Report(
            f"p({modulus}n+{residue}) == 0 mod {modulus}",
            FAIL if witness else PASS, order=order,
            checked={"from": ns[0], "to": ns[-1], "points": len(ns)}, witness=witness))

    return checks


__all__ = [
    "cross_check",
    "direct_eta_product",
    "direct_k",
    "partition_counts",
]
