"""Independent recomputation paths used to validate the fast expander.

Two series sums, and products built from them, none of them the fast
expander's algorithm:

* Partition counts sum the Durfee-square series (Andrews, The Theory of
  Partitions, 1976, ch. 2)
  sum_n p(n) q^n = sum_{k>=0} q^(k^2) / (q;q)_k^2,
  building 1/(q;q)_k^2 from 1/(q;q)_{k-1}^2 by two in-place divisions by
  (1 - q^k), each on the order - k^2 terms that can still reach the
  window: about (4/3) N^(3/2) term operations.
* f1 = (q;q)_inf sums Euler's series
  (q;q)_inf = sum_{k>=0} (-1)^k q^(k(k+1)/2) / (q;q)_k
  in the same way, one division by (1 - q^k) per term: about N^(3/2).
* Eta products prod f_m^{e_m} are built from those two windows on the
  window reduced by the gcd of the periods.  p spread by the smallest
  period m0 with e < 0 is 1/f_m0.  Each other negative unit divides by
  (1 - q^d) for d = m, 2m, ..., about N^2/(2m) term operations.  Each
  positive unit adds one shifted copy of the product per nonzero term of
  f1 spread by m (about 2 sqrt(2N/3m) of them), about N^(3/2)/sqrt(m).
* k(q) is its literal product q prod_{d>=1} (1 - q^d)^{a_d}, with a_d
  = +1, -1 or 0 by d mod 10: one shifted subtraction or one division by
  (1 - q^d) per factor, about 0.4 N^2 term operations in all.

In ``cross_check`` the Durfee sum is the oracle for 1/f1 (the EULER_P
row and the inversion row) and for the p(mn+r) rows.  Euler's series
gives f1, whose spread f1(q^m) checks every f_m row.  The M, T* and P*
rows are products of those same two windows; the k row is its literal
product.

None of them shares anything with :mod:`etaq.eta` or the product kernel
of :mod:`etaq.series`: no theta series, no pentagonal numbers, no
Jacobi cube f_m^3 = sum (-1)^n (2n+1) q^(m n(n+1)/2), no regrouping of
f-factors into theta(2m, m) = f_m^2/f_2m or theta(4m, m) = f_m f_4m/f_2m,
no Kronecker packing, no ``Decimal``, no ``LaurentSeries.invert`` or
division.  Products are built one (1 - q^d) factor or one f1 term at a
time, never by multiplying or dividing two series.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Sequence

from . import eta
from .identities import MIN_ORDER
from .series import LaurentSeries, Report, compare


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


def _eta_product(factors: Mapping[int, int], order: int,
                 f1: Sequence[int], p: Sequence[int]) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order) from windows of f1 and p = 1/f1.

    On the window reduced by g, the gcd of the periods, each reduced
    period m needs the first ceil(n/m) terms of f1 (if e_m > 0) or of p
    (if e_m < 0), n = ceil(order/g).  The smallest negative period m0
    starts the product as p spread by m0, which is 1/f_m0; every other
    negative unit divides by (1 - q^d) for d = m, 2m, ...; every positive
    unit adds or subtracts one shifted copy of the product per nonzero
    term of f1 spread by m (each such term is +1 or -1, by Euler's
    pentagonal number theorem).
    """
    g = math.gcd(*factors) or 1
    n = -(-order // g)
    units = sorted((m // g, e) for m, e in factors.items())
    negative = [(m, -e) for m, e in units if e < 0]
    positive = [(m, e) for m, e in units if e > 0]
    if negative:
        m0, e0 = negative[0]
        out = list(_spread(p, m0, n).coeffs)
        negative[0] = (m0, e0 - 1)
    else:
        out = [1] + [0] * (n - 1)
    for m, e in negative:
        for _ in range(e):
            for d in range(m, n, m):
                _over_binomial(out, d)
    for m, e in positive:
        terms = [(m * i, operator.add if v > 0 else operator.sub)
                 for i, v in enumerate(f1[1:-(-n // m)], 1) if v]
        for _ in range(e):
            c = out[:]
            for j, op in terms:
                out[j:] = map(op, out[j:], c[:n - j])
    return _spread(out, g, order)


def direct_eta_product(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order): a series in q^g, g the gcd of the periods.

    Builds f1 and p only on the terms the reduced periods reach.
    """
    for m, e in factors.items():
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"period must be a positive integer, got {m!r}")
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent of f{m} must be an integer, got {e!r}")
        if e == 0:
            raise ValueError(f"exponent of f{m} must be nonzero")
    # The smallest period of each sign reaches ceil(order/m) terms of f1 or p.
    f1_terms, p_terms = (max((-(-order // m) for m, e in factors.items() if e * sign > 0),
                             default=0) for sign in (1, -1))
    f1 = _f1(f1_terms) if f1_terms else []
    p = partition_counts(p_terms) if p_terms else []
    return _eta_product(factors, order, f1, p)


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
    """k(q) on [1, order): q prod (1 - q^d)^{a_d} with a_d = _K_EXPONENT[d % 10].

    The literal product, one (1 - q^d) factor at a time: a subtraction of
    the product shifted by d when a_d = 1, a division when a_d = -1.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    c = [1] + [0] * (order - 2)
    for d in range(1, order - 1):
        a = _K_EXPONENT.get(d % 10)
        if a == 1:
            c[d:] = map(operator.sub, c[d:], c[:len(c) - d])
        elif a == -1:
            _over_binomial(c, d)
    return LaurentSeries(1, tuple(c))


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

    Each oracle sequence is built once:

    * the Durfee-square sum (``partition_counts``, about N^(3/2) term
      operations) checks the EULER_P row, the 1/f1 row and the three
      p(mn+r) rows;
    * Euler's series for f1 (``_f1``, about N^(3/2)) checks every f_m
      row, as f1 spread by m;
    * ``_eta_product`` builds M, T* and P* from those two windows (about
      N^2/(2m) per negative unit after the first, N^(3/2)/sqrt(m) per
      positive one), and ``direct_k`` builds k(q) as its literal
      product, about 0.4 N^2.
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
                          ("Euler-series product", _eta_product(factors, order, f1, counts)))
        checks.append(_agreement(f"{tag}: quotient expander vs {name}", order,
                                 eta.gen_target(tag, order), expected))

    checks.append(_agreement(
        "k: theta quotient vs literal product", order,
        eta.expand_k(order), direct_k(order)))

    checks.append(_agreement(
        "1/f1: series inversion vs Durfee-square sum", order,
        eta.expand_f(1, order).invert(order), partitions))

    # Each row scans the arguments of p, so its window counts those; a
    # witness names the label's n and the argument apart.
    for modulus, residue in ((5, 4), (7, 5), (11, 6)):
        arguments = range(residue, order, modulus)
        checks.append(Report.scan(
            f"p({modulus}n+{residue}) == 0 mod {modulus}", None, order, arguments,
            ({"n": (x - residue) // modulus, "argument": x, "value": str(counts[x]),
              "modulus": modulus}
             for x in arguments if counts[x] % modulus)))

    return checks


__all__ = [
    "cross_check",
    "direct_eta_product",
    "direct_k",
    "partition_counts",
]
