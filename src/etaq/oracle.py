"""Independent recomputation paths used to validate the fast expander.

Two classical q-series sums (Andrews, The Theory of Partitions, 1976,
ch. 2), and products built from them, none of them the fast expander's
algorithm.  Each sum applies one infinite product (q^r; q^m)_inf to a
window of N terms, one term of the sum at a time:

* Euler's sum multiplies it in,
  (q^r; q^m)_inf = sum_{n>=0} (-1)^n q^(m n(n-1)/2 + r n) / (q^m; q^m)_n,
  building each term's 1/(q^m; q^m)_n from the last by one in-place
  division by (1 - q^(mn)) on the terms that still reach the window:
  about sqrt(2N/m) passes, (2 sqrt 2/3) N^(3/2)/sqrt(m) term operations.
* Cauchy's sum divides it out,
  1/(q^r; q^m)_inf = sum_{n>=0} q^(r n + m n(n-1)) / ((q^m; q^m)_n (q^r; q^m)_n),
  by two such divisions per term, by (1 - q^(mn)) and (1 - q^(m(n-1)+r)):
  about 2 sqrt(N/m) passes, (4/3) N^(3/2)/sqrt(m) term operations.

Each division by (1 - q^d) is a running sum along each residue class
mod d, c[n] += c[n - d] in ascending n, so its per-term work runs in C.

From them:

* Partition counts are Cauchy's sum with r = m = 1, the Durfee-square
  series sum_n p(n) q^n = sum_{k>=0} q^(k^2) / (q;q)_k^2.
* f1 = (q;q)_inf is Euler's sum with r = m = 1,
  sum_{k>=0} (-1)^k q^(k(k+1)/2) / (q;q)_k.
* Eta products prod f_m^{e_m} are built from those two windows.  p on
  the first ceil(N/m0) terms, m0 the smallest period with e < 0, is
  1/f_m0 in q^m0.  The units then run largest period first, each on the
  window reduced by h, the gcd of the periods applied so far, which is
  spread only when h drops.  Each other negative unit divides by
  f_m = (q^m; q^m)_inf with Cauchy's sum, about (4/3) N^(3/2)/(h sqrt(m)).
  Each positive unit adds one shifted copy of the product per nonzero
  term of f1 spread by m/h (about 2 sqrt(2N/3m) of them), about
  N^(3/2)/(h sqrt(m)); the copies are summed one output block at a time.
* k(q) = q prod_r (q^r; q^10)_inf^{a_r}, with a_r = +1 for r = 1, 2, 8, 9
  and -1 for r = 3, 4, 6, 7: four Euler sums and four Cauchy sums.  The
  four with even r run first as (q^(r/2); q^5)_inf sums on ceil((N-1)/2)
  terms, at half their full-window cost: about 2.2 N^(3/2) term
  operations in all.

In ``cross_check`` the Durfee sum is the oracle for 1/f1 (the EULER_P
row and the inversion row) and for the p(mn+r) rows.  Euler's series
gives f1, whose spread f1(q^m) checks every f_m row.  The M, T* and P*
rows are products of those same two windows; the k row is its Euler and
Cauchy product.

None of them shares anything with :mod:`etaq.eta` but its check of a
quotient's periods and exponents, nor with the product kernel of
:mod:`etaq.series`: no theta series, no pentagonal expansion, no
Jacobi cube f_m^3 = sum (-1)^n (2n+1) q^(m n(n+1)/2), no regrouping of
f-factors into theta(2m, m) = f_m^2/f_2m or theta(4m, m) = f_m f_4m/f_2m,
no Kronecker packing, no ``Decimal``, no ``LaurentSeries.invert`` or
division.  Products are built from (1 - q^d) divisions, terms of a sum
and one shifted copy per f1 term, never by multiplying or dividing two
series.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from typing import Mapping, Sequence

from . import eta
from .identities import MIN_ORDER
from .series import LaurentSeries, Report, compare


def _over_binomial(c: list[int], d: int) -> None:
    """c /= (1 - q^d) in place: a running sum along each residue class mod d.

    c[n] += c[n - d] in ascending n is, for each r < d, the prefix sum of
    c[r], c[r + d], c[r + 2d], ...; classes with one term are left as is.
    When there are fewer blocks of d terms after the first than classes
    with more than one term, the same sums run block by block instead:
    each block adds the one before it, which already holds its sums.
    """
    n = len(c)
    if -(-n // d) - 1 < min(d, n - d):
        for s in range(d, n, d):
            c[s:s + d] = map(operator.add, c[s:s + d], c[s - d:s])
    else:
        for r in range(min(d, n - d)):
            c[r::d] = itertools.accumulate(c[r::d])


def _times_pochhammer(c: list[int], r: int, m: int) -> None:
    """c *= (q^r; q^m)_inf in place, by Euler's sum.

    (q^r; q^m)_inf = sum_{n>=0} (-1)^n q^(s_n) / (q^m; q^m)_n with
    s_n = m n(n-1)/2 + r n.  Step n divides the tail t = c/(q^m; q^m)_(n-1),
    cut to the len(c) - s_n terms that reach the window, by (1 - q^(mn))
    and adds or subtracts it at q^(s_n): about sqrt(2 len(c)/m) passes.
    """
    t = c[:]
    n = 1
    while (s := m * n * (n - 1) // 2 + r * n) < len(c):
        del t[len(c) - s:]
        _over_binomial(t, m * n)
        c[s:] = map(operator.sub if n % 2 else operator.add, c[s:], t)
        n += 1


def _over_pochhammer(c: list[int], r: int, m: int) -> None:
    """c /= (q^r; q^m)_inf in place, by Cauchy's sum.

    1/(q^r; q^m)_inf = sum_{n>=0} q^(s_n) / ((q^m; q^m)_n (q^r; q^m)_n)
    with s_n = r n + m n(n-1).  Step n divides the tail, cut to the
    len(c) - s_n terms that reach the window, by (1 - q^(mn)) and by
    (1 - q^(m(n-1)+r)) and adds it at q^(s_n): about 2 sqrt(len(c)/m)
    passes.  With r = m = 1 this is the Durfee-square sum
    sum_n q^(n^2) / (q;q)_n^2.
    """
    t = c[:]
    n = 1
    while (s := r * n + m * n * (n - 1)) < len(c):
        del t[len(c) - s:]
        _over_binomial(t, m * n)
        _over_binomial(t, m * (n - 1) + r)
        c[s:] = map(operator.add, c[s:], t)
        n += 1


def partition_counts(order: int) -> list[int]:
    """p(0), ..., p(order-1) by the Durfee-square sum sum_n q^(n^2)/(q;q)_n^2."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    p = [1] + [0] * (order - 1)
    _over_pochhammer(p, 1, 1)
    return p


def _f1(order: int) -> list[int]:
    """(q;q)_inf on [0, order) by Euler's sum sum_n (-1)^n q^(n(n+1)/2)/(q;q)_n."""
    f = [1] + [0] * (order - 1)
    _times_pochhammer(f, 1, 1)
    return f


def _eta_product(factors: Mapping[int, int], order: int,
                 f1: Sequence[int], p: Sequence[int]) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order) from windows of f1 and p = 1/f1.

    The smallest period m0 with e < 0 starts the product as the first
    ceil(order/m0) terms of p, which is 1/f_m0 in q^m0; with no negative
    unit it starts as 1, in q^m for the largest period m.  The units then
    run largest period first, each on the window reduced by h, the gcd of
    the periods applied so far: ceil(order/h) terms, with f_m as a unit of
    period m/h.  The window is spread only when h drops, so a unit runs
    on the shortest window that holds it.  Every other negative unit
    divides by f_m = (q^m; q^m)_inf with Cauchy's sum; every positive unit
    multiplies by f1 spread by m/h with ``_times_f1``.
    """
    exponents = dict(factors)
    negative = [m for m, e in factors.items() if e < 0]
    if negative:
        h = min(negative)
        out = list(p[:-(-order // h)])
        exponents[h] += 1
    else:
        h = max(factors, default=1)
        out = [1] + [0] * (-(-order // h) - 1)
    for m, e in sorted(exponents.items(), reverse=True):
        if m % h and e:
            g = math.gcd(h, m)
            out = _widen(out, h // g, -(-order // g))
            h = g
        for _ in range(-e):
            _over_pochhammer(out, m // h, m // h)
        for _ in range(e):
            _times_f1(out, f1, m // h)
    return _spread(out, h, order)


def _widen(c: Sequence[int], s: int, n: int) -> list[int]:
    """sum_i c[i] q^(s i) on n terms, for a window c of exactly ceil(n/s) terms."""
    wide = [0] * n
    wide[::s] = c
    return wide


# Output terms per block of _times_f1: each block sums its shifted slices
# with one zip, so a longer block means fewer Python-level iterations but
# more slices of zeros for the terms that start inside it.  The f1 passes
# at order 2000 time flat from 128 to 512 and slower at 64 and 1024.
_BLOCK = 256


def _times_f1(c: list[int], f1: Sequence[int], m: int) -> None:
    """c *= f1(q^m) in place: one shifted copy of c per nonzero term of f1(q^m).

    Each nonzero term of f1 is +1 or -1 (Euler's pentagonal number
    theorem), so term q^j adds c shifted by j, or its negation; q^0 is c
    itself.  The copies are summed one output block [a, b) at a time, in
    one ``map(sum, zip(...))`` over the slices of the terms j < b (a
    bisection of their sorted exponents): a plus term reads the copy of c,
    a minus term the negated copy.  Both are padded with _BLOCK - 1 zeros
    in front, so a term that starts inside the block reads zeros below q^0.
    """
    n = len(c)
    pad = _BLOCK - 1
    padded = [0] * pad + c
    negated = list(map(operator.neg, padded))
    terms = [(m * i, padded if f1[i] > 0 else negated)
             for i in itertools.compress(range(-(-n // m)), f1)]
    exponents = [j for j, _ in terms]
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        lo, hi = a + pad, b + pad
        c[a:b] = map(sum, zip(*(w[lo - j:hi - j] for j, w in terms[:bisect_left(exponents, b)])))


def direct_eta_product(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order): a series in q^g, g the gcd of the periods.

    Builds f1 and p only on the terms the reduced periods reach.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    eta._validate_quotient(factors)
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


# a_r of k(q) = q prod_r (q^r; q^10)_inf^{a_r}, so a_d = a_(d mod 10) for each
# (1 - q^d): upstairs in r = 1,2,8,9, downstairs in 3,4,6,7.
_K_EXPONENT = {1: 1, 2: 1, 8: 1, 9: 1, 3: -1, 4: -1, 6: -1, 7: -1}


def direct_k(order: int) -> LaurentSeries:
    """k(q) on [1, order): q prod_r (q^r; q^10)_inf^{a_r} with a_r = _K_EXPONENT[r].

    Euler's sum multiplies in each (q^r; q^10)_inf with a_r = 1, and
    Cauchy's sum divides by each one with a_r = -1.  The four factors with
    even r form a series in q^2, so they run first, as (q^(r/2); q^5)_inf
    sums on the ceil((order - 1)/2) terms that hold them; that window is
    then spread by 2 for the four factors with odd r.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    c = [1] + [0] * (order // 2 - 1)
    for r, a in _K_EXPONENT.items():
        if r % 2 == 0:
            (_times_pochhammer if a > 0 else _over_pochhammer)(c, r // 2, 5)
    c = _widen(c, 2, order - 1)
    for r, a in _K_EXPONENT.items():
        if r % 2:
            (_times_pochhammer if a > 0 else _over_pochhammer)(c, r, 10)
    return LaurentSeries(1, tuple(c))


def _agreement(name: str, order: int, a: LaurentSeries, b: LaurentSeries) -> Report:
    """Compare a and b on their common window; witness the first mismatch."""
    return Report.of(name, None, order, compare(a, b, min_overlap=1))


_CHECK_PERIODS = (1, 2, 4, 5, 8, 10, 20, 40)


def cross_check(order: int) -> list[Report]:
    """Compare the fast expander against the brute-force paths.

    Covers every period used by the identity catalog (each f_m through
    the quotient expander, the path the verifiers use), all four named
    generating targets, k(q) (the theta quotient against its Euler and
    Cauchy product), the inversion path (1/f1 against the partition
    counts), and the classical partition congruences p(5n+4) == 0 mod 5,
    p(7n+5) == 0 mod 7, p(11n+6) == 0 mod 11 as a sanity gate on the
    oracle itself.

    Each oracle sequence is built once:

    * the Durfee-square sum (``partition_counts``, about N^(3/2) term
      operations) checks the EULER_P row, the 1/f1 row and the three
      p(mn+r) rows;
    * Euler's series for f1 (``_f1``, about N^(3/2)) checks every f_m
      row, as f1 spread by m;
    * ``_eta_product`` builds M, T* and P* from those two windows (one
      Cauchy sum per negative unit after the first, about
      (4/3) N^(3/2)/(h sqrt(m)), and N^(3/2)/(h sqrt(m)) per positive
      one, h the gcd of the periods applied so far: P*'s four f5 units
      run on ceil(N/5) terms and T*'s five f10 units on ceil(N/2)), and
      ``direct_k`` builds k(q) from four Euler and four Cauchy sums on
      (q^r; q^10)_inf, the four with even r on ceil((N-1)/2) terms, about
      2.2 N^(3/2).

    Every division by (1 - q^d) is a running sum per residue class mod
    d, and each positive unit's shifted copies are block-summed, so the
    term operations above run in C rather than one Python step each.
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
        "k: theta quotient vs Euler and Cauchy series", order,
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
