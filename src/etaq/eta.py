"""Expansion of the products f_m = prod_{n>=1} (1 - q^{m n}) and their quotients.

``expand_f`` uses the pentagonal-number expansion of a single factor,
``expand_quotient`` combines powers of several factors, and ``gen_target``
maps the named coefficient families M(n), T*(n), P*(n) (restricted
partition counts) and p(n) to their eta quotients:

    M        f2^5 f5^5 / (f1 f10)
    TSTAR    f1^5 f10^5 / (f2 f5)
    PSTAR    f1^4 f5^4
    EULER_P  1 / f1                 ordinary partitions

Every factor is built at its natural length.  Since f_m(q) = f_1(q^m),
the window [0, N) of f_m^e holds only ceil(N/m) independent coefficients:
f_1^e (a power of f_1 or of 1/f_1) is expanded on ceil(N/m) terms and
then spread to every m-th place.  Before that, a quotient whose periods
share a gcd g > 1 is a series in q^g: the quotient with periods m/g is
expanded to order ceil(N/g) and spread by g, so f2^4 f10^4 costs one
f1^4 f5^4 at half the order.  The full-length products then start from
the first factor.

``expand_k`` expands the level-10 multiplier function

    k(q) = q * prod_{n>=1} (1-q^{10n-9})(1-q^{10n-8})(1-q^{10n-2})(1-q^{10n-1})
               / ((1-q^{10n-7})(1-q^{10n-6})(1-q^{10n-4})(1-q^{10n-3}))

used by the quintic identity catalog, as the theta quotient

    k(q) = q * theta_1 theta_2 / (theta_3 theta_4),
    theta_a = (q^a, q^{10-a}, q^10; q^10)_inf = sum_{j in Z} (-1)^j q^{5j(j-1)+aj}.

The factors (q^10; q^10)_inf cancel, and by the Jacobi triple product each
theta_a is sparse (about 2 sqrt(N/5) nonzero terms below q^N).
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache, reduce
from typing import Mapping

from .series import EmptyWindow, LaurentSeries

TARGETS: dict[str, dict[int, int]] = {
    "M": {1: -1, 2: 5, 5: 5, 10: -1},
    "TSTAR": {1: 5, 2: -1, 5: -1, 10: 5},
    "PSTAR": {1: 4, 5: 4},
    "EULER_P": {1: -1},
}


@lru_cache(maxsize=None)
def expand_f(m: int, order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^{m n}) on the window [0, order).

    Pentagonal-number expansion: the product is the sparse series
    sum_j (-1)^j q^{m j (3j +- 1) / 2}.
    """
    if m < 1:
        raise ValueError(f"period must be >= 1, got {m}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    c = [0] * order
    c[0] = 1
    j = 1
    while True:
        e1 = m * (j * (3 * j - 1) // 2)
        if e1 >= order:
            break
        sign = -1 if j & 1 else 1
        c[e1] += sign
        e2 = m * (j * (3 * j + 1) // 2)
        if e2 < order:
            c[e2] += sign
        j += 1
    return LaurentSeries(0, tuple(c))


def _validate_quotient(factors: Mapping[int, int]) -> None:
    for m, e in factors.items():
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"period must be a positive integer, got {m!r}")
        if not isinstance(e, int) or isinstance(e, bool) or e == 0:
            raise ValueError(f"exponent of f{m} must be a nonzero integer, got {e!r}")


def _pow(s: LaurentSeries, e: int) -> LaurentSeries:
    """s**e for e >= 1 by binary exponentiation."""
    result: LaurentSeries | None = None
    base = s
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    assert result is not None
    return result


def _spread(s: LaurentSeries, m: int, order: int) -> LaurentSeries:
    """s(q^m) on [0, order), for s on [0, ceil(order/m))."""
    if m == 1:
        return s
    c = [0] * order
    c[::m] = s.coeffs
    return LaurentSeries(0, tuple(c))


def _factor(m: int, e: int, order: int) -> LaurentSeries:
    """f_m^e on [0, order): f_1^e on ceil(order/m) terms, spread by m."""
    length = -(-order // m)
    base = expand_f(1, length)
    if e < 0:
        base = base.invert(length)
    return _spread(_pow(base, abs(e)), m, order)


def _expand(items: tuple[tuple[int, int], ...], order: int) -> LaurentSeries:
    """prod f_m^e over items on [0, order), each factor at its natural length."""
    if not items:
        return LaurentSeries.one(order)
    g = math.gcd(*(m for m, _ in items))
    if g > 1:
        reduced = tuple((m // g, e) for m, e in items)
        return _spread(_expand(reduced, -(-order // g)), g, order)
    return reduce(operator.mul, (_factor(m, e, order) for m, e in items))


@lru_cache(maxsize=None)
def _expand_quotient_cached(items: tuple[tuple[int, int], ...], order: int) -> LaurentSeries:
    return _expand(items, order)


def expand_quotient(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod_m f_m^{e_m} on [0, order) for a mapping {period: exponent}.

    The empty mapping gives the constant series 1.  Negative exponents
    invert the corresponding factor; the constant term of the result is
    always 1, so the window is [0, order) exactly.
    """
    _validate_quotient(factors)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _expand_quotient_cached(tuple(sorted(factors.items())), order)


def gen_target(tag: str, order: int) -> LaurentSeries:
    """Generating function of a named coefficient family on [0, order)."""
    try:
        factors = TARGETS[tag]
    except KeyError:
        raise ValueError(f"unknown generating target {tag!r}; expected one of "
                         + ", ".join(sorted(TARGETS))) from None
    return expand_quotient(factors, order)


def _theta(a: int, length: int) -> LaurentSeries:
    """(q^a, q^{10-a}, q^10; q^10)_inf = sum_{j in Z} (-1)^j q^{5j(j-1)+aj} on [0, length).

    For 0 < a < 10, a != 5, the exponents are pairwise distinct and grow
    with |j| on each side of j = 0.
    """
    c = [0] * length
    for j, step in ((0, 1), (-1, -1)):
        while (e := 5 * j * (j - 1) + a * j) < length:
            c[e] = -1 if j & 1 else 1
            j += step
    return LaurentSeries(0, tuple(c))


@lru_cache(maxsize=None)
def expand_k(order: int) -> LaurentSeries:
    """The level-10 multiplier k(q) on the window [1, order).

    k(q) = q * theta_1 theta_2 / (theta_3 theta_4): four sparse theta
    series on order - 1 terms, two series inversions and three products.
    The q prefactor makes the window start at 1.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    length = order - 1
    t1, t2, t3, t4 = (_theta(a, length) for a in (1, 2, 3, 4))
    return (t1 * t2 * t3.invert(length) * t4.invert(length)).shift(1)


class QuotientParseError(ValueError):
    """Bad eta-quotient expression; carries the offending position."""

    def __init__(self, text: str, position: int, reason: str) -> None:
        super().__init__(f"invalid eta quotient at position {position}: {reason} "
                         f"(in {text!r})")
        self.position = position


_FACTOR_RE = re.compile(r"f([0-9]+)(\^[+-]?[0-9]+)?")


def parse_quotient(text: str) -> dict[int, int]:
    """Parse expressions like ``f1^-1*f2^5*f5^5*f10^-1`` to {period: exponent}.

    A bare ``fN`` means exponent 1.  Zero exponents, duplicate periods,
    and stray characters are rejected with their position.
    """
    factors: dict[int, int] = {}
    pos, n = 0, len(text)
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        m = _FACTOR_RE.match(text, pos)
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


__all__ = [
    "TARGETS",
    "EmptyWindow",
    "QuotientParseError",
    "expand_f",
    "expand_k",
    "expand_quotient",
    "gen_target",
    "parse_quotient",
]
