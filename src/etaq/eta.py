"""Expansion of eta quotients and the level-10 multiplier k(q).

Every factor is a Jacobi triple product

    theta(p, a) = (q^a, q^{p-a}, q^p; q^p)_inf
                = sum_{j in Z} (-1)^j q^{p j (j-1)/2 + a j},   0 < a < p,

keyed by (p, a).  It is sparse (about 2 sqrt(2N/p) nonzero terms below
q^N), and ``_theta`` is the only place that generates one.  The eta
product f_m = prod_{n>=1} (1 - q^{m n}) is theta(3m, m), whose
exponents m j (3j - 1)/2 are the pentagonal numbers spread by m; the
multiplier

    k(q) = q * prod_{n>=1} (1-q^{10n-9})(1-q^{10n-8})(1-q^{10n-2})(1-q^{10n-1})
               / ((1-q^{10n-7})(1-q^{10n-6})(1-q^{10n-4})(1-q^{10n-3}))
         = q * theta(10,1) theta(10,2) / (theta(10,3) theta(10,4))

used by the quintic identity catalog is q times a fixed quotient of
(10, a) factors (the factors (q^10; q^10)_inf cancel).

``_expand`` applies one rule at every level.  Let g be the gcd of every
period and every a of a quotient.  If g > 1 the quotient is a series in
q^g: the quotient with (p/g, a/g) is expanded to order ceil(N/g) and
spread by g.  So f_m^e costs f_1^e = theta(3, 1)^e on ceil(N/m) terms,
f2^4 f10^4 costs one f1^4 f5^4 at half the order, and theta(10, 4) is
theta(5, 2) at half length.  A single factor at g = 1 is theta, inverted
when e < 0, then raised to |e|; several factors are the product of their
single-factor expansions.  ``_expand_quotient_cached`` is the only cache.

``gen_target`` maps the named coefficient families M(n), T*(n), P*(n)
(restricted partition counts) and p(n) to their eta quotients:

    M        f2^5 f5^5 / (f1 f10)
    TSTAR    f1^5 f10^5 / (f2 f5)
    PSTAR    f1^4 f5^4
    EULER_P  1 / f1                 ordinary partitions
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Mapping

from .series import EmptyWindow, LaurentSeries

TARGETS: dict[str, dict[int, int]] = {
    "M": {1: -1, 2: 5, 5: 5, 10: -1},
    "TSTAR": {1: 5, 2: -1, 5: -1, 10: 5},
    "PSTAR": {1: 4, 5: 4},
    "EULER_P": {1: -1},
}

# Factors are ((p, a), e) for theta(p, a)^e; k(q) is q times this quotient.
_Items = tuple[tuple[tuple[int, int], int], ...]
_K_ITEMS: _Items = (((10, 1), 1), ((10, 2), 1), ((10, 3), -1), ((10, 4), -1))


def _validate_quotient(factors: Mapping[int, int]) -> None:
    for m, e in factors.items():
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"period must be a positive integer, got {m!r}")
        if not isinstance(e, int) or isinstance(e, bool) or e == 0:
            raise ValueError(f"exponent of f{m} must be a nonzero integer, got {e!r}")


def _theta(period: int, a: int, length: int) -> LaurentSeries:
    """sum_{j in Z} (-1)^j q^{period j(j-1)/2 + a j} on [0, length), 0 < a < period.

    The exponents grow with |j| on each side of j = 0; they coincide
    only when 2a == period, so terms are added, not assigned.
    """
    c = [0] * length
    for j, step in ((0, 1), (-1, -1)):
        while (e := period * j * (j - 1) // 2 + a * j) < length:
            c[e] += -1 if j & 1 else 1
            j += step
    return LaurentSeries(0, tuple(c))


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


def _expand(items: _Items, order: int) -> LaurentSeries:
    """prod theta(p, a)^e over items on [0, order), by the gcd rule above."""
    if not items:
        return LaurentSeries.one(order)
    g = math.gcd(*(n for (p, a), _ in items for n in (p, a)))
    if g > 1:
        reduced = tuple(((p // g, a // g), e) for (p, a), e in items)
        return _spread(_expand(reduced, -(-order // g)), g, order)
    if len(items) > 1:
        return functools.reduce(operator.mul, (_expand((item,), order) for item in items))
    [((p, a), e)] = items
    base = _theta(p, a, order)
    if e < 0:
        base = base.invert(order)
    return _pow(base, abs(e))


_expand_quotient_cached = functools.lru_cache(maxsize=None)(_expand)


def expand_quotient(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod_m f_m^{e_m} on [0, order) for a mapping {period: exponent}.

    The empty mapping gives the constant series 1.  Negative exponents
    invert the corresponding factor; the constant term of the result is
    always 1, so the window is [0, order) exactly.
    """
    _validate_quotient(factors)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _expand_quotient_cached(
        tuple([((3 * m, m), e) for m, e in sorted(factors.items())]), order)


def expand_f(m: int, order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^{m n}) on the window [0, order)."""
    return expand_quotient({m: 1}, order)


def expand_k(order: int) -> LaurentSeries:
    """The level-10 multiplier k(q) on the window [1, order).

    The quotient theta(10,1) theta(10,2) / (theta(10,3) theta(10,4)) on
    order - 1 terms, shifted by the q prefactor to start at 1.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    return _expand_quotient_cached(_K_ITEMS, order - 1).shift(1)


def gen_target(tag: str, order: int) -> LaurentSeries:
    """Generating function of a named coefficient family on [0, order)."""
    try:
        factors = TARGETS[tag]
    except KeyError:
        raise ValueError(f"unknown generating target {tag!r}; expected one of "
                         + ", ".join(sorted(TARGETS))) from None
    return expand_quotient(factors, order)


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
