"""Expansion of eta quotients and the level-10 multiplier k(q).

Every factor is a Jacobi triple product

    theta(p, a) = (q^a, q^{p-a}, q^p; q^p)_inf
                = sum_{j in Z} (-1)^j q^{p j (j-1)/2 + a j},   0 < a < p,

keyed by (p, a).  It is sparse (about 2 sqrt(2N/p) nonzero terms below
q^N; half as many for p = 2a, whose terms pair up as +-2), and
``_theta`` is the only place that generates one.  The eta product f_m =
prod_{n>=1} (1 - q^{m n}) is theta(3m, m), whose exponents m j (3j -
1)/2 are the pentagonal numbers spread by m.  Two more triple products
are quotients of them,

    theta(2m, m) = f_m^2 / f_2m = sum_j (-1)^j q^{m j^2},
    theta(4m, m) = f_m f_4m / f_2m,

and Jacobi's identity gives the cube f_m^3 = sum_{n>=0} (-1)^n (2n+1)
q^{m n(n+1)/2} (``_cube``), which has fewer terms than f_m itself.  The
multiplier

    k(q) = q * prod_{n>=1} (1-q^{10n-9})(1-q^{10n-8})(1-q^{10n-2})(1-q^{10n-1})
               / ((1-q^{10n-7})(1-q^{10n-6})(1-q^{10n-4})(1-q^{10n-3}))
         = q * theta(10,1) theta(10,2) / (theta(10,3) theta(10,4))

used by the quintic identity catalog is q times a fixed quotient of
(10, a) factors (the factors (q^10; q^10)_inf cancel).  ``_k_part`` is
its one expansion: k^j B^J, with B = theta(10,3) theta(10,4), is the
quotient q^j A^j B^(J-j) (``expand_k`` is j = 1, J = 0), so its windows
are cached as below and B's factors divide as sparse thetas.

``_expand`` applies one rule at every level.  Let g be the gcd of every
period and every a of a quotient.  The quotient is a series in q^g, g = 1
included: the quotient with (p/g, a/g) is expanded to order ceil(N/g)
and spread by g.  So f_m^e costs f_1^e = theta(3, 1)^e on ceil(N/m) terms,
f2^4 f10^4 costs one f1^4 f5^4 at half the order, and theta(10, 4) is
theta(5, 2) at half length.  At g = 1, on a cache miss, the plain
factors are first regrouped (``_regroup``): for each period m, smallest
first, as many theta(4m, m) and then theta(2m, m) as the signs of the
exponents of f_m, f_2m and f_4m allow replace them.  Then each sign has
one rule.  A quotient with a negative factor expands its positive
factors first (1 when it has none) and then divides that window by a
sparse series once per unit of each negative exponent, where f_m^-e
takes e // 3 divisions by Jacobi's f_m^3 and e mod 3 by theta(3m, m):
each division costs N times the series' support and no wide product.
The divisors with gcd(p, a) > 1 (f5, f10^3, theta(10, 5), ...), when
they share a g > 1, divide every residue class mod g at once: their
reduced series divide ceil(N/g) positions that pack one class per lane.
One plan per quotient (``_division_plan``) decides this, and the cap.
The target M = f2^5 f5^5 / (f1 f10) is f2^5 f5^3 theta(10, 5) divided
by theta(3, 1), and 1/f1^3 is 1 divided by f1^3 once.  Positive factors
are peeled off one at a time (``_expand_reduced``): the factor with the
smallest gcd(p, a) is expanded alone, the rest as one quotient, which
this rule reduces by the rest's own g, and only their product costs N
terms.  That product is one product per residue class mod the rest's
g: class r of the head's window times the rest's reduced window, on
ceil(N/g) terms, is class r of the product, so the rest is never spread.
With g = 1 that is one product of length N, and below order g each
class holds one term.  A single factor is theta raised to e, and f1^e
for e >= 3 is (f1^3)^(e // 3) times theta(3, 1)^(e mod 3).  A cache
entry is keyed by the quotient as requested, not as regrouped, so a hit
regroups nothing.

``_expand_quotient_cached`` is the only cache.  It keeps one entry per
quotient with g = 1 (a single factor or a product), holding the longest
window expanded so far.  Windows are prefix-stable: a higher order never
changes a coefficient already claimed.  So a request at or below the
stored length is served from the entry (the stored series itself, or
its prefix), and a longer request expands afresh and replaces it.  Every
level of ``_expand`` with g = 1, each single factor included, goes
through the cache, so factors are shared across quotients and orders:
f5 on N terms is the first ceil(N/5) terms of a stored f1 window, and
f2^4 f10^4 is a stored f1^4 f5^4 window spread by 2.  A quotient with
g > 1 is not stored but spread from its reduced window on each request,
which keeps the cached bytes under half of what storing every level
takes.  Once the cached coefficient objects pass ``_CACHE_BYTES``, the
least recently used windows are dropped.  ``cache_info()`` reads the
cache's counters.

``TARGET_ROWS`` holds one row per named target, and ``gen_target``
expands its quotient: the restricted partition counts M(n), T*(n), P*(n)
and the partitions p(n) (EULER_P).  The first three rows, in Theorem 3.1's
order, also hold the name a claim prints, as in M(2n+3), the family of
the target's Theorem 3.1 coordinates and its level-one statement's tag.
"""

from __future__ import annotations

import math
import re
import sys
from collections import OrderedDict, namedtuple
from typing import Mapping

from .series import EmptyWindow, LaurentSeries, SeriesError, _lanes, _unlanes

Target = namedtuple("Target", "quotient name family level_one", defaults=(None,) * 3)
TARGET_ROWS: dict[str, Target] = {
    "M": Target({1: -1, 2: 5, 5: 5, 10: -1}, "M", "A", "EQ210"),
    "TSTAR": Target({1: 5, 2: -1, 5: -1, 10: 5}, "T*", "B", "EQ211"),
    "PSTAR": Target({1: 4, 5: 4}, "P*", "C", "L22"),
    "EULER_P": Target({1: -1}),
}
TARGETS: dict[str, dict[int, int]] = {tag: row.quotient for tag, row in TARGET_ROWS.items()}

# Factors are ((p, a), e) for theta(p, a)^e.
_Items = tuple[tuple[tuple[int, int], int], ...]
_Plan = list[tuple[int, int, list[tuple[LaurentSeries, int]]]]


def _validate_quotient(factors: Mapping[int, int]) -> None:
    for m, e in factors.items():
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"period must be a positive integer, got {m!r}")
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"exponent of f{m} must be an integer, got {e!r}")
        if e == 0:
            raise ValueError(f"exponent of f{m} must be nonzero")


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


def _cube(m: int, length: int) -> LaurentSeries:
    """Jacobi's f_m^3 = sum_{n>=0} (-1)^n (2n+1) q^{m n(n+1)/2} on [0, length)."""
    c = [0] * length
    n = 0
    while (e := m * n * (n + 1) // 2) < length:
        c[e] = -2 * n - 1 if n & 1 else 2 * n + 1
        n += 1
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
    """prod theta(p, a)^e over items on [0, order), by the gcd rule above.

    The reduced quotient goes through the window cache and is spread by
    g on every call, which returns it unchanged at g = 1: a quotient with
    g > 1 is never stored.
    """
    if not items:
        return LaurentSeries.one(order)
    g, reduced = _reduce(items)
    return _spread(_expand_quotient_cached(reduced, -(-order // g)), g, order)


def _reduce(items: _Items) -> tuple[int, _Items]:
    """g, the gcd of every period and every a of items, and items with (p/g, a/g)."""
    g = math.gcd(*(n for (p, a), _ in items for n in (p, a)))
    return g, tuple(((p // g, a // g), e) for (p, a), e in items)


# Most term operations one quotient's divisions may take: dividing a
# window of N terms by a sparse series takes N times its nonzero terms
# below q^N.  At the CLI's largest order ``verify all --kmax 8`` plans at
# most 6.1M (EQ213's theta(10, 5)^2 theta(20, 5)^2) and ``oracle
# cross-check`` 5.1M (k's theta(10, 3) theta(10, 4)), and k^2 in the
# full sides of EQ24-EQ26 10.2M; ``expand "f1^-27"``,
# nine divisions by Jacobi's f1^3, plans 36.0M and takes about 7 s, while
# ``"f1^-28"`` would plan 40.6M and ``"f1^-100"`` 136.6M.  The plan counts
# full-length term operations even for the divisions run on lanes.
_MAX_DIVISION_WORK = 40_000_000


class DivisionTooLarge(SeriesError):
    """A quotient's divisions would take more than ``_MAX_DIVISION_WORK``
    term operations."""


def _sparse_powers(p: int, a: int, e: int, order: int) -> list[tuple[LaurentSeries, int]]:
    """theta(p, a)^|e| on [0, order) as (sparse series, power) pairs.

    A plain factor f_m = theta(3m, m) is |e| // 3 times Jacobi's f_m^3
    and |e| mod 3 times theta itself; any other theta is |e| times itself.
    """
    if p != 3 * a or abs(e) < 3:
        return [(_theta(p, a, order), abs(e))]
    cubes, rest = divmod(abs(e), 3)
    return [(_cube(a, order), cubes)] + ([(_theta(p, a, order), rest)] if rest else [])


def _lane_width(norm: int, units: int, n: int) -> int:
    """Bytes w with |c| < 2**(8w - 1) for every coefficient c of a / D on n
    terms, where norm = sum |a| and 1/D <= 1/(q; q)^units coefficientwise.

    |c_k| <= norm * p_units(k), and p_E(k) < exp(pi sqrt(2Ek/3)) for k >= 1
    (from log P_E(x) <= E pi^2 x / (6(1 - x))); one bit more holds the
    sign and one the float error.
    """
    bits = math.ceil(math.pi * math.sqrt(2 * units * (n - 1) / 3) / math.log(2))
    return (norm.bit_length() + bits + 9) // 8


def _division_plan(divisors: list[tuple[tuple[int, int], int]], order: int) -> _Plan:
    """Steps (g, units, [(sparse series, count), ...]) dividing a window on
    [0, order) by the divisors ((p, a), e), e < 0.

    Those with gcd(p, a) > 1, when they share a g > 1, are one step on
    lanes, their reduced series on ceil(order/g) terms; the rest are one
    step at g = 1.  A reduced theta holds each factor (1 - q^k) at most
    once per unit of |e|, theta(2m, m) its odd multiples of m twice, so
    1/D <= 1/(q; q)^units.  ``DivisionTooLarge`` is raised before any
    division when the work, count * order * nonzero terms summed, passes
    the cap: a reduced series has as many below ceil(order/g) as its
    spread by g has below order.
    """
    g, reduced = _reduce([x for x in divisors if math.gcd(*x[0]) > 1])
    rest = [x for x in divisors if math.gcd(*x[0]) == 1]
    steps = ((g, reduced), (1, rest)) if g > 1 else ((1, divisors),)
    plan = [(g, sum(abs(e) * (2 if p == 2 * a else 1) for (p, a), e in items),
             [x for (p, a), e in items for x in _sparse_powers(p, a, e, -(-order // g))])
            for g, items in steps if items]
    series = [x for _, _, step in plan for x in step]
    work = sum(count * order * (len(s.coeffs) - s.coeffs.count(0)) for s, count in series)
    if work > _MAX_DIVISION_WORK:
        raise DivisionTooLarge(
            f"{sum(count for _, count in series)} divisions by sparse series on {order} terms "
            f"need {work} term operations, above the cap of {_MAX_DIVISION_WORK}")
    return plan


def _divide(window: LaurentSeries, plan: _Plan) -> LaurentSeries:
    """``window`` divided by each step of a plan; at g > 1 it is packed one
    residue class mod g per lane and divided as at g = 1."""
    for g, units, series in plan:
        if g > 1:
            w = _lane_width(sum(map(abs, window.coeffs)), units, len(series[0][0].coeffs))
            packed = _divide(LaurentSeries(0, _lanes(window.coeffs, g, w)), [(1, 0, series)])
            window = LaurentSeries(0, _unlanes(packed.coeffs, g, w)[:len(window.coeffs)])
        else:
            for divisor, count in series:
                for _ in range(count):
                    window = window / divisor
    return window


# theta(4m, m) = f_m f_4m / f_2m and theta(2m, m) = f_m^2 / f_2m, with the
# exponents of f_m, f_2m and f_4m that one factor of each takes.
_REGROUPINGS = (((4, 1), {1: 1, 4: 1, 2: -1}), ((2, 1), {1: 2, 2: -1}))


def _regroup(items: _Items) -> _Items:
    """``items`` with plain factors f_m = theta(3m, m) regrouped into sparser thetas.

    For each period m, smallest first, as many theta(4m, m) and then
    theta(2m, m) are taken as the signs and sizes of the exponents allow,
    each with the sign of f_m's exponent.
    """
    exponents = {a: e for (p, a), e in items if p == 3 * a}
    out = [x for x in items if x[0][0] != 3 * x[0][1]]
    for m in sorted(exponents):
        for (p, a), takes in _REGROUPINGS:
            if not exponents[m]:
                break
            sign = 1 if exponents[m] > 0 else -1
            t = min(exponents.get(k * m, 0) * sign // n for k, n in takes.items())
            if t > 0:
                for k, n in takes.items():
                    exponents[k * m] -= sign * t * n
                out.append(((p * m, a * m), sign * t))
    out += [((3 * m, m), e) for m, e in exponents.items() if e]
    return tuple(sorted(out))


def _expand_reduced(items: _Items, order: int) -> LaurentSeries:
    """``_expand`` of a quotient with g = 1, on a cache miss.

    The plain factors are first regrouped (``_regroup``).  A quotient with
    a negative factor expands its positive factors (1 when it has none),
    then divides that window as ``_division_plan`` plans: first, on
    ceil(order/g) packed positions, by the divisors whose gcd(p, a) > 1
    when they share a g > 1, then by the rest at full length.  Otherwise
    the factor with the smallest gcd(p, a), the first of equals, is
    multiplied by the rest expanded as one quotient, one residue class
    mod the rest's g at a time: one product when g = 1, and one-term
    products below order g.  A single factor is the product of its
    sparse series' powers.
    """
    items = _regroup(items)
    divisors = [x for x in items if x[1] < 0]
    if divisors:
        plan = _division_plan(divisors, order)
        return _divide(_expand(tuple(x for x in items if x[1] > 0), order), plan)
    if len(items) > 1:
        # The factor with the smallest gcd has the longest window, so expanding
        # it first lets a later reduced factor with its key read a cached prefix.
        first = min(items, key=lambda x: math.gcd(*x[0]))
        head = _expand((first,), order)
        # The rest is a series in q^g, g = 1 included: each residue class of
        # the head mod g times the rest's reduced window is that class of the
        # product, and below order g each class holds one term.
        g, reduced = _reduce(tuple(x for x in items if x != first))
        window = _expand_quotient_cached(reduced, -(-order // g))
        c = [0] * order
        for r in range(min(g, order)):
            c[r::g] = (LaurentSeries(0, head.coeffs[r::g]) * window).coeffs
        return LaurentSeries(0, tuple(c))
    [((p, a), e)] = items
    window, *rest = [_pow(s, n) for s, n in _sparse_powers(p, a, e, order)]
    return window * rest[0] if rest else window


# Bytes of cached coefficient objects (each int and each coefficient
# tuple, as sys.getsizeof counts them) above which the window cache drops
# its least recently used windows.  ``verify all`` caches 3.87 MB at order
# 2000 and 15.7 MB at order 8000, so this holds every window up to about
# order 4300; twice as much saved no time at order 8000 and cost 1 MB RSS
# when the battery cached 12.4 MB there.
_CACHE_BYTES = 8 * 2**20


def _prefix(window: LaurentSeries, order: int) -> LaurentSeries:
    """``window`` on [0, order), for order at most its length."""
    return window if len(window.coeffs) == order else LaurentSeries(0, window.coeffs[:order])


class _WindowCache:
    """The longest window expanded so far for each items key.

    A request at or below the stored length is served from it: the
    stored series itself when the lengths match, else its prefix, which
    the soundness invariant makes the exact shorter window.  A longer
    request expands afresh and replaces the entry.  Least recently used
    windows are dropped while the stored bytes exceed ``_CACHE_BYTES``.
    """

    def __init__(self) -> None:
        self.cache_clear()

    def cache_clear(self) -> None:
        """Drop every window and zero the counters."""
        self._windows: OrderedDict[_Items, tuple[LaurentSeries, int]] = OrderedDict()
        self._bytes = 0
        self._hits = self._prefix_hits = self._misses = self._evictions = 0

    def info(self) -> dict[str, int]:
        return {"hits": self._hits, "prefix_hits": self._prefix_hits,
                "misses": self._misses, "entries": len(self._windows),
                "bytes": self._bytes, "evictions": self._evictions}

    def __call__(self, items: _Items, order: int) -> LaurentSeries:
        entry = self._windows.get(items)
        if entry is not None and len(entry[0].coeffs) >= order:
            self._windows.move_to_end(items)
            if len(entry[0].coeffs) == order:
                self._hits += 1
            else:
                self._prefix_hits += 1
            return _prefix(entry[0], order)
        self._misses += 1
        window = _expand_reduced(items, order)
        # The factor expansions above may have evicted a shorter window of this key.
        old = self._windows.pop(items, None)
        if old is not None:
            self._bytes -= old[1]
        # int.__sizeof__ is sys.getsizeof without the GC header, which ints lack.
        size = sys.getsizeof(window.coeffs) + sum(map(int.__sizeof__, window.coeffs))
        self._windows[items] = (window, size)
        self._bytes += size
        while self._bytes > _CACHE_BYTES:
            self._bytes -= self._windows.popitem(last=False)[1][1]
            self._evictions += 1
        return window


_expand_quotient_cached = _WindowCache()


def cache_info() -> dict[str, int]:
    """A snapshot of the window cache's counters.

    ``hits`` counts requests served by a stored window of their exact
    length, ``prefix_hits`` those served by the prefix of a longer one,
    and ``misses`` those expanded afresh and stored; ``entries`` and
    ``bytes`` measure what is stored, and ``evictions`` counts windows
    dropped for the budget.  Changing the dict changes nothing.
    """
    return _expand_quotient_cached.info()


def expand_quotient(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod_m f_m^{e_m} on [0, order) for a mapping {period: exponent}.

    The empty mapping gives the constant series 1.  Negative exponents
    divide by the corresponding factor; the constant term of the result
    is always 1, so the window is [0, order) exactly.
    """
    _validate_quotient(factors)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _expand(
        tuple([((3 * m, m), e) for m, e in sorted(factors.items())]), order)


def expand_f(m: int, order: int) -> LaurentSeries:
    """prod_{n>=1} (1 - q^{m n}) on the window [0, order)."""
    return expand_quotient({m: 1}, order)


def expand_k(order: int) -> LaurentSeries:
    """The level-10 multiplier k(q) on the window [1, order)."""
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    return _k_part(1, 0, order)


def _k_part(j: int, power: int, order: int) -> LaurentSeries:
    """k^j B^power = q^j A^j B^(power - j) on k^j's window [j, j + order - (j > 0)).

    With A = theta(10, 1) theta(10, 2) and B = theta(10, 3) theta(10, 4),
    k = q A / B on [1, order): its quotient holds order - 1 terms.
    """
    items = tuple(((10, a), e) for a, e in ((1, j), (2, j), (3, power - j), (4, power - j)) if e)
    return _expand(items, order - (j > 0)).shift(j)


def gen_target(tag: str, order: int) -> LaurentSeries:
    """Generating function of a named coefficient family on [0, order)."""
    if tag not in TARGETS:
        raise ValueError(f"unknown generating target {tag!r}; expected one of "
                         + ", ".join(sorted(TARGETS)))
    return expand_quotient(TARGETS[tag], order)


class QuotientParseError(ValueError):
    """Bad eta-quotient expression; carries the offending position."""

    def __init__(self, text: str, position: int, reason: str) -> None:
        super().__init__(f"invalid eta quotient at position {position}: {reason} "
                         f"(in {text!r})")
        self.position = position


_FACTOR_RE = re.compile(r"\s*f([0-9]+)(\^[+-]?[0-9]+)?\s*")


def _integer(text: str, at: int, what: str, digits: str) -> int:
    """int(digits), refused at position ``at`` when it has more digits than
    CPython converts (``sys.get_int_max_str_digits()``, 0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    if 0 < limit < len(digits.lstrip("+-")):
        raise QuotientParseError(text, at, f"{what} has more than {limit} digits")
    return int(digits)


def parse_quotient(text: str) -> dict[int, int]:
    """Parse expressions like ``f1^-1*f2^5*f5^5*f10^-1`` to {period: exponent}.

    A bare ``fN`` means exponent 1.  Zero exponents, duplicate periods,
    numbers too long for CPython's int-string limit, and stray characters
    are rejected with their position: the factor's ``f``, or else the
    first non-space character where reading stopped.
    """
    factors: dict[int, int] = {}
    pos = 0
    while True:
        m = _FACTOR_RE.match(text, pos)
        if m is None:
            pos += len(text[pos:]) - len(text[pos:].lstrip())
            raise QuotientParseError(text, pos, "expected a factor like f10^-2")
        at = m.start(1) - 1
        period = _integer(text, at, "period", m[1])
        exponent = _integer(text, at, f"exponent of f{period}", m[2][1:]) if m[2] else 1
        if period < 1:
            raise QuotientParseError(text, at, "period must be >= 1")
        if exponent == 0:
            raise QuotientParseError(text, at, f"zero exponent on f{period}")
        if period in factors:
            raise QuotientParseError(text, at, f"duplicate period f{period}")
        factors[period] = exponent
        pos = m.end()
        if pos == len(text):
            return factors
        if text[pos] != "*":
            raise QuotientParseError(text, pos, "expected '*' between factors")
        pos += 1


__all__ = [
    "TARGETS",
    "TARGET_ROWS",
    "DivisionTooLarge",
    "EmptyWindow",
    "QuotientParseError",
    "cache_info",
    "expand_f",
    "expand_k",
    "expand_quotient",
    "gen_target",
    "parse_quotient",
]
