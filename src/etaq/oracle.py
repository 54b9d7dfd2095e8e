"""Independent recomputation paths used to validate the fast expander.

Nothing here shares an algorithm with :mod:`etaq.eta` or with the
product kernel of :mod:`etaq.series`: partition counts come from a
parts-accumulation dynamic program (no pentagonal numbers), and eta
products and k(q) are rebuilt one literal (1 - q^d) factor at a time,
each factor one slice update of a plain list.
"""

from __future__ import annotations

import operator
from typing import Mapping

from . import eta
from .identities import MIN_ORDER
from .series import FAIL, PASS, LaurentSeries, Report, compare


def _times_binomial(c: list[int], d: int) -> None:
    """c *= (1 - q^d) in place; both slices are read before the write."""
    c[d:] = map(operator.sub, c[d:], c[:len(c) - d])


def _over_binomial(c: list[int], d: int) -> None:
    """c /= (1 - q^d) in place, one block of d coefficients at a time.

    Each block c[i:i+d] adds the block before it, which is already
    divided: the ascending update c[n] += c[n - d], d entries at once.
    """
    for i in range(d, len(c), d):
        c[i:i + d] = map(operator.add, c[i:i + d], c[i - d:i])


def partition_counts(order: int) -> list[int]:
    """p(0), ..., p(order-1) by accumulating one part size at a time."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    dp = [0] * order
    dp[0] = 1
    for part in range(1, order):
        _over_binomial(dp, part)
    return dp


def direct_eta_product(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order) without pentagonal numbers.

    Each positive exponent unit multiplies in the factors (1 - q^d) for
    d = m, 2m, ... < order one by one; each negative unit multiplies by
    the geometric series 1/(1 - q^d) instead.  Factors with d >= order
    cannot change the window.
    """
    for m, e in factors.items():
        if m < 1:
            raise ValueError(f"period must be >= 1, got {m}")
        if e == 0:
            raise ValueError(f"exponent of f{m} must be nonzero")
    c = [0] * order
    c[0] = 1
    for m, e in sorted(factors.items()):
        step = _times_binomial if e > 0 else _over_binomial
        for _ in range(abs(e)):
            for d in range(m, order, m):
                step(c, d)
    return LaurentSeries(0, tuple(c))


# Residues mod 10 of the d with (1 - q^d) upstairs / downstairs in k(q).
_K_NUMERATOR = frozenset({1, 2, 8, 9})
_K_DENOMINATOR = frozenset({3, 4, 6, 7})


def direct_k(order: int) -> LaurentSeries:
    """k(q) on [1, order) as the literal product

        q * prod (1 - q^d) [d = 1,2,8,9 mod 10] / prod (1 - q^d) [d = 3,4,6,7 mod 10],

    one factor at a time in increasing d; factors with d >= order - 1
    cannot move any retained coefficient.
    """
    if order < 2:
        raise ValueError(f"order must be >= 2 to hold any coefficient of k, got {order}")
    length = order - 1
    c = [0] * length
    c[0] = 1
    for d in range(1, length):
        if d % 10 in _K_NUMERATOR:
            _times_binomial(c, d)
        elif d % 10 in _K_DENOMINATOR:
            _over_binomial(c, d)
    return LaurentSeries(1, tuple(c))


def _agreement(name: str, order: int, a: LaurentSeries, b: LaurentSeries) -> Report:
    """Compare a and b on their common window; witness the first mismatch."""
    return Report.of(name, None, order, compare(a, b, min_overlap=1))


_CHECK_PERIODS = (1, 2, 4, 5, 8, 10, 20, 40)


def cross_check(order: int) -> list[Report]:
    """Compare the fast expander against the brute-force paths.

    Covers every period used by the identity catalog, all four named
    generating targets, k(q) (the theta quotient against its literal
    product), the inversion path (1/f1 against the partition dynamic
    program), and the classical partition congruences
    p(5n+4) == 0 mod 5, p(7n+5) == 0 mod 7, p(11n+6) == 0 mod 11 as a
    sanity gate on the oracle itself.
    """
    if order < MIN_ORDER:
        raise ValueError(f"order must be >= {MIN_ORDER}, got {order}")
    checks: list[Report] = []

    for m in _CHECK_PERIODS:
        checks.append(_agreement(
            f"f{m}: pentagonal expansion vs factor-by-factor product", order,
            eta.expand_f(m, order), direct_eta_product({m: 1}, order)))

    for tag in sorted(eta.TARGETS):
        checks.append(_agreement(
            f"{tag}: quotient expander vs factor-by-factor product", order,
            eta.gen_target(tag, order), direct_eta_product(eta.TARGETS[tag], order)))

    checks.append(_agreement(
        "k: theta quotient vs factor-by-factor product", order,
        eta.expand_k(order), direct_k(order)))

    counts = partition_counts(order)
    checks.append(_agreement(
        "1/f1: series inversion vs partition dynamic program", order,
        eta.expand_f(1, order).invert(order), LaurentSeries(0, tuple(counts))))

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
