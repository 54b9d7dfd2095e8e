"""Catalog of exact series identities and their verifier.

Each entry names the two sides of one identity among eta quotients, the
level-10 multiplier k(q), and the named generating targets.  Identities
whose natural statement divides by q or by k are carried in an equivalent
cleared or rearranged form so both sides stay Laurent windows over the
integers; each ``statement`` string records the exact form checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .congruences import DissectionClaim, lhs_series, rhs_series
from .eta import expand_f, expand_k, expand_quotient
from .series import LaurentSeries, Report, compare

Sides = tuple[LaurentSeries, LaurentSeries]


def _q(factors: dict[int, int], order: int) -> LaurentSeries:
    return expand_quotient(factors, order)


def _two_term_split(order: int) -> LaurentSeries:
    """f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2); equals f1/f5."""
    return (_q({2: 1, 8: 1, 20: 3, 4: -1, 10: -3, 40: -1}, order)
            - _q({4: 2, 40: 1, 8: -1, 10: -2}, order).shift(1))


def _four_term_split(order: int) -> LaurentSeries:
    """The 2-residue split of f1 f5^3 into four eta-quotient terms."""
    return (_q({2: 3, 10: 1}, order)
            - _q({2: 1, 8: 2, 20: 6, 4: -2, 10: -1, 40: -2}, order).shift(1)
            + 2 * _q({4: 1, 20: 3}, order).shift(2)
            - _q({4: 4, 10: 1, 40: 2, 2: -1, 8: -2}, order).shift(3))


def _sides_eq21(order: int) -> Sides:
    lhs = _q({2: 5, 10: -1}, order)
    rhs = _q({1: 5, 5: -1}, order) + 5 * _q({1: 2, 2: 1, 5: -2, 10: 3}, order).shift(1)
    return lhs, rhs


def _sides_eq22(order: int) -> Sides:
    return _q({1: 1, 5: -1}, order), _two_term_split(order)


def _sides_eq23(order: int) -> Sides:
    return _q({1: 1, 5: 3}, order), _four_term_split(order)


def _sides_eq24(order: int) -> Sides:
    k = expand_k(order)
    e = _q({1: 1, 10: 5}, order)
    lhs = k * _q({2: 1, 5: 5}, order)
    rhs = e.shift(1) - (e * k * k).shift(1)
    return lhs, rhs


def _sides_eq25(order: int) -> Sides:
    k = expand_k(order)
    e = _q({1: 2, 10: 4}, order)
    lhs = k * _q({2: 4, 5: 2}, order)
    rhs = e.shift(1) + (e * k).shift(1) - (e * k * k).shift(1)
    return lhs, rhs


def _sides_eq26(order: int) -> Sides:
    k = expand_k(order)
    e = _q({2: 1, 10: 3}, order)
    lhs = k * _q({1: 3, 5: 1}, order)
    rhs = e.shift(1) - 4 * (e * k).shift(1) - (e * k * k).shift(1)
    return lhs, rhs


def _sides_eq27(order: int) -> Sides:
    lhs = (_q({2: 4, 5: 2, 1: -2, 10: -4}, order).shift(-1)
           - _q({1: 3, 5: 1, 2: -1, 10: -3}, order).shift(-1))
    rhs = LaurentSeries.from_terms({0: 5}, -1, order - 1)
    return lhs, rhs


def _sides_eq28(order: int) -> Sides:
    lhs = _q({1: 1, 2: 1, 5: 5}, order)
    rhs = _q({2: 4, 5: 2, 10: 1}, order) - _q({1: 2, 10: 5}, order).shift(1)
    return lhs, rhs


def _sides_eq29(order: int) -> Sides:
    w = _two_term_split(order)
    lhs = _q({1: 1, 5: 3}, order)
    rhs = _q({2: 3, 10: 1}, order) - (_q({10: 5, 2: -1}, order) * w * w).shift(1)
    return lhs, rhs


def _sides_negq(order: int) -> Sides:
    return expand_f(1, order).alternate_signs(), _q({2: 3, 1: -1, 4: -1}, order)


def _dissection_sides(target: str) -> Callable[[int], Sides]:
    """Both sides of the level-1 dissection of one target, as an identity."""
    claim = DissectionClaim(target, 1)
    return lambda order: (lhs_series(claim, order), rhs_series(claim, order))


def _sides_eq212_oddfree(order: int) -> Sides:
    lhs = _four_term_split(order).extract(2, 0)
    rhs = _q({1: 3, 5: 1}, order) + 2 * _q({2: 1, 10: 3}, order).shift(1)
    return lhs, rhs


def _sides_eq213_oddfree(order: int) -> Sides:
    w = _two_term_split(order)
    lhs = (w * w).extract(2, 0)
    rhs = (_q({1: 2, 4: 2, 10: 6, 2: -2, 5: -6, 20: -2}, order)
           + _q({2: 4, 20: 2, 4: -2, 5: -4}, order).shift(1))
    return lhs, rhs


@dataclass(frozen=True)
class IdentityDefinition:
    tag: str
    statement: str
    build: Callable[[int], tuple[LaurentSeries, LaurentSeries]]


_DEFINITIONS = (
    IdentityDefinition(
        "EQ21",
        "f2^5/f10 = f1^5/f5 + 5q f1^2 f2 f10^3/f5^2",
        _sides_eq21),
    IdentityDefinition(
        "EQ22",
        "f1/f5 = f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2)",
        _sides_eq22),
    IdentityDefinition(
        "EQ23",
        "f1 f5^3 = f2^3 f10 - q f2 f8^2 f20^6/(f4^2 f10 f40^2)"
        " + 2q^2 f4 f20^3 - q^3 f4^4 f10 f40^2/(f2 f8^2)",
        _sides_eq23),
    IdentityDefinition(
        "EQ24",
        "k f2 f5^5 = q f1 f10^5 (1 - k^2)   [cleared form of"
        " f2 f5^5/(q f1 f10^5) = 1/k - k]",
        _sides_eq24),
    IdentityDefinition(
        "EQ25",
        "k f2^4 f5^2 = q f1^2 f10^4 (1 + k - k^2)   [cleared form of"
        " f2^4 f5^2/(q f1^2 f10^4) = 1/k + 1 - k]",
        _sides_eq25),
    IdentityDefinition(
        "EQ26",
        "k f1^3 f5 = q f2 f10^3 (1 - 4k - k^2)   [cleared form of"
        " f1^3 f5/(q f2 f10^3) = 1/k - 4 - k]",
        _sides_eq26),
    IdentityDefinition(
        "EQ27",
        "f2^4 f5^2/(q f1^2 f10^4) - f1^3 f5/(q f2 f10^3) = 5",
        _sides_eq27),
    IdentityDefinition(
        "EQ28",
        "f1 f2 f5^5 = f2^4 f5^2 f10 - q f1^2 f10^5",
        _sides_eq28),
    IdentityDefinition(
        "EQ29",
        "f1 f5^3 = f2^3 f10 - q (f10^5/f2)"
        " (f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2))^2",
        _sides_eq29),
    IdentityDefinition(
        "NEGQ",
        "prod (1 - (-q)^n) = f2^3/(f1 f4)",
        _sides_negq),
    IdentityDefinition(
        "L22",
        "sum_{n>=-1} P*(2n+3) q^n = -4 f1^4 f5^4/q - 8 f2^4 f10^4",
        _dissection_sides("PSTAR")),
    IdentityDefinition(
        "EQ210",
        "sum_{n>=-1} M(2n+3) q^n = f1^4 f5^4/q - 8 f2^4 f10^4"
        " + 10 f1 f2 f5^3 f10^3",
        _dissection_sides("M")),
    IdentityDefinition(
        "EQ211",
        "sum_{n>=-1} T*(2n+2) q^n = f1^4 f5^4/q + 10 f1 f2 f5^3 f10^3",
        _dissection_sides("TSTAR")),
    IdentityDefinition(
        "EQ212_ODDFREE",
        "extract(f2^3 f10 - q f2 f8^2 f20^6/(f4^2 f10 f40^2) + 2q^2 f4 f20^3"
        " - q^3 f4^4 f10 f40^2/(f2 f8^2), 2, 0) = f1^3 f5 + 2q f2 f10^3",
        _sides_eq212_oddfree),
    IdentityDefinition(
        "EQ213_ODDFREE",
        "extract((f2 f8 f20^3/(f4 f10^3 f40) - q f4^2 f40/(f8 f10^2))^2, 2, 0)"
        " = (f1 f4 f10^3/(f2 f5^3 f20))^2 + q (f2^2 f20/(f4 f5^2))^2",
        _sides_eq213_oddfree),
)

CATALOG: dict[str, IdentityDefinition] = {d.tag: d for d in _DEFINITIONS}

MIN_ORDER = 16


def catalog_ids() -> tuple[str, ...]:
    return tuple(CATALOG)


def identity_sides(tag: str, order: int) -> tuple[LaurentSeries, LaurentSeries]:
    """Expand both sides of one catalog identity to the given order."""
    if tag not in CATALOG:
        raise ValueError(f"unknown identity id {tag!r}")
    if order < MIN_ORDER:
        raise ValueError(f"order must be >= {MIN_ORDER}, got {order}")
    return CATALOG[tag].build(order)


def verify_identity(tag: str, order: int) -> Report:
    """Compare both sides coefficientwise, requiring order // 2 overlap.

    The halved requirement accommodates the 2-dissected entries, whose
    windows genuinely hold only about half as many coefficients.
    """
    lhs, rhs = identity_sides(tag, order)
    return Report.of(tag, CATALOG[tag].statement, order,
                     compare(lhs, rhs, min_overlap=order // 2))


def verify_all_identities(order: int) -> list[Report]:
    return [verify_identity(tag, order) for tag in CATALOG]


__all__ = [
    "CATALOG",
    "MIN_ORDER",
    "IdentityDefinition",
    "catalog_ids",
    "identity_sides",
    "verify_all_identities",
    "verify_identity",
]
