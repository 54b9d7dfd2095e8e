"""Theorem 3.1's levels as coordinates on one basis, and the families A, B, C.

Level k of the M, T* and P* dissections is v_k . BASIS, with BASIS =
(q^-1 F, G, H) read from the terms of EQ210.  The step T(X) =
extract(q^-2 X, 2, 0) to the next level maps the basis into its span, so
v_k = U^(k-1) v_1 for the integer matrix U whose columns are T(q^-1 F)
(L22's rhs), T(G) = q^-1 F (as G(q) = F(q^2)) and T(H) (T_OF_H), and
v_1 is read from the level-one statement its ``eta.TARGET_ROWS`` row names.
P_k = v_k[0] and -8 P_0 = v_1[1].  A and B have exact 2-adic valuation
k - 1 for k >= 1, which turns each dissection into a 2-power congruence,
and C_{k+4} = -64 C_k.
"""

from __future__ import annotations

import itertools

from .eta import TARGET_ROWS
from .identities import CATALOG, Term, rhs_terms
from .series import Report, two_adic_valuation

Vector = tuple[int, int, int]

BASIS: list[Term] = [(1, s, j, factors) for _, s, j, factors in rhs_terms(CATALOG["EQ210"])]
# The image of H under T, the one column of U that no catalog entry states.
T_OF_H = "extract(f1 f2 f5^3 f10^3/q^2, 2, 0) = f1^4 f5^4/q + 2 f1 f2 f5^3 f10^3"

_C_CLOSED_BASE = (1, -4, 8, 0)


def coordinates(terms: list[Term]) -> Vector:
    """The coordinates of a sum of terms on BASIS; a term outside it raises."""
    v = [0, 0, 0]
    for c, s, j, factors in terms:
        if (1, s, j, factors) not in BASIS:
            raise ValueError(f"{c} q^{s} k^{j} {factors} is not a multiple of q^-1 F, G or H")
        v[BASIS.index((1, s, j, factors))] += c
    return tuple(v)


def _matrix() -> tuple[Vector, ...]:
    """The rows of U, whose columns are T(q^-1 F), T(G) and T(H)."""
    return tuple(zip(coordinates(rhs_terms(CATALOG["L22"])), (1, 0, 0),
                     coordinates(rhs_terms(T_OF_H))))


U = _matrix()
_LEVEL_ONE = {row.family: coordinates(rhs_terms(CATALOG[row.level_one]))
              for row in TARGET_ROWS.values() if row.family}


def levels(family: str, kmax: int) -> list[Vector]:
    """v_1, ..., v_kmax for one family: v_1 from its statement, then U v."""
    if family not in _LEVEL_ONE:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(_LEVEL_ONE)}")
    vs = [_LEVEL_ONE[family]]
    while len(vs) < kmax:
        vs.append(tuple(sum(u * x for u, x in zip(row, vs[-1])) for row in U))
    return vs[:kmax]


def sequence_values(family: str, kmax: int) -> list[int]:
    """P_0, ..., P_kmax: P_0 from v_1[1] = -8 P_0, and P_k = v_k[0]."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    return [-levels(family, 1)[0][1] // 8] + [v[0] for v in levels(family, kmax)]


def closed_form_C(k: int) -> int:
    """C_k from 4-periodicity: (-64)^(k//4) times (1, -4, 8, 0)[k % 4]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return (-64) ** (k // 4) * _C_CLOSED_BASE[k % 4]


def verify_valuations(kmax: int) -> Report:
    """v2(A_k) == v2(B_k) == k - 1 exactly, for 1 <= k <= kmax.

    A witness gives v2 as an integer, as a congruence row's does, and as
    None for a zero value, whose valuation is infinite.
    """
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    values = {family: sequence_values(family, kmax) for family in ("A", "B")}
    ks = range(1, kmax + 1)
    return Report.scan(
        "exact 2-adic valuation v2 = k-1 for families A and B", None, None, ks,
        ({"family": family, "k": k, "value": str(vs[k]),
          "v2": two_adic_valuation(vs[k]) if vs[k] else None}
         for family, vs in values.items() for k in ks if two_adic_valuation(vs[k]) != k - 1))


def verify_closed_forms(kmax: int) -> Report:
    """C_k == closed form and C_{k+4} == -64 C_k, for 0 <= k <= kmax.

    kmax must be at least 8 so the telescoping step is exercised across
    two full periods.
    """
    if kmax < 8:
        raise ValueError(f"kmax must be >= 8, got {kmax}")
    values = sequence_values("C", kmax)
    return Report.scan(
        "family C closed form and 4-step telescoping", None, None, range(kmax + 1),
        itertools.chain(
            ({"k": k, "value": str(value), "closed_form": str(closed_form_C(k))}
             for k, value in enumerate(values) if value != closed_form_C(k)),
            ({"k": k, "value": str(values[k + 4]), "telescoped": str(-64 * values[k])}
             for k in range(kmax - 3) if values[k + 4] != -64 * values[k])))


__all__ = [
    "closed_form_C",
    "sequence_values",
    "verify_closed_forms",
    "verify_valuations",
]
