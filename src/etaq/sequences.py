"""The constant-recursive integer families behind the 2-power dissections.

All three families satisfy P_k = -4 P_{k-1} - 8 P_{k-2}, families A and B
with the extra forcing term 5 * 2^{k-1}:

    A: A_0 = 1, A_1 = 1   (lead coefficients of the M dissections)
    B: B_0 = 0, B_1 = 1   (lead coefficients of the T* dissections)
    C: C_0 = 1, C_1 = -4  (lead coefficients of the P* dissections,
                           homogeneous)

A and B have exact 2-adic valuation k - 1 for k >= 1, which is what turns
each dissection into a 2-power congruence.  C is 4-periodic up to the
factor -64: C_{k+4} = -64 C_k.
"""

from __future__ import annotations

from .series import FAIL, PASS, Report, two_adic_valuation

_INITIALS: dict[str, tuple[int, int]] = {"A": (1, 1), "B": (0, 1), "C": (1, -4)}
_FORCED: dict[str, bool] = {"A": True, "B": True, "C": False}

_C_CLOSED_BASE = (1, -4, 8, 0)


def _check_family(family: str) -> None:
    if family not in _INITIALS:
        raise ValueError(f"unknown family {family!r}; expected A, B, or C")


def sequence_values(family: str, kmax: int) -> list[int]:
    """P_0, ..., P_kmax by direct iteration of the recurrence."""
    _check_family(family)
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    p0, p1 = _INITIALS[family]
    forced = _FORCED[family]
    values = [p0, p1]
    for k in range(2, kmax + 1):
        nxt = -4 * values[k - 1] - 8 * values[k - 2]
        if forced:
            nxt += 5 << (k - 1)
        values.append(nxt)
    return values[:kmax + 1]


def seq_value(family: str, k: int) -> int:
    """P_k of one family."""
    return sequence_values(family, k)[k]


def closed_form_C(k: int) -> int:
    """C_k from 4-periodicity: (-64)^(k//4) times (1, -4, 8, 0)[k % 4]."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return (-64) ** (k // 4) * _C_CLOSED_BASE[k % 4]


def verify_valuations(kmax: int) -> Report:
    """v2(A_k) == v2(B_k) == k - 1 exactly, for 1 <= k <= kmax."""
    if kmax < 2:
        raise ValueError(f"kmax must be >= 2, got {kmax}")
    name = "exact 2-adic valuation v2 = k-1 for families A and B"
    checked = {"from": 1, "to": kmax, "points": kmax}
    for family in ("A", "B"):
        for k in range(1, kmax + 1):
            v = two_adic_valuation(seq_value(family, k))
            if v != k - 1:
                return Report(name, FAIL, checked=checked,
                              witness={"family": family, "k": k,
                                       "value": str(seq_value(family, k)), "v2": str(v)})
    return Report(name, PASS, checked=checked)


def verify_closed_forms(kmax: int) -> Report:
    """C_k == closed form and C_{k+4} == -64 C_k, for 0 <= k <= kmax.

    kmax must be at least 8 so the telescoping step is exercised across
    two full periods.
    """
    if kmax < 8:
        raise ValueError(f"kmax must be >= 8, got {kmax}")
    name = "family C closed form and 4-step telescoping"
    checked = {"from": 0, "to": kmax, "points": kmax + 1}
    for k in range(kmax + 1):
        if seq_value("C", k) != closed_form_C(k):
            return Report(name, FAIL, checked=checked,
                          witness={"k": k, "value": str(seq_value("C", k)),
                                   "closed_form": str(closed_form_C(k))})
    for k in range(kmax - 3):
        if seq_value("C", k + 4) != -64 * seq_value("C", k):
            return Report(name, FAIL, checked=checked,
                          witness={"k": k, "value": str(seq_value("C", k + 4)),
                                   "telescoped": str(-64 * seq_value("C", k))})
    return Report(name, PASS, checked=checked)


__all__ = [
    "closed_form_C",
    "seq_value",
    "sequence_values",
    "verify_closed_forms",
    "verify_valuations",
]
