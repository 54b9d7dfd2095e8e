"""Independent recomputation paths used to validate the fast expander.

Nothing here shares an algorithm with :mod:`etaq.eta`: partition counts
come from a parts-accumulation dynamic program (no pentagonal numbers),
and eta products are rebuilt one literal (1 - q^d) factor at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import eta
from .series import FAIL, PASS, LaurentSeries, compare


def partition_counts(order: int) -> list[int]:
    """p(0), ..., p(order-1) by accumulating one part size at a time."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    dp = [0] * order
    dp[0] = 1
    for part in range(1, order):
        for n in range(part, order):
            dp[n] += dp[n - part]
    return dp


def direct_eta_product(factors: Mapping[int, int], order: int) -> LaurentSeries:
    """prod f_m^{e_m} on [0, order) without pentagonal numbers.

    Each positive exponent unit multiplies in the factors (1 - q^d) for
    d = m, 2m, ... < order one by one; each negative unit multiplies by
    the geometric series 1/(1 - q^d) instead (the ascending in-place
    update).  Factors with d >= order cannot change the window.
    """
    for m, e in factors.items():
        if m < 1:
            raise ValueError(f"period must be >= 1, got {m}")
        if e == 0:
            raise ValueError(f"exponent of f{m} must be nonzero")
    c = [0] * order
    c[0] = 1
    for m, e in sorted(factors.items()):
        for _ in range(abs(e)):
            for d in range(m, order, m):
                if e > 0:
                    for i in range(order - 1, d - 1, -1):
                        c[i] -= c[i - d]
                else:
                    for i in range(d, order):
                        c[i] += c[i - d]
    return LaurentSeries(0, tuple(c))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    witness: dict[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class CrossCheckReport:
    order: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def to_dict(self) -> dict[str, object]:
        return {
            "order": self.order,
            "status": PASS if self.ok else FAIL,
            "checks": [c.to_dict() for c in self.checks],
        }


def _agreement(name: str, a: LaurentSeries, b: LaurentSeries) -> CheckResult:
    """Compare a and b on their common window; witness the first mismatch."""
    outcome = compare(a, b, min_overlap=1)
    witness = None
    if outcome.witness is not None:
        e, left, right = outcome.witness
        witness = {"exponent": e, "left": str(left), "right": str(right)}
    return CheckResult(name, outcome.status, witness)


_CHECK_PERIODS = (1, 2, 4, 5, 8, 10, 20, 40)


def cross_check(order: int) -> CrossCheckReport:
    """Compare the fast expander against the brute-force paths.

    Covers every period used by the identity catalog, all four named
    generating targets, the inversion path (1/f1 against the partition
    dynamic program), and the classical partition congruences
    p(5n+4) == 0 mod 5, p(7n+5) == 0 mod 7, p(11n+6) == 0 mod 11 as a
    sanity gate on the oracle itself.
    """
    if order < 16:
        raise ValueError(f"order must be >= 16, got {order}")
    checks: list[CheckResult] = []

    for m in _CHECK_PERIODS:
        checks.append(_agreement(
            f"f{m}: pentagonal expansion vs factor-by-factor product",
            eta.expand_f(m, order), direct_eta_product({m: 1}, order)))

    for tag in sorted(eta.TARGETS):
        checks.append(_agreement(
            f"{tag}: quotient expander vs factor-by-factor product",
            eta.gen_target(tag, order), direct_eta_product(eta.TARGETS[tag], order)))

    counts = partition_counts(order)
    checks.append(_agreement(
        "1/f1: series inversion vs partition dynamic program",
        eta.expand_f(1, order).invert(order), LaurentSeries(0, tuple(counts))))

    for modulus, residue in ((5, 4), (7, 5), (11, 6)):
        witness = None
        for n in range(residue, order, modulus):
            if counts[n] % modulus:
                witness = {"n": n, "value": str(counts[n]), "modulus": modulus}
                break
        checks.append(CheckResult(
            f"p({modulus}n+{residue}) == 0 mod {modulus}",
            FAIL if witness else PASS, witness))

    return CrossCheckReport(order, tuple(checks))


__all__ = [
    "CheckResult",
    "CrossCheckReport",
    "cross_check",
    "direct_eta_product",
    "partition_counts",
]
