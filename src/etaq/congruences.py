"""Dissection and congruence verification for the named targets.

The 2-power dissections all live on the same three building blocks

    F = f1^4 f5^4,   G = f2^4 f10^4,   H = f1 f2 f5^3 f10^3,

and state that extracting the progression step*n + residue from a target's
generating function reproduces

    P_k * q^{-1} F  -  8 P_{k-1} * G  (+ 5 * 2^k * H for M and T*),

where P is the family A, B, or C from :mod:`etaq.sequences` according to
the target.  The congruence claims are the coefficientwise consequences:
every such coefficient is divisible by a stated power of two (or vanishes
outright for the exact-zero family).
"""

from __future__ import annotations

from dataclasses import dataclass

from .eta import expand_quotient, gen_target
from .sequences import seq_value
from .series import (
    FAIL,
    INSUFFICIENT,
    PASS,
    SKIPPED,
    LaurentSeries,
    Report,
    compare,
    two_adic_valuation,
    worst,
)

TARGET_FAMILY: dict[str, str] = {"M": "A", "TSTAR": "B", "PSTAR": "C"}
_PRETTY: dict[str, str] = {"M": "M", "TSTAR": "T*", "PSTAR": "P*"}
# The extracted progression is step*n + step*2 - 1 for M and P*, one lower
# for T* (whose base dissection starts at an even argument).
_RESIDUE_OFFSET: dict[str, int] = {"M": -1, "TSTAR": -2, "PSTAR": -1}


def _F(order: int) -> LaurentSeries:
    return expand_quotient({1: 4, 5: 4}, order)


def _G(order: int) -> LaurentSeries:
    return expand_quotient({2: 4, 10: 4}, order)


def _H(order: int) -> LaurentSeries:
    return expand_quotient({1: 1, 2: 1, 5: 3, 10: 3}, order)


@dataclass(frozen=True)
class DissectionClaim:
    """Level-k dissection of one target's generating function."""

    target: str
    k: int

    def __post_init__(self) -> None:
        if self.target not in TARGET_FAMILY:
            raise ValueError(f"unknown target {self.target!r}")
        if self.k < 1:
            raise ValueError(f"dissection level must be >= 1, got {self.k}")

    @property
    def step(self) -> int:
        return 1 << self.k

    @property
    def residue(self) -> int:
        return (1 << (self.k + 1)) + _RESIDUE_OFFSET[self.target]

    @property
    def label(self) -> str:
        return f"dissection[{self.target},k={self.k}]"

    def describe(self) -> str:
        name = _PRETTY[self.target]
        family = TARGET_FAMILY[self.target]
        terms = f"{family}_{self.k} q^-1 F - 8 {family}_{self.k - 1} G"
        if self.target != "PSTAR":
            terms += f" + 5*2^{self.k} H"
        return (f"sum_(n>=-1) {name}({self.step}n+{self.residue}) q^n == {terms}")


def lhs_series(claim: DissectionClaim, order: int) -> LaurentSeries:
    """The extracted progression, straight from the target's expansion."""
    return gen_target(claim.target, order).extract(claim.step, claim.residue)


def rhs_series(claim: DissectionClaim, order: int, family: str | None = None) -> LaurentSeries:
    """The recurrence combination of F, G, H claimed to equal the lhs.

    ``family`` overrides the target's sequence family; the k = 2
    verification uses this to decide which labeling the series obeys.
    """
    fam = family if family is not None else TARGET_FAMILY[claim.target]
    lead = seq_value(fam, claim.k)
    prev = seq_value(fam, claim.k - 1)
    result = lead * _F(order).shift(-1) - (8 * prev) * _G(order)
    if claim.target != "PSTAR":
        result = result + (5 << claim.k) * _H(order)
    return result


def verify_dissection(claim: DissectionClaim, order: int) -> Report:
    """Compare lhs and rhs; the window halves at each level, so the
    required overlap scales as order / 2^(k+1).

    At k = 2 the report also states which of the two possible lead
    labelings (swapping the A and B families) the series actually obeys.
    """
    lhs = lhs_series(claim, order)
    rhs = rhs_series(claim, order)
    required = max(1, order >> (claim.k + 1))
    outcome = compare(lhs, rhs, min_overlap=required)
    note = None
    if claim.k == 2 and claim.target in ("M", "TSTAR"):
        fam = TARGET_FAMILY[claim.target]
        other = "B" if fam == "A" else "A"
        alt = compare(lhs, rhs_series(claim, order, family=other), min_overlap=required)
        note = (f"k=2 lead labeling: {fam}_2={seq_value(fam, 2)} -> {outcome.status}, "
                f"swapped {other}_2={seq_value(other, 2)} -> {alt.status}")
    return Report.of(claim.label, claim.describe(), order, outcome, note)


def verify_induction_step(claim: DissectionClaim, order: int) -> Report:
    """Check extract(q^-2 * rhs_k, 2, 0) == rhs_(k+1) as series.

    This is the step that advances level k to k + 1 uniformly in k: the
    even part of the q^-2-shifted combination reproduces the next
    combination, for every target family.
    """
    nxt = DissectionClaim(claim.target, claim.k + 1)
    stepped = rhs_series(claim, order).shift(-2).extract(2, 0)
    outcome = compare(stepped, rhs_series(nxt, order), min_overlap=max(1, order // 4))
    label = f"induction[{claim.target},k={claim.k}->{claim.k + 1}]"
    text = (f"extract(q^-2 * ({claim.describe().split(' == ')[1]}), 2, 0) "
            f"== {nxt.describe().split(' == ')[1]}")
    return Report.of(label, text, order, outcome)


@dataclass(frozen=True)
class CongruenceClaim:
    """Coefficients on one arithmetic progression vanish mod 2^v (or exactly)."""

    target: str
    step: int
    residue: int
    required_valuation: int | None  # None: the coefficients are exactly zero
    label: str

    def __post_init__(self) -> None:
        if self.target not in TARGET_FAMILY:
            raise ValueError(f"unknown target {self.target!r}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")

    def describe(self) -> str:
        name = _PRETTY[self.target]
        subject = f"{name}({self.step}n+{self.residue})"
        if self.required_valuation is None:
            return f"{subject} == 0 for all n >= -1"
        return f"{subject} == 0 mod 2^{self.required_valuation} for n >= -1"


def verify_congruence(claim: CongruenceClaim, order: int,
                      min_points: int = 1) -> Report:
    """Scan every index n >= -1 whose exponent lies below the order.

    Fewer than min_points reachable coefficients is reported as
    insufficient-precision, never as a pass.
    """
    series = gen_target(claim.target, order)
    reachable = []
    n = -1
    while claim.step * n + claim.residue < order:
        reachable.append(n)
        n += 1
    checked = None
    if reachable:
        checked = {"from": reachable[0], "to": reachable[-1], "points": len(reachable)}
    if len(reachable) < min_points:
        return Report(claim.label, INSUFFICIENT, claim.describe(), order, checked,
                      note=(f"only {len(reachable)} reachable coefficients below order "
                            f"{order}, need {min_points}"))
    for n in reachable:
        e = claim.step * n + claim.residue
        value = series[e] if e >= series.offset else 0
        if claim.required_valuation is None:
            ok = value == 0
        else:
            ok = two_adic_valuation(value) >= claim.required_valuation
        if not ok:
            v = two_adic_valuation(value)
            return Report(claim.label, FAIL, claim.describe(), order, checked,
                          {"n": n, "exponent": e, "value": str(value),
                           "v2": "inf" if value == 0 else int(v)})
    return Report(claim.label, PASS, claim.describe(), order, checked)


def theorem_11_claims(kmax: int) -> list[CongruenceClaim]:
    """The M and T* congruence families for 1 <= k <= kmax."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    claims = []
    for k in range(1, kmax + 1):
        claims.append(CongruenceClaim(
            "M", 1 << k, (1 << (k + 1)) - 1, k - 1, f"1.1[k={k}]"))
        claims.append(CongruenceClaim(
            "TSTAR", 1 << k, (1 << (k + 1)) - 2, k - 1, f"1.2[k={k}]"))
    return claims


def theorem_12_claims(kmax: int) -> list[CongruenceClaim]:
    """The five P* families for 0 <= k <= kmax.

    Steps run through 2^(4k), ..., 2^(4k+3) with valuations 6k, 6k+2,
    6k+3, 6k+6, plus the exact-vanishing progression at step 2^(4k+4).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    claims = []
    for k in range(kmax + 1):
        base = 4 * k
        claims.append(CongruenceClaim(
            "PSTAR", 1 << base, (1 << (base + 1)) - 1, 6 * k, f"1.3[k={k}]"))
        claims.append(CongruenceClaim(
            "PSTAR", 1 << (base + 1), (1 << (base + 2)) - 1, 6 * k + 2, f"1.4[k={k}]"))
        claims.append(CongruenceClaim(
            "PSTAR", 1 << (base + 2), (1 << (base + 3)) - 1, 6 * k + 3, f"1.5[k={k}]"))
        claims.append(CongruenceClaim(
            "PSTAR", 1 << (base + 3), (1 << (base + 4)) - 1, 6 * k + 6, f"1.6[k={k}]"))
        claims.append(zero_family_claim(k))
    return claims


def zero_family_claim(k: int) -> CongruenceClaim:
    """The exact-vanishing progression P*(2^(4k+4) n + 3*2^(4k+3) - 1) == 0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return CongruenceClaim(
        "PSTAR", 1 << (4 * k + 4), 3 * (1 << (4 * k + 3)) - 1, None, f"1.7[k={k}]")


def verify_zero_family_structurally(k: int, order: int) -> Report:
    """Establish the exact-vanishing family through the dissection itself.

    The level-(4k+3) rhs for P* collapses to (-64)^(k+1) G because the
    lead coefficient C_(4k+3) is zero; G is a series in q^2, so the odd
    part of the rhs vanishes identically, and the odd part is exactly the
    progression of the exact-zero claim.  Both facts are checked on the
    window, then cross-checked against the direct coefficient scan.
    """
    zero = zero_family_claim(k)
    claim = DissectionClaim("PSTAR", 4 * k + 3)
    rhs = rhs_series(claim, order)
    expected = (-64) ** (k + 1) * _G(order) + LaurentSeries.from_terms({}, -1, order)
    structural = Report.of(
        f"1.7-structural[k={k}]",
        f"{zero.describe()}, derived from the level-{4 * k + 3} dissection",
        order, compare(rhs, expected, min_overlap=max(1, order // 2)))
    odd_witness = next(({"exponent": e, "value": str(c)}
                        for e, c in rhs.extract(2, 1) if c), None)
    odd_status = PASS if odd_witness is None else FAIL
    direct = verify_congruence(zero, order, min_points=1)
    note = (f"rhs == (-64)^{k + 1} f2^4 f10^4: {structural.status}; "
            f"odd part of rhs identically zero: {odd_status}; "
            f"direct coefficient scan: {direct.status}")
    return Report(structural.label,
                  worst((structural.status, odd_status, direct.status)),
                  structural.claim, order, direct.checked,
                  structural.witness or odd_witness or direct.witness, note)


THEOREM_IDS = ("1.1", "1.2", "3.1")


def verify_theorem(theorem_id: str, order: int, kmax: int) -> list[Report]:
    """Run every claim of one catalogued theorem.

    1.1: congruence rows for M and T*, k = 1..kmax, each requiring at
         least 5 in-window coefficients.
    1.2: the five P* families for k = 0..kmax; a row whose progression
         has no coefficient below the order is reported as skipped.
    3.1: all dissections for k = 1..kmax plus the induction steps
         k -> k+1 for k = 1..kmax-1.
    """
    if theorem_id == "1.1":
        return [verify_congruence(c, order, min_points=5)
                for c in theorem_11_claims(kmax)]
    if theorem_id == "1.2":
        reports = []
        for c in theorem_12_claims(kmax):
            first = c.residue - c.step  # the exponent at n = -1
            if first < order:
                reports.append(verify_congruence(c, order, min_points=1))
            else:
                reports.append(Report(
                    c.label, SKIPPED, c.describe(), order,
                    note=f"first coefficient q^{first} lies beyond the window"))
        return reports
    if theorem_id == "3.1":
        reports = []
        for k in range(1, kmax + 1):
            for target in ("M", "TSTAR", "PSTAR"):
                reports.append(verify_dissection(DissectionClaim(target, k), order))
        for k in range(1, kmax):
            for target in ("M", "TSTAR", "PSTAR"):
                reports.append(verify_induction_step(DissectionClaim(target, k), order))
        return reports
    raise ValueError(
        f"unknown theorem id {theorem_id!r}; expected one of {', '.join(THEOREM_IDS)}")


__all__ = [
    "CongruenceClaim",
    "DissectionClaim",
    "TARGET_FAMILY",
    "THEOREM_IDS",
    "lhs_series",
    "rhs_series",
    "theorem_11_claims",
    "theorem_12_claims",
    "verify_congruence",
    "verify_dissection",
    "verify_induction_step",
    "verify_theorem",
    "verify_zero_family_structurally",
    "zero_family_claim",
]
