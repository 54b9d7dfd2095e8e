"""Dissection and congruence verification for the named targets.

The level-l dissection of a target extracts the progression with step
2^l and residue 2^(l+1) - s, s = sum m e_m / 24 the q-order of its eta
quotient prod eta(m tau)^e_m, and states that it equals

    v_l . (q^-1 F, G, H)  =  P_l q^-1 F  -  8 P_(l-1) G  +  5 * 2^l H

with the basis and v_l, the coordinates of the target's family, from
:mod:`etaq.sequences`; the H term is there only when v_1 has one, as U's
third row is (0, 0, 2).  The congruence claims are its coefficientwise
consequences: on the progression of one level, every coefficient is
divisible by a stated power of two, or vanishes outright.  Rows 1.1 and
1.2 are the M and T* levels k, rows 1.3-1.6 the P* levels 4k, ..., 4k+3,
and row 1.7 the odd half of the P* level 4k+3.

Theorem 3.1 builds only the windows its verdicts read: ``verify_dissection``
covers the lhs's window with v_k . BASIS, or reads no rhs when the
progression has no exponent below the order.  The induction rows
come from three basis residuals: every level window v_k . BASIS is
[-1, order - 1) and T(X) = extract(q^-2 X, 2, 0) is linear, so once T(B_i)
equals (U e_i) . BASIS on that window for each basis element, every step
v_k -> v_(k+1) = U v_k passes on the same window.  If a residual does not
vanish, each step is compared on full level windows (``verify_induction_step``).
"""

from __future__ import annotations

from . import sequences
from .eta import TARGET_ROWS, gen_target
from .identities import Term, Value, _covered, _series
from .sequences import BASIS, Vector, levels
from .series import (
    FAIL,
    PASS,
    SKIPPED,
    Comparison,
    EmptyWindow,
    LaurentSeries,
    Report,
    _Record,
    compare,
    two_adic_valuation,
    worst,
)

TARGET_FAMILY: dict[str, str] = {t: row.family for t, row in TARGET_ROWS.items() if row.family}


def _progression(target: str, level: int) -> tuple[int, int]:
    """(step, residue) of the progression the level-l dissection extracts."""
    weight = sum(m * e for m, e in TARGET_ROWS[target].quotient.items())
    if weight % 24:
        raise ValueError(f"{target} has q-order sum m*e_m / 24 = {weight}/24, not an integer")
    return 1 << level, (1 << (level + 1)) - weight // 24


class DissectionClaim(_Record):
    """Level-k dissection of one target's generating function."""

    __slots__ = ("target", "k")

    def __init__(self, target: str, k: int) -> None:
        if target not in TARGET_FAMILY:
            raise ValueError(f"unknown target {target!r}")
        if k < 1:
            raise ValueError(f"dissection level must be >= 1, got {k}")
        super().__init__(target, k)

    @property
    def step(self) -> int:
        return _progression(self.target, self.k)[0]

    @property
    def residue(self) -> int:
        return _progression(self.target, self.k)[1]

    @property
    def label(self) -> str:
        return f"dissection[{self.target},k={self.k}]"

    def describe(self) -> str:
        name = TARGET_ROWS[self.target].name
        family = TARGET_FAMILY[self.target]
        terms = f"{family}_{self.k} q^-1 F - 8 {family}_{self.k - 1} G"
        if sequences._LEVEL_ONE[family][2]:
            terms += f" + 5*2^{self.k} H"
        return (f"sum_(n>=-1) {name}({self.step}n+{self.residue}) q^n == {terms}")


def lhs_series(claim: DissectionClaim, order: int) -> LaurentSeries:
    """The extracted progression, straight from the target's expansion."""
    return gen_target(claim.target, order).extract(claim.step, claim.residue)


def _rhs_terms(v: Vector) -> list[Term]:
    """v . BASIS less its zero G and H terms; q^-1 F (s < 0) sets the sum's window, so stays."""
    return [(a, s, j, factors) for a, (_, s, j, factors) in zip(v, BASIS) if a or s < 0]


def rhs_series(claim: DissectionClaim, order: int) -> LaurentSeries:
    """The combination v_k . BASIS claimed to equal the lhs."""
    return _series(_rhs_terms(levels(TARGET_FAMILY[claim.target], claim.k)[-1]), order)


def verify_dissection(claim: DissectionClaim, order: int, rhs: Value) -> Report:
    """Compare the lhs with the rhs, a window or v_k . BASIS as terms, which
    is expanded only until it covers the lhs's window; the window halves at
    each level, so the required overlap scales as order / 2^(k+1).

    At k = 2 the report also states which of the two lead labelings
    (swapping the two families with an H term) the series obeys.  A
    progression with no coefficient below the order is reported as
    insufficient-precision, and no rhs is expanded.
    """
    required = max(1, order >> (claim.k + 1))
    try:
        lhs = lhs_series(claim, order)
    except EmptyWindow:
        return Report.scan(claim.label, claim.describe(), order, range(0), (), required)
    rhs = _covered(rhs, order, lhs.prec)
    outcome = compare(lhs, rhs, min_overlap=required)
    note = None
    fam, pair = TARGET_FAMILY[claim.target], [f for f, v in sequences._LEVEL_ONE.items() if v[2]]
    if claim.k == 2 and fam in pair:
        [other] = set(pair) - {fam}
        swapped = _covered(_rhs_terms(levels(other, 2)[1]), order, lhs.prec)
        alt = compare(lhs, swapped, min_overlap=required)
        # F = 1 + O(q), so each window's q^-1 coefficient is its lead P_2.
        note = (f"k=2 lead labeling: {fam}_2={rhs[-1]} -> {outcome.status}, "
                f"swapped {other}_2={swapped[-1]} -> {alt.status}")
    return Report.of(claim.label, claim.describe(), order, outcome, note)


def verify_induction_step(claim: DissectionClaim, order: int,
                          rhs: LaurentSeries, next_rhs: LaurentSeries) -> Report:
    """Check extract(q^-2 * rhs_k, 2, 0) == rhs_(k+1) on the given windows.

    This is the step that advances level k to k + 1 uniformly in k: the
    even part of the q^-2-shifted combination reproduces the next
    combination, for every target family.
    """
    outcome = compare(_step(rhs), next_rhs, min_overlap=max(1, order // 4))
    return Report.of(*_induction_claim(claim), order, outcome)


def _step(x: LaurentSeries) -> LaurentSeries:
    """T(x) = extract(q^-2 x, 2, 0), the map from one level to the next."""
    return x.shift(-2).extract(2, 0)


def _induction_claim(claim: DissectionClaim) -> tuple[str, str]:
    """The label and claim text of the induction step from claim's level."""
    nxt = DissectionClaim(claim.target, claim.k + 1)
    return (f"induction[{claim.target},k={claim.k}->{claim.k + 1}]",
            f"extract(q^-2 * ({claim.describe().split(' == ')[1]}), 2, 0) "
            f"== {nxt.describe().split(' == ')[1]}")


def _basis_step(order: int) -> Comparison | None:
    """The window on which T(B_i) == (U e_i) . BASIS for all three basis
    elements, or None when one of the comparisons does not pass.

    Each e_i . BASIS keeps the q^-1 F term, so it has a level's window
    [-1, order - 1), and each comparison has an induction row's window and
    overlap requirement.  T is linear and v_(k+1) = U v_k, so on that
    window T(v_k . BASIS) - v_(k+1) . BASIS = sum_i v_k[i] (T(B_i) - (U e_i)
    . BASIS) vanishes whenever the three residuals do: every induction
    row then passes on this comparison's window.  U is read from
    ``sequences`` at call time.
    """
    comparisons = []
    for i in range(3):
        e = tuple(int(i == j) for j in range(3))
        image = tuple(row[i] for row in sequences.U)
        comparisons.append(compare(_step(_series(_rhs_terms(e), order)),
                                   _series(_rhs_terms(image), order),
                                   min_overlap=max(1, order // 4)))
    return comparisons[0] if all(c.status == PASS for c in comparisons) else None


class CongruenceClaim(_Record):
    """Coefficients on one arithmetic progression vanish mod 2^v (or exactly).

    ``required_valuation`` is v, or None when the coefficients are exactly zero.
    """

    __slots__ = ("target", "step", "residue", "required_valuation", "label")

    def __init__(self, target: str, step: int, residue: int,
                 required_valuation: int | None, label: str) -> None:
        if target not in TARGET_FAMILY:
            raise ValueError(f"unknown target {target!r}")
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        super().__init__(target, step, residue, required_valuation, label)

    def describe(self) -> str:
        subject = f"{TARGET_ROWS[self.target].name}({self.step}n+{self.residue})"
        if self.required_valuation is None:
            return f"{subject} == 0 for all n >= -1"
        return f"{subject} == 0 mod 2^{self.required_valuation} for n >= -1"


def verify_congruence(claim: CongruenceClaim, order: int,
                      min_points: int = 1) -> Report:
    """Scan every index n >= -1 whose exponent lies below the order.

    Fewer than min_points reachable coefficients, or none at all, is
    reported as insufficient-precision, never as a pass.
    """
    series = gen_target(claim.target, order)
    reachable = range(-1, -((claim.residue - order) // claim.step))
    need = claim.required_valuation
    # The coefficients at step*n + residue for n in reachable, as one slice;
    # exponents below the window read its exact zeros.  An empty progression
    # may start past any index, so it reads no slice.
    values = series._span(claim.residue - claim.step, order)[::claim.step] if reachable else ()
    # One C-level pass finds whether any value fails: one with a bit set
    # below 2^need, or any nonzero value (mask -1) for exact vanishing.  Only
    # then is the first one looked for, by the same mask.
    mask = -1 if need is None else (1 << max(need, 0)) - 1
    witnesses = ()
    if any(map(mask.__and__, values)):
        witnesses = ({"n": n, "exponent": claim.step * n + claim.residue,
                      "value": str(value), "v2": two_adic_valuation(value)}
                     for n, value in zip(reachable, values)
                     if value & mask)
    return Report.scan(claim.label, claim.describe(), order, reachable, witnesses,
                       max(1, min_points))


def theorem_11_claims(kmax: int) -> list[CongruenceClaim]:
    """The M and T* congruence families for 1 <= k <= kmax."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return [CongruenceClaim(target, *_progression(target, k), k - 1, f"{row}[k={k}]")
            for k in range(1, kmax + 1)
            for target, row in (("M", "1.1"), ("TSTAR", "1.2"))]


def theorem_12_claims(kmax: int) -> list[CongruenceClaim]:
    """The five P* families for 0 <= k <= kmax.

    Steps run through 2^(4k), ..., 2^(4k+3) with valuations 6k, 6k+2,
    6k+3, 6k+6, plus the exact-vanishing progression at step 2^(4k+4).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    claims = []
    for k in range(kmax + 1):
        for i, extra in enumerate((0, 2, 3, 6)):
            claims.append(CongruenceClaim(
                "PSTAR", *_progression("PSTAR", 4 * k + i), 6 * k + extra, f"1.{3 + i}[k={k}]"))
        claims.append(zero_family_claim(k))
    return claims


def zero_family_claim(k: int) -> CongruenceClaim:
    """The exact-vanishing progression P*(2^(4k+4) n + 3*2^(4k+3) - 1) == 0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    step, residue = _progression("PSTAR", 4 * k + 3)
    return CongruenceClaim("PSTAR", 2 * step, residue + step, None, f"1.7[k={k}]")


def verify_zero_family_structurally(k: int, order: int) -> Report:
    """Establish the exact-vanishing family through the dissection itself.

    The level-(4k+3) rhs for P* collapses to (-64)^(k+1) G because the
    lead coefficient C_(4k+3) is zero; G is a series in q^2, so the odd
    part of the rhs vanishes identically, and the odd part is exactly the
    progression of the exact-zero claim.  Both facts are checked on the
    window, then cross-checked against the direct coefficient scan.
    """
    zero = zero_family_claim(k)
    rhs = rhs_series(DissectionClaim("PSTAR", 4 * k + 3), order)
    expected = _series(_rhs_terms((0, (-64) ** (k + 1), 0)), order)
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
    3.1: the dissections for k = 1..kmax and induction steps k -> k+1
         for k < kmax, one run of levels per family.  A dissection row
         is ``verify_dissection`` of v_k . BASIS as terms; the induction
         rows come from the basis residuals T(B_i) - (U e_i) . BASIS when
         all three vanish, else from one full rhs window per level.
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
        vs = {t: levels(f, kmax) for t, f in TARGET_FAMILY.items()}
        claims = [DissectionClaim(t, k) for k in range(1, kmax + 1) for t in vs]
        step = _basis_step(order)
        dissections, inductions, previous = [], [], {}
        for claim in claims:
            terms = _rhs_terms(vs[claim.target][claim.k - 1])
            dissections.append(verify_dissection(claim, order, terms))
            if step is None:  # each step compares two full level windows
                window = _series(terms, order)
                if claim.k > 1:
                    inductions.append(verify_induction_step(DissectionClaim(
                        claim.target, claim.k - 1), order, previous[claim.target], window))
                previous[claim.target] = window  # only the last level's window stays alive
            elif claim.k < kmax:
                inductions.append(Report.of(*_induction_claim(claim), order, step))
        return dissections + inductions
    raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREM_IDS)}")


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
