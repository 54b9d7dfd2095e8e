"""Acceptance suite: the nine headline checks, one test per criterion.

Every comparison is an exact integer equality.  Each test prints a
single pass line on success (visible with -s or in captured output);
a failure surfaces through the assertion itself.
"""

from __future__ import annotations

import random
import time

from etaq.congruences import (
    DissectionClaim,
    lhs_series,
    rhs_series,
    verify_congruence,
    verify_theorem,
    verify_zero_family_structurally,
    zero_family_claim,
)
from etaq.eta import gen_target
from etaq.identities import CATALOG, identity_sides, verify_all_identities
from etaq.oracle import cross_check
from etaq.sequences import (
    closed_form_C,
    sequence_values,
    verify_closed_forms,
    verify_valuations,
)
from etaq.series import FAIL, PASS, LaurentSeries, compare, worst

from prop_support import (
    assert_dissection_completeness,
    assert_extraction_linearity,
    assert_inverse_law,
    assert_precision_soundness,
    assert_ring_laws,
)


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    for order in (300, 600):
        reports = verify_all_identities(order)
        assert len(reports) == 15
        for report in reports:
            assert report.status == PASS, (report.label, order)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 1: PASS - 15/15 identities exact at N=300 and N=600 "
          f"({elapsed:.2f}s)")


def test_criterion_2_difference_collapses_to_five():
    lhs, rhs = identity_sides("EQ27", 304)
    assert lhs[0] == 5 and rhs[0] == 5
    for e in range(lhs.offset, 301):
        if e != 0:
            assert lhs[e] == 0, e
    print("criterion 2: PASS - difference series is exactly 5*q^0 through q^300")


def test_criterion_3_dissections_and_induction():
    reports = verify_theorem("3.1", 2000, 8)
    dissections = [r for r in reports if r.label.startswith("dissection")]
    inductions = [r for r in reports if r.label.startswith("induction")]
    assert len(dissections) == 24 and len(inductions) == 21
    for report in reports:
        assert report.status == PASS, report.label
    notes = {r.label: r.note for r in dissections if r.note is not None}
    assert notes["dissection[M,k=2]"] == (
        "k=2 lead labeling: A_2=-2 -> pass, swapped B_2=6 -> fail")
    assert notes["dissection[TSTAR,k=2]"] == (
        "k=2 lead labeling: B_2=6 -> pass, swapped A_2=-2 -> fail")
    print("criterion 3: PASS - 24 dissections (k<=8) and 21 induction steps "
          "at N=2000; k=2 labeling resolved as A_2=-2, B_2=6")


def test_criterion_4_two_power_congruences():
    reports = verify_theorem("1.1", 2000, 8)
    assert len(reports) == 16
    for report in reports:
        assert report.status == PASS, report.label
        assert report.checked["points"] >= 5, report.label
    print("criterion 4: PASS - 16/16 congruence rows at N=2000, "
          "every row >= 5 coefficients")


def test_criterion_5_deep_families_and_exact_zeros():
    deep = [r for r in verify_theorem("1.2", 4000, 1)
            if not r.label.startswith("1.7")]
    assert len(deep) == 8
    for report in deep:
        assert report.status == PASS, report.label

    zeros = verify_congruence(zero_family_claim(0), 2000)
    assert zeros.status == PASS
    assert zeros.checked["from"] == -1
    assert zeros.checked["points"] >= 100
    assert gen_target("PSTAR", 2000)[7] == 0
    assert verify_zero_family_structurally(0, 2000).status == PASS
    print("criterion 5: PASS - valuation families at N=4000 for k<=1; "
          "exact-zero progression verified at N=2000 including exponent 7")


def test_criterion_6_sequence_families():
    assert verify_valuations(64).status == PASS
    assert verify_closed_forms(64).status == PASS
    c_values = sequence_values("C", 64)
    for k in range(65):
        assert c_values[k] == closed_form_C(k), k
    assert c_values[2:5] == [8, 0, -64]
    print("criterion 6: PASS - exact valuations k-1 through k=64; "
          "closed form for C through k=64 with C_2=8, C_3=0, C_4=-64")


def test_criterion_7_oracle_equivalence():
    checks = cross_check(500)
    assert worst(c.status for c in checks) == PASS
    names = [c.label for c in checks]
    assert sum(1 for n in names if "mod" in n) == 3
    print("criterion 7: PASS - expander, factor products, and partition DP "
          "agree at N=500; classical congruences mod 5, 7, 11 hold")


def _perturbed(series: LaurentSeries, exponent: int) -> LaurentSeries:
    delta = -2 * series[exponent] if series[exponent] else 1
    bump = LaurentSeries.from_terms({exponent: delta}, series.offset, series.prec)
    return series + bump


def test_criterion_8_negative_controls():
    for tag in CATALOG:
        lhs, rhs = identity_sides(tag, 64)
        e0 = max(lhs.offset, rhs.offset)
        outcome = compare(lhs, _perturbed(rhs, e0), min_overlap=1)
        assert outcome.status == FAIL, tag
        assert outcome.witness is not None and outcome.witness[0] == e0, tag
    for target in ("M", "TSTAR", "PSTAR"):
        for k in range(1, 9):
            claim = DissectionClaim(target, k)
            lhs = lhs_series(claim, 2000)
            rhs = rhs_series(claim, 2000)
            e0 = max(lhs.offset, rhs.offset)
            outcome = compare(lhs, _perturbed(rhs, e0), min_overlap=1)
            assert outcome.status == FAIL, claim.label
            assert outcome.witness is not None and outcome.witness[0] == e0
    print("criterion 8: PASS - all 15 identities and 24 dissection claims "
          "fail with a witness under a one-coefficient perturbation")


def test_criterion_9_algebraic_property_suite():
    rng = random.Random(20260819)
    instances = 0
    for _ in range(300):
        assert_ring_laws(rng)
        instances += 1
    for _ in range(200):
        assert_inverse_law(rng)
        instances += 1
    for _ in range(200):
        assert_extraction_linearity(rng)
        instances += 1
    for _ in range(200):
        assert_dissection_completeness(rng)
        instances += 1
    for _ in range(150):
        assert_precision_soundness(rng)
        instances += 1
    assert instances >= 1000
    print(f"criterion 9: PASS - ring, inverse, extraction, and completeness "
          f"laws on {instances} randomized instances")
