"""Tests for dissection and congruence verification."""

from __future__ import annotations

import inspect
import math
import random

import pytest

import etaq.congruences as congruences
import etaq.eta as eta
import etaq.sequences as sequences
from etaq.congruences import (
    CongruenceClaim,
    DissectionClaim,
    lhs_series,
    rhs_series,
    theorem_11_claims,
    theorem_12_claims,
    verify_congruence,
    verify_dissection,
    verify_induction_step,
    verify_theorem,
    verify_zero_family_structurally,
    zero_family_claim,
)
from etaq.eta import gen_target
from etaq.identities import CATALOG, _read_sides, _series, rhs_terms
from etaq.sequences import coordinates, levels
from etaq.series import (
    FAIL,
    INSUFFICIENT,
    PASS,
    SKIPPED,
    LaurentSeries,
    compare,
    two_adic_valuation,
)


def test_claim_arithmetic():
    m1 = DissectionClaim("M", 1)
    assert (m1.step, m1.residue) == (2, 3)
    assert m1.label == "dissection[M,k=1]"
    assert "M(2n+3)" in m1.describe()
    assert "5*2^1 H" in m1.describe()

    t1 = DissectionClaim("TSTAR", 1)
    assert (t1.step, t1.residue) == (2, 2)
    assert "T*(2n+2)" in t1.describe()

    p1 = DissectionClaim("PSTAR", 1)
    assert (p1.step, p1.residue) == (2, 3)
    assert "H" not in p1.describe()

    m3 = DissectionClaim("M", 3)
    assert (m3.step, m3.residue) == (8, 15)


def test_claim_validation():
    with pytest.raises(ValueError):
        DissectionClaim("Q", 1)
    with pytest.raises(ValueError):
        DissectionClaim("M", 0)


def test_residue_offsets_are_minus_the_q_orders():
    # sum m e_m / 24 is 24/24 for M and P* and 48/24 for T*.
    offsets = [congruences._progression(t, level)[1] - (2 << level)
               for level in (1, 5) for t in congruences.TARGET_FAMILY]
    assert offsets == [-1, -2, -1] * 2


def test_a_row_with_a_fractional_q_order_is_refused(monkeypatch):
    monkeypatch.setitem(eta.TARGET_ROWS, "M", eta.TARGET_ROWS["M"]._replace(quotient={1: 1}))
    with pytest.raises(ValueError, match=r"sum m\*e_m / 24 = 1/24"):
        congruences._progression("M", 1)
    with pytest.raises(ValueError, match="1/24"):
        theorem_11_claims(1)


@pytest.mark.parametrize("target", ["M", "TSTAR", "PSTAR"])
def test_level_one_statement_sums_the_derived_progression(target):
    # The row's level-one tag and its quotient's q-order name one progression.
    row = eta.TARGET_ROWS[target]
    lhs = CATALOG[row.level_one].split(" = ")[0]
    step, residue = congruences._progression(target, 1)
    assert lhs == f"sum_{{n>=-1}} {row.name}({step}n+{residue}) q^n"


def test_describe_prints_h_when_the_family_has_one(monkeypatch):
    claim = DissectionClaim("PSTAR", 3)
    assert "H" not in claim.describe()
    monkeypatch.setitem(sequences._LEVEL_ONE, "C", (-4, -8, 1))
    assert claim.describe().endswith("C_3 q^-1 F - 8 C_2 G + 5*2^3 H")


def test_lhs_series_frozen_window():
    lhs = lhs_series(DissectionClaim("PSTAR", 1), 24)
    assert lhs.offset == -1
    assert [lhs[n] for n in range(-1, 4)] == [-4, 8, -8, 0, 20]


def _dissection(target, k, order):
    claim = DissectionClaim(target, k)
    return verify_dissection(claim, order, rhs_series(claim, order))


def test_dissections_pass():
    for k in range(1, 6):
        for target in ("M", "TSTAR", "PSTAR"):
            report = _dissection(target, k, 800)
            assert report.status == PASS, report.label
            assert report.witness is None


def test_a_zero_lead_keeps_the_rhs_window():
    # C_3 = 0, yet level 3's rhs keeps the window [-1, order - 1) of q^-1 F.
    rhs = rhs_series(DissectionClaim("PSTAR", 3), 64)
    assert (rhs.offset, rhs.prec, rhs[-1]) == (-1, 63, 0)


def test_level_two_lead_labeling_notes():
    m = _dissection("M", 2, 400)
    assert m.note == "k=2 lead labeling: A_2=-2 -> pass, swapped B_2=6 -> fail"
    t = _dissection("TSTAR", 2, 400)
    assert t.note == "k=2 lead labeling: B_2=6 -> pass, swapped A_2=-2 -> fail"
    p = _dissection("PSTAR", 2, 400)
    assert p.note is None


def test_swapped_family_rhs_fails():
    # The k = 2 labels are not interchangeable: each target's extracted
    # window rejects the other family's lead coefficient.
    claim = DissectionClaim("M", 2)
    lhs = lhs_series(claim, 400)
    swapped = _series(congruences._rhs_terms(levels("B", 2)[1]), 400)
    assert swapped[-1] == 6
    assert compare(lhs, swapped, min_overlap=8).status == FAIL


@pytest.mark.parametrize("order", (64, 500, 2000))
def test_dissection_of_the_term_list_equals_that_of_the_window(order):
    # v_k . BASIS as terms is covered to the lhs's window, so its report,
    # k = 2 notes and insufficient rows included, is that of the full window.
    reports = {}
    for target, family in congruences.TARGET_FAMILY.items():
        for k, v in enumerate(levels(family, 7), 1):
            claim = DissectionClaim(target, k)
            report = verify_dissection(claim, order, congruences._rhs_terms(v))
            assert report.to_dict() == verify_dissection(claim, order, rhs_series(claim, order)).to_dict()
            reports[target, k] = report
    assert reports["M", 2].note and reports["TSTAR", 2].note
    assert reports["PSTAR", 7].status == (INSUFFICIENT if order == 64 else PASS)


def test_theorem_31_dissection_rows_come_from_verify_dissection(monkeypatch):
    calls = []

    def counted(claim, order, rhs):
        calls.append(claim.label)
        return verify_dissection(claim, order, rhs)

    monkeypatch.setattr(congruences, "verify_dissection", counted)
    reports = verify_theorem("3.1", 400, 8)
    assert calls == [r.label for r in reports if r.label.startswith("dissection[")]
    assert len(calls) == 24


@pytest.mark.parametrize("target", ["M", "TSTAR", "PSTAR"])
def test_a_slip_in_the_level_two_terms_fails_at_the_lead(target):
    # Negative control: v_2 with its q^-1 F coordinate one too large.
    v = levels(congruences.TARGET_FAMILY[target], 2)[1]
    report = verify_dissection(DissectionClaim(target, 2), 400,
                               congruences._rhs_terms((v[0] + 1, *v[1:])))
    assert report.status == FAIL
    assert report.witness["exponent"] == -1
    assert int(report.witness["rhs"]) == int(report.witness["lhs"]) + 1


# The catalog's typed level-1 dissections and the target each one states.
LEVEL_ONE = (("L22", "PSTAR"), ("EQ210", "M"), ("EQ211", "TSTAR"))


def _outside_the_basis():
    """The level-1 statements with a term that is no multiple of a basis element."""
    outside = []
    for tag, _ in LEVEL_ONE:
        try:
            coordinates(rhs_terms(CATALOG[tag]))
        except ValueError:
            outside.append(tag)
    return outside


@pytest.mark.parametrize("tag,target", LEVEL_ONE)
def test_level_one_statements_lie_in_the_basis(tag, target):
    # Symbolic: the target's level 1 is its statement's coordinates times
    # the basis, with every nonzero term kept and none added.
    v = levels(congruences.TARGET_FAMILY[target], 1)[0]
    assert [term for term in congruences._rhs_terms(v) if term[0]] == rhs_terms(CATALOG[tag])


def test_basis_is_read_from_eq210():
    assert sequences.BASIS == [(1, -1, 0, {1: 4, 5: 4}), (1, 0, 0, {2: 4, 10: 4}),
                               (1, 0, 0, {1: 1, 2: 1, 5: 3, 10: 3})]
    assert congruences.BASIS is sequences.BASIS


def test_a_slip_in_the_basis_fails_a_dissection_row(monkeypatch):
    # Negative control: G = f2^4 f10^3 instead of f2^4 f10^4.
    f, (c, s, j, g), h = sequences.BASIS
    slipped = [f, (c, s, j, {**g, 10: 3}), h]
    monkeypatch.setattr(sequences, "BASIS", slipped)
    monkeypatch.setattr(congruences, "BASIS", slipped)
    claim = DissectionClaim("M", 2)
    report = verify_dissection(claim, 400, rhs_series(claim, 400))
    assert report.status == FAIL
    assert report.witness == {"exponent": 10, "lhs": "-128", "rhs": "-136"}
    # EQ211 has no G term, so only L22 and EQ210 leave the slipped basis.
    assert _outside_the_basis() == ["L22", "EQ210"]


def test_a_slip_in_t_of_h_fails_its_window_and_a_dissection_row(monkeypatch):
    # Negative control: T(H) = q^-1 F + 3 H in place of q^-1 F + 2 H.
    assert sequences.T_OF_H.count("+ 2 f1") == 1
    edited = sequences.T_OF_H.replace("+ 2 f1", "+ 3 f1")
    outcome = compare(*_read_sides(edited, 400), min_overlap=150)
    assert (outcome.status, outcome.witness) == (FAIL, (0, -2, -1))
    monkeypatch.setattr(sequences, "T_OF_H", edited)
    monkeypatch.setattr(sequences, "U", sequences._matrix())
    assert sequences.U == ((-4, 1, 1), (-8, 0, 0), (0, 0, 3))
    claim = DissectionClaim("M", 2)
    report = verify_dissection(claim, 400, rhs_series(claim, 400))
    assert report.status == FAIL
    assert report.witness == {"exponent": 0, "lhs": "20", "rhs": "30"}
    # P*'s levels have no H term, so only the M and T* rows of level 2 see it.
    failed = {r.label for r in verify_theorem("3.1", 400, 2) if r.status == FAIL}
    assert failed == {"dissection[M,k=2]", "dissection[TSTAR,k=2]",
                      "induction[M,k=1->2]", "induction[TSTAR,k=1->2]"}


def _induction(target, k, order):
    claim, nxt = DissectionClaim(target, k), DissectionClaim(target, k + 1)
    return verify_induction_step(claim, order, rhs_series(claim, order), rhs_series(nxt, order))


def test_induction_steps_pass():
    for k in range(1, 5):
        for target in ("M", "TSTAR", "PSTAR"):
            report = _induction(target, k, 400)
            assert report.status == PASS, report.label
    report = _induction("M", 1, 400)
    assert report.label == "induction[M,k=1->2]"
    assert report.claim.startswith("extract(q^-2 * (A_1 q^-1 F")


def test_verify_congruence_pass_and_checked_window():
    claim = CongruenceClaim("M", 4, 7, 1, "1.1[k=2]")
    report = verify_congruence(claim, 120, min_points=5)
    assert report.status == PASS
    assert report.checked is not None
    assert report.checked["from"] == -1
    assert report.checked["points"] >= 5


def test_verify_congruence_detects_false_valuation():
    fake = CongruenceClaim("PSTAR", 2, 3, 3, "fake")
    report = verify_congruence(fake, 64)
    assert report.status == FAIL
    assert report.witness == {
        "n": -1, "exponent": 1, "value": "-4", "v2": 2,
    }


def test_verify_congruence_detects_false_exact_zero():
    fake = CongruenceClaim("M", 2, 2, None, "fake-zero")
    report = verify_congruence(fake, 64)
    assert report.status == FAIL
    assert report.witness == {
        "n": -1, "exponent": 0, "value": "1", "v2": 0,
    }


def _reference_congruence(claim, order):
    """verify_congruence one coefficient at a time, through ``__getitem__``."""
    series = gen_target(claim.target, order)
    for n in range(-1, order):
        e = claim.step * n + claim.residue
        if e >= series.prec:
            break
        value = series[e]
        v = two_adic_valuation(value)
        if v < (math.inf if claim.required_valuation is None else claim.required_valuation):
            return FAIL, {"n": n, "exponent": e, "value": str(value),
                          "v2": "inf" if value == 0 else int(v)}
    return PASS, None


def test_verify_congruence_matches_per_coefficient_reference():
    # Passing and failing claims, exact-zero and valuation ones, and
    # progressions whose first exponents lie below the window.
    rng = random.Random(31)
    for _ in range(120):
        claim = CongruenceClaim(rng.choice(("M", "TSTAR", "PSTAR")), rng.randint(1, 16),
                                rng.randint(-20, 40), rng.choice((None, 0, 1, 2, 3, 5)), "x")
        order = rng.randint(41, 300)
        report = verify_congruence(claim, order)
        assert (report.status, report.witness) == _reference_congruence(claim, order)


def test_verify_congruence_insufficient_when_unreachable():
    remote = CongruenceClaim("PSTAR", 4096, 6143, None, "far")
    report = verify_congruence(remote, 100)
    assert report.status == INSUFFICIENT
    assert report.checked is None
    assert "need 1" in report.note
    # Level 1000 of row 1.1 starts past any index a slice could take.
    beyond = theorem_11_claims(1000)[-2]
    report = verify_congruence(beyond, 500, min_points=5)
    assert (report.status, report.checked) == (INSUFFICIENT, None)
    assert report.note == "only 0 reachable coefficients below order 500, need 5"


@pytest.mark.parametrize("claim, order, min_points", [
    pytest.param(CongruenceClaim("M", 32, 63, 4, "1.1[k=5]"), 100, 5, id="too-few"),
    # residue < step: the n = -1 exponent lies below the window.
    pytest.param(CongruenceClaim("M", 4, 3, 0, "x"), 20, 1, id="below-window"),
    pytest.param(CongruenceClaim("M", 4, 7, 0, "x"), 20, 5, id="last-at-order-1"),
    pytest.param(CongruenceClaim("M", 4, 7, 0, "x"), 19, 5, id="last-at-order"),
    # No reachable coefficient: never a vacuous pass, even at min_points=0.
    pytest.param(CongruenceClaim("M", 4, 700, 3, "x"), 500, 1, id="none"),
    pytest.param(CongruenceClaim("M", 4, 700, 3, "x"), 500, 0, id="none-min-0"),
    pytest.param(CongruenceClaim("M", 4, 7, 0, "x"), 20, 0, id="some-min-0"),
])
def test_verify_congruence_min_points_gate(claim, order, min_points):
    points = sum(1 for n in range(-1, order) if claim.step * n + claim.residue < order)
    report = verify_congruence(claim, order, min_points=min_points)
    if points == 0:
        assert report.checked is None
    else:
        assert report.checked == {"from": -1, "to": points - 2, "points": points}
    assert report.status == (PASS if points >= max(1, min_points) else INSUFFICIENT)


def test_theorem_11_claim_table():
    claims = theorem_11_claims(3)
    assert [c.label for c in claims] == [
        "1.1[k=1]", "1.2[k=1]", "1.1[k=2]", "1.2[k=2]", "1.1[k=3]", "1.2[k=3]",
    ]
    assert claims[4].step == 8 and claims[4].residue == 15
    assert claims[4].required_valuation == 2
    assert claims[5].target == "TSTAR" and claims[5].residue == 14

    claims = theorem_11_claims(40)
    assert len(claims) == 80
    for k in range(1, 41):
        m, t = claims[2 * k - 2], claims[2 * k - 1]
        assert (m.target, m.step, m.residue, m.required_valuation) == (
            "M", 2 ** k, 2 ** (k + 1) - 1, k - 1)
        assert (t.target, t.step, t.residue, t.required_valuation) == (
            "TSTAR", 2 ** k, 2 ** (k + 1) - 2, k - 1)
        for c in (m, t):
            d = DissectionClaim(c.target, k)
            assert (d.step, d.residue) == (c.step, c.residue)


def test_theorem_12_claim_table():
    claims = theorem_12_claims(1)
    assert [c.label for c in claims] == [
        "1.3[k=0]", "1.4[k=0]", "1.5[k=0]", "1.6[k=0]", "1.7[k=0]",
        "1.3[k=1]", "1.4[k=1]", "1.5[k=1]", "1.6[k=1]", "1.7[k=1]",
    ]
    by_label = {c.label: c for c in claims}
    assert by_label["1.3[k=0]"].required_valuation == 0
    assert by_label["1.6[k=1]"].step == 128
    assert by_label["1.6[k=1]"].required_valuation == 12
    assert by_label["1.7[k=0]"].step == 16
    assert by_label["1.7[k=0]"].residue == 23
    assert by_label["1.7[k=0]"].required_valuation is None

    claims = theorem_12_claims(10)
    assert len(claims) == 55
    for k in range(11):
        for i, extra in enumerate((0, 2, 3, 6)):
            c = claims[5 * k + i]
            level = 4 * k + i
            assert (c.label, c.target, c.step, c.residue, c.required_valuation) == (
                f"1.{3 + i}[k={k}]", "PSTAR", 2 ** level, 2 ** (level + 1) - 1, 6 * k + extra)
            if level >= 1:
                d = DissectionClaim("PSTAR", level)
                assert (d.step, d.residue) == (c.step, c.residue)
        z = claims[5 * k + 4]
        assert (z.label, z.target, z.step, z.residue, z.required_valuation) == (
            f"1.7[k={k}]", "PSTAR", 2 ** (4 * k + 4), 3 * 2 ** (4 * k + 3) - 1, None)
        assert z == zero_family_claim(k)


def _valuation_mismatches(claims):
    """Labels of the claims whose typed valuation is not the least v2 of the
    coordinates of their level, the level being log2 of the step."""
    top = max(c.step for c in claims).bit_length() - 1
    # Level 0 is q^-1 F itself; only P*'s row 1.3[k=0] reads it.
    vs = {t: [(1, 0, 0)] + levels(f, top) for t, f in congruences.TARGET_FAMILY.items()}
    return [c.label for c in claims if c.required_valuation is not None
            and c.required_valuation != min(map(two_adic_valuation,
                                                vs[c.target][c.step.bit_length() - 1]))]


def test_typed_valuations_are_the_least_v2_of_the_level_coordinates():
    assert _valuation_mismatches(theorem_11_claims(64)) == []
    assert _valuation_mismatches(theorem_12_claims(16)) == []


def test_a_wrong_valuation_table_entry_is_caught():
    # Negative control: 6k + 4 in place of 6k + 3 for the rows 1.5.
    source = inspect.getsource(congruences.theorem_12_claims)
    assert source.count("(0, 2, 3, 6)") == 1
    namespace = dict(vars(congruences))
    exec(source.replace("(0, 2, 3, 6)", "(0, 2, 4, 6)"), namespace)
    assert _valuation_mismatches(namespace["theorem_12_claims"](16)) == [
        f"1.5[k={k}]" for k in range(17)]


def test_theorem_11_passes():
    reports = verify_theorem("1.1", 1200, 6)
    assert len(reports) == 12
    assert all(r.status == PASS for r in reports)


def test_theorem_12_passes_with_reach_filter():
    reports = verify_theorem("1.2", 2000, 2)
    status = {r.label: r.status for r in reports}
    assert len(reports) == 15
    assert status["1.5[k=2]"] == PASS
    assert status["1.6[k=2]"] == SKIPPED
    assert status["1.7[k=2]"] == SKIPPED
    assert [r.label for r in reports if r.status != PASS] == ["1.6[k=2]", "1.7[k=2]"]
    skipped = reports[-1]
    assert skipped.note == "first coefficient q^2047 lies beyond the window"
    assert skipped.checked is None and skipped.witness is None


@pytest.mark.parametrize("order", (64, 2000))
@pytest.mark.parametrize("kmax", (0, 1, 2, 8))
def test_theorem_12_emits_every_claim(order, kmax):
    reports = verify_theorem("1.2", order, kmax)
    assert len(reports) == 5 * (kmax + 1)
    assert [r.label for r in reports] == [c.label for c in theorem_12_claims(kmax)]
    for report, claim in zip(reports, theorem_12_claims(kmax)):
        beyond = claim.residue - claim.step >= order
        assert report.status == (SKIPPED if beyond else PASS), report.label
        assert report.order == order


def test_theorem_31_passes():
    reports = verify_theorem("3.1", 400, 3)
    assert len(reports) == 15
    labels = [r.label for r in reports]
    assert labels.count("dissection[M,k=1]") == 1
    assert labels.count("induction[PSTAR,k=2->3]") == 1
    assert all(r.status == PASS for r in reports)


@pytest.mark.parametrize("order, kmax, statuses", [
    (400, 6, {PASS}),
    # Levels 7 and 8 lie past the window: no coefficient below the order.
    (64, 8, {PASS, INSUFFICIENT}),
])
def test_theorem_31_rows_match_per_claim_calls(order, kmax, statuses):
    claims = [DissectionClaim(t, k) for k in range(1, kmax + 1) for t in ("M", "TSTAR", "PSTAR")]
    expected = [_dissection(c.target, c.k, order) for c in claims]
    expected += [_induction(c.target, c.k, order) for c in claims if c.k < kmax]
    reports = verify_theorem("3.1", order, kmax)
    assert reports == expected
    assert {r.status for r in reports} == statuses


def test_theorem_31_builds_each_rhs_once(monkeypatch):
    # One run of levels per family plus one per k = 2 swapped labeling;
    # one rhs window per (target, level) plus the two swapped windows, each
    # only as long as its lhs, and the six full windows of the basis
    # residuals T(B_i) and (U e_i) . BASIS, from which the induction rows come.
    calls = {"levels": 0, "covered": 0, "window": 0}

    def counted(kind, real):
        def wrapper(*args):
            calls[kind] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(congruences, "levels", counted("levels", levels))
    monkeypatch.setattr(congruences, "_covered", counted("covered", congruences._covered))
    monkeypatch.setattr(congruences, "_series", counted("window", congruences._series))
    kmax = 8
    reports = verify_theorem("3.1", 400, kmax)
    assert len(reports) == 3 * kmax + 3 * (kmax - 1)
    assert calls == {"levels": 3 + 2, "covered": 3 * kmax + 2, "window": 6}


def _windowed(order, kmax):
    """Theorem 3.1's rows from the per-claim calls on full level windows, the reference path."""
    claims = [DissectionClaim(t, k) for k in range(1, kmax + 1) for t in congruences.TARGET_FAMILY]
    return ([_dissection(c.target, c.k, order) for c in claims]
            + [_induction(c.target, c.k, order) for c in claims if c.k < kmax])


@pytest.mark.parametrize("order", (64, 500, 2000))
def test_theorem_31_linear_path_equals_the_windowed_path(order):
    # The basis residuals pass, so the induction rows come from their
    # window and each dissection's rhs stops at its lhs's window.
    assert congruences._basis_step(order) is not None
    reports = verify_theorem("3.1", order, 40)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in _windowed(order, 40)]


def _corrupt_m(monkeypatch):
    """M with one coefficient off by one: the lhs alone is wrong, the residuals pass."""
    real = congruences.gen_target

    def corrupted(tag, order):
        s = real(tag, order)
        return s + LaurentSeries.from_terms({27: 1}, 0, s.prec) if tag == "M" else s
    monkeypatch.setattr(congruences, "gen_target", corrupted)


def _wrong_u_entry(monkeypatch):
    """U's (3, 3) entry 2 -> 3."""
    u = [list(row) for row in sequences.U]
    u[2][2] = 3
    monkeypatch.setattr(sequences, "U", tuple(map(tuple, u)))


def _edited_t_of_h(monkeypatch):
    """T(H) = q^-1 F + 3 H in place of q^-1 F + 2 H, and U read from it."""
    monkeypatch.setattr(sequences, "T_OF_H", sequences.T_OF_H.replace("+ 2 f1", "+ 3 f1"))
    monkeypatch.setattr(sequences, "U", sequences._matrix())


@pytest.mark.parametrize("defect, linear", ((_wrong_u_entry, False), (_edited_t_of_h, False),
                                            (_corrupt_m, True)))
def test_theorem_31_negative_controls_fail_alike_on_both_paths(monkeypatch, defect, linear):
    defect(monkeypatch)
    order = 500
    assert (congruences._basis_step(order) is not None) == linear
    reports, reference = verify_theorem("3.1", order, 40), _windowed(order, 40)
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in reference]
    failing = [(r.label, r.witness) for r in reports if r.status == FAIL]
    assert failing and all(witness for _, witness in failing)
    # A wrong U breaks the induction rows; a wrong lhs only the dissections.
    assert any(label.startswith("induction[") for label, _ in failing) != linear


def test_theorem_unknown_id():
    with pytest.raises(ValueError):
        verify_theorem("9.9", 400, 2)


def test_zero_family_claim_text():
    assert zero_family_claim(0).describe() == "P*(16n+23) == 0 for all n >= -1"


def test_zero_family_structural_routes():
    report = verify_zero_family_structurally(0, 600)
    assert report.status == PASS
    assert report.label == "1.7-structural[k=0]"
    assert report.claim.endswith("derived from the level-3 dissection")
    assert report.note == (
        "rhs == (-64)^1 f2^4 f10^4: pass; "
        "odd part of rhs identically zero: pass; "
        "direct coefficient scan: pass")

    deeper = verify_zero_family_structurally(1, 600)
    assert deeper.status == PASS
    assert deeper.checked["points"] == 2


def test_zero_family_structural_negative_control(monkeypatch):
    # An odd q^1 term in the level-3 rhs breaks both structural facts;
    # the direct scan of P* itself still passes.
    real_rhs = congruences.rhs_series

    def broken(claim, order):
        s = real_rhs(claim, order)
        return s + LaurentSeries.from_terms({1: 1}, s.offset, s.prec)

    monkeypatch.setattr(congruences, "rhs_series", broken)
    report = verify_zero_family_structurally(0, 200)
    assert report.status == FAIL
    assert report.witness == {"exponent": 1, "lhs": "1", "rhs": "0"}
    assert report.note == (
        "rhs == (-64)^1 f2^4 f10^4: fail; "
        "odd part of rhs identically zero: fail; "
        "direct coefficient scan: pass")


def test_report_dict_shape():
    payload = _dissection("PSTAR", 1, 64).to_dict()
    assert set(payload) == {
        "label", "claim", "status", "order", "checked", "witness", "note",
    }
    assert payload["status"] == PASS
    assert payload["order"] == 64
    assert payload["checked"]["points"] >= 16
