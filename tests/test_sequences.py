"""Tests for the level coordinates and the lead-coefficient families."""

from __future__ import annotations

import importlib.util
import math

import pytest

import etaq.sequences as sequences
from etaq.identities import CATALOG, _read_sides, rhs_terms
from etaq.sequences import (
    closed_form_C,
    coordinates,
    levels,
    sequence_values,
    verify_closed_forms,
    verify_valuations,
)
from etaq.series import FAIL, PASS, compare, two_adic_valuation

A_HEAD = [1, 1, -2, 20, -24, 16]
B_HEAD = [0, 1, 6, -12, 40, 16]
C_HEAD = [1, -4, 8, 0, -64, 256, -512, 0, 4096]


def test_frozen_heads():
    assert sequence_values("A", 5) == A_HEAD
    assert sequence_values("B", 5) == B_HEAD
    assert sequence_values("C", 8) == C_HEAD


def _recurrence(family, kmax):
    """P_0, ..., P_kmax from P_k = -4 P_(k-1) - 8 P_(k-2) (+ 5 * 2^(k-1) for A
    and B), with the initial values typed by hand: the reference for U."""
    p0, p1 = {"A": (1, 1), "B": (0, 1), "C": (1, -4)}[family]
    values = [p0, p1]
    for k in range(2, kmax + 1):
        nxt = -4 * values[k - 1] - 8 * values[k - 2]
        if family != "C":
            nxt += 5 << (k - 1)
        values.append(nxt)
    return values[:kmax + 1]


@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_sequence_values_match_the_recurrence(family):
    assert sequence_values(family, 200) == _recurrence(family, 200)
    assert [sequence_values(family, k) for k in (0, 1, 2)] == [
        _recurrence(family, k) for k in (0, 1, 2)]


def test_matrix_is_read_from_l22_and_t_of_h():
    assert sequences.U == ((-4, 1, 1), (-8, 0, 0), (0, 0, 2))
    assert [levels(f, 1)[0] for f in "ABC"] == [(1, -8, 10), (1, 0, 10), (-4, -8, 0)]
    assert levels("A", 3) == [(1, -8, 10), (-2, -8, 20), (20, 16, 40)]
    assert levels("C", 0) == []


def test_t_of_h_holds_on_a_window():
    lhs, rhs = _read_sides(sequences.T_OF_H, 1000)
    outcome = compare(lhs, rhs, min_overlap=400)
    assert outcome.status == PASS
    assert outcome.overlap >= 400


def test_a_term_outside_the_basis_raises():
    # f2^4 f10^3 is no multiple of q^-1 F, G or H; it must not be read as a zero coordinate.
    with pytest.raises(ValueError, match="not a multiple of q\\^-1 F, G or H"):
        coordinates(rhs_terms("x = f1^4 f5^4/q - 8 f2^4 f10^3"))
    assert coordinates(rhs_terms(CATALOG["EQ211"])) == (1, 0, 10)


def test_a_level_one_statement_outside_the_basis_fails_the_import(monkeypatch):
    # A fresh copy of the module reads the edited EQ211 as it is imported.
    edited = CATALOG["EQ211"] + " + f2^4 f10^3"
    monkeypatch.setitem(CATALOG, "EQ211", edited)
    spec = importlib.util.spec_from_file_location("etaq._sequences_copy", sequences.__file__)
    with pytest.raises(ValueError, match="not a multiple"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_seq_value_agrees_with_iteration():
    for family in ("A", "B", "C"):
        values = sequence_values(family, 20)
        assert [sequence_values(family, k)[k] for k in range(21)] == values


def test_forcing_term_cancels_in_difference():
    # A and B share the forcing term, so their difference satisfies the
    # homogeneous recurrence on its own.
    a = sequence_values("A", 30)
    b = sequence_values("B", 30)
    d = [x - y for x, y in zip(a, b)]
    assert all(d[k] == -4 * d[k - 1] - 8 * d[k - 2] for k in range(2, 31))


def test_forcing_term_reconstruction():
    a = sequence_values("A", 30)
    assert all(a[k] + 4 * a[k - 1] + 8 * a[k - 2] == 5 << (k - 1)
               for k in range(2, 31))


def test_closed_form_C_values():
    assert [closed_form_C(k) for k in range(9)] == C_HEAD
    assert closed_form_C(12) == (-64) ** 3
    assert closed_form_C(40) == (-64) ** 10


def test_family_C_vanishes_on_residue_three():
    for k in range(41):
        if k % 4 == 3:
            assert sequence_values("C", k)[k] == 0
        else:
            assert sequence_values("C", k)[k] != 0


def test_valuation_pattern_explicitly():
    for family in ("A", "B"):
        for k in range(1, 33):
            assert two_adic_valuation(sequence_values(family, k)[k]) == k - 1
    assert two_adic_valuation(sequence_values("C", 3)[3]) is math.inf


def test_verify_valuations_passes():
    check = verify_valuations(64)
    assert check.status == PASS
    assert check.witness is None
    assert check.to_dict()["checked"] == {"from": 1, "to": 64, "points": 64}


def _edited(real, edits):
    """sequence_values with values[k] replaced by edits[(family, k)]."""
    def values(family, kmax):
        out = real(family, kmax)
        for (f, k), value in edits.items():
            if f == family:
                out[k] = value
        return out
    return values


def test_verify_valuations_names_the_first_value_off(monkeypatch):
    # B_3 = -12 has v2 = 2; doubling it gives v2 = 3.  A's rows run first,
    # so an A_5 edit (16 -> 32) further along still comes first.
    real = sequences.sequence_values
    monkeypatch.setattr(sequences, "sequence_values", _edited(real, {("B", 3): -24}))
    check = verify_valuations(64)
    assert check.status == FAIL
    assert check.checked == {"from": 1, "to": 64, "points": 64}
    assert check.witness == {"family": "B", "k": 3, "value": "-24", "v2": 3}
    monkeypatch.setattr(sequences, "sequence_values",
                        _edited(real, {("A", 5): 32, ("B", 3): -24}))
    assert verify_valuations(64).witness == {"family": "A", "k": 5, "value": "32", "v2": 5}
    # A zero value has no finite valuation: its v2 is null in JSON.
    monkeypatch.setattr(sequences, "sequence_values", _edited(real, {("A", 2): 0}))
    assert verify_valuations(64).witness == {"family": "A", "k": 2, "value": "0", "v2": None}


def test_verify_closed_forms_names_the_first_value_off(monkeypatch):
    edited = _edited(sequences.sequence_values, {("C", 6): -511})
    monkeypatch.setattr(sequences, "sequence_values", edited)
    check = verify_closed_forms(64)
    assert check.status == FAIL
    assert check.checked == {"from": 0, "to": 64, "points": 65}
    assert check.witness == {"k": 6, "value": "-511", "closed_form": "-512"}
    # A closed form that agrees with the edit leaves the telescoping step,
    # C_6 == -64 C_2 = -512, to catch it.
    values = edited("C", 64)
    monkeypatch.setattr(sequences, "closed_form_C", values.__getitem__)
    check = verify_closed_forms(64)
    assert check.status == FAIL
    assert check.witness == {"k": 2, "value": "-511", "telescoped": "-512"}


def test_verify_closed_forms_passes():
    check = verify_closed_forms(64)
    assert check.status == PASS
    assert check.witness is None
    assert check.checked == {"from": 0, "to": 64, "points": 65}


def test_validation_errors():
    with pytest.raises(ValueError):
        sequence_values("D", 5)
    with pytest.raises(ValueError):
        sequence_values("A", -1)
    with pytest.raises(ValueError):
        closed_form_C(-1)
    with pytest.raises(ValueError):
        verify_valuations(1)
    with pytest.raises(ValueError):
        verify_closed_forms(7)
