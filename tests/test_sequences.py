"""Tests for the constant-recursive lead-coefficient families."""

from __future__ import annotations

import math

import pytest

from etaq.sequences import (
    closed_form_C,
    sequence_values,
    verify_closed_forms,
    verify_valuations,
)
from etaq.series import PASS, two_adic_valuation

A_HEAD = [1, 1, -2, 20, -24, 16]
B_HEAD = [0, 1, 6, -12, 40, 16]
C_HEAD = [1, -4, 8, 0, -64, 256, -512, 0, 4096]


def test_frozen_heads():
    assert sequence_values("A", 5) == A_HEAD
    assert sequence_values("B", 5) == B_HEAD
    assert sequence_values("C", 8) == C_HEAD


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
