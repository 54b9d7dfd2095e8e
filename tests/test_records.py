"""The contract of the five immutable records: LaurentSeries, Comparison,
Report, DissectionClaim and CongruenceClaim.

Each behaves as a frozen value: built from the same positional or keyword
arguments, equal (and hashing alike) exactly when its class and fields
are, closed to assignment, and unchanged by copying or pickling.  A last
test checks that importing etaq pulls in neither ``dataclasses`` nor
``inspect``.
"""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import etaq
from etaq.congruences import CongruenceClaim, DissectionClaim
from etaq.series import FAIL, PASS, Comparison, EmptyWindow, LaurentSeries, Report

_EMPTY = inspect.Parameter.empty

# Per record: its fields in constructor order with their defaults, and the
# arguments of two distinct sample values.
RECORDS = {
    LaurentSeries: (
        (("offset", _EMPTY), ("coeffs", _EMPTY)),
        ((-1, (1, 2, 3)), (0, (1, 2, 3))),
    ),
    Comparison: (
        (("status", _EMPTY), ("lo", _EMPTY), ("hi", _EMPTY), ("overlap", _EMPTY),
         ("witness", None)),
        ((FAIL, 0, 2, 3, (1, 2, 5)), (PASS, 0, 2, 3)),
    ),
    Report: (
        (("label", _EMPTY), ("status", _EMPTY), ("claim", None), ("order", None),
         ("checked", None), ("witness", None), ("note", None)),
        (("x", FAIL, "a == b", 9, {"from": 0, "to": 1, "points": 2},
          {"exponent": 1, "lhs": "2", "rhs": "3"}, "n"),
         ("y", PASS)),
    ),
    DissectionClaim: (
        (("target", _EMPTY), ("k", _EMPTY)),
        (("M", 2), ("PSTAR", 3)),
    ),
    CongruenceClaim: (
        (("target", _EMPTY), ("step", _EMPTY), ("residue", _EMPTY),
         ("required_valuation", _EMPTY), ("label", _EMPTY)),
        (("M", 4, 7, 1, "1.1[k=2]"), ("PSTAR", 256, 255, None, "zero[k=1]")),
    ),
}

SAMPLES = [pytest.param(cls, args, id=f"{cls.__name__}-{i}")
           for cls, (_, samples) in RECORDS.items() for i, args in enumerate(samples)]


def _fields(cls, record):
    return tuple(getattr(record, name) for name, _ in RECORDS[cls][0])


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_same_arguments_and_defaults(cls):
    fields, (args, _) = RECORDS[cls]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default) for name, default in fields]
    by_name = cls(**{name: value for (name, _), value in zip(fields, args)})
    assert by_name == cls(*args)
    assert _fields(cls, by_name) == args
    required = sum(default is _EMPTY for _, default in fields)
    with pytest.raises(TypeError):
        cls(*args[:required - 1])
    with pytest.raises(TypeError):
        cls(*args, *[None] * (len(fields) - len(args) + 1))


@pytest.mark.parametrize("cls, args", SAMPLES)
def test_equal_fields_give_equal_records_and_hashes(cls, args):
    a, b = cls(*args), cls(*copy.deepcopy(args))
    assert a is not b
    assert a == b and not a != b
    other = next(s for s in RECORDS[cls][1] if s != args)
    assert a != cls(*other)
    if _hashable(_fields(cls, a)):
        assert hash(a) == hash(b) == hash(_fields(cls, a))
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, args", SAMPLES)
def test_a_record_never_equals_another_class_with_the_same_values(cls, args):
    record = cls(*args)
    fields = _fields(cls, record)
    names = [name for name, _ in RECORDS[cls][0]]
    subclass = type(f"Sub{cls.__name__}", (cls,), {})
    for lookalike in (fields, list(fields),
                      types.SimpleNamespace(**dict(zip(names, fields))),
                      subclass(*args)):
        assert record != lookalike
        assert lookalike != record
        assert not record == lookalike


@pytest.mark.parametrize("cls, args", SAMPLES)
def test_assignment_and_deletion_raise(cls, args):
    record = cls(*args)
    before = _fields(cls, record)
    for name, _ in RECORDS[cls][0]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.extra
    assert _fields(cls, record) == before


@pytest.mark.parametrize("cls, args", SAMPLES)
def test_copies_and_pickles_are_equal_records(cls, args):
    record = cls(*args)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls
        assert twin == record
        assert _fields(cls, twin) == _fields(cls, record)
        with pytest.raises(AttributeError):
            setattr(twin, RECORDS[cls][0][0][0], None)
    deep = copy.deepcopy(record)
    for value, copied in zip(_fields(cls, record), _fields(cls, deep)):
        if isinstance(value, dict):
            assert copied is not value


def test_reprs_name_the_class_and_fields():
    assert repr(LaurentSeries(-1, (1, 2, 3))) == \
        "LaurentSeries(offset=-1, prec=2, coeffs=(1, 2, 3))"
    assert repr(LaurentSeries(0, range(10))) == \
        "LaurentSeries(offset=0, prec=10, coeffs=(0, 1, 2, 3, 4, 5, 6, 7, ...))"
    assert repr(Comparison(FAIL, 0, 2, 3, (1, 2, 5))) == \
        "Comparison(status='fail', lo=0, hi=2, overlap=3, witness=(1, 2, 5))"
    assert repr(Report("y", PASS)) == ("Report(label='y', status='pass', claim=None, "
                                       "order=None, checked=None, witness=None, note=None)")
    assert repr(DissectionClaim("M", 2)) == "DissectionClaim(target='M', k=2)"
    assert repr(CongruenceClaim("M", 4, 7, None, "z")) == (
        "CongruenceClaim(target='M', step=4, residue=7, required_valuation=None, label='z')")


def test_validation_is_unchanged():
    assert LaurentSeries(0, [1, 2]).coeffs == (1, 2)
    assert LaurentSeries(0, iter([3])) == LaurentSeries(0, (3,))
    with pytest.raises(EmptyWindow, match=r"^a series window must contain at least one exponent$"):
        LaurentSeries(0, ())
    with pytest.raises(EmptyWindow):
        LaurentSeries(offset=5, coeffs=[])
    with pytest.raises(ValueError, match=r"^unknown target 'X'$"):
        DissectionClaim("X", 1)
    with pytest.raises(ValueError, match=r"^dissection level must be >= 1, got 0$"):
        DissectionClaim("M", 0)
    with pytest.raises(ValueError, match=r"^unknown target 'm'$"):
        CongruenceClaim("m", 2, 1, 0, "x")
    with pytest.raises(ValueError, match=r"^step must be >= 1, got 0$"):
        CongruenceClaim("M", 0, 1, 0, "x")


def test_importing_etaq_loads_neither_dataclasses_nor_inspect():
    # Compares sys.modules before and after the import, so a site hook
    # that already loaded either module cannot fail the test.
    src = str(Path(etaq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import etaq, etaq.cli\n"
            "assert etaq.__file__.startswith(sys.argv[1]), etaq.__file__\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code, src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "etaq.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
