"""End-to-end tests for the command-line front end.

Each test drives main() with a concrete argv and asserts on the exit
code and the printed output, exercising every exit path.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etaq.cli as cli
import etaq.eta as eta
from etaq import series
from etaq.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    MAX_EXPONENT_SUM,
    MAX_KMAX,
    MAX_ORDER,
    main,
    run,
)
from etaq.series import FAIL, INSUFFICIENT, PASS, SKIPPED, Report


def test_expand_partition_window(capsys):
    assert main(["expand", "f1^-1", "--order", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "offset=0 prec=5\n1\n1\n2\n3\n5\n"


def test_expand_default_order(capsys):
    assert main(["expand", "f2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "offset=0 prec=500"
    assert len(lines) == 501


def test_expand_rejects_bad_order(capsys):
    assert main(["expand", "f1", "--order", "0"]) == EXIT_USAGE
    assert "order" in capsys.readouterr().err


def test_expand_rejects_parse_error(capsys):
    assert main(["expand", "f1**2"]) == EXIT_USAGE
    assert "etaq: error:" in capsys.readouterr().err


def test_dissect_odd_part_window(capsys):
    assert main(["dissect", "f1^4*f5^4", "2", "1", "--order", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == ("offset=0 prec=10\n"
                   "-4\n8\n-8\n0\n20\n16\n-24\n-64\n92\n-40\n")


def test_dissect_empty_window_is_precision_exit(capsys):
    assert main(["dissect", "f1", "40", "39", "--order", "20"]) == EXIT_PRECISION
    err = capsys.readouterr().err
    assert "insufficient precision" in err
    assert "congruent to 39 mod 40" in err


def test_sequences_text_table(capsys):
    assert main(["sequences", "--family", "C", "--kmax", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == ("k\tvalue\tv2\n"
                   "0\t1\t0\n1\t-4\t2\n2\t8\t3\n3\t0\tinf\n4\t-64\t6\n")


def test_sequences_json(capsys):
    assert main(["sequences", "--family", "A", "--kmax", "3",
                 "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"k": 0, "value": "1", "v2": 0},
        {"k": 1, "value": "1", "v2": 0},
        {"k": 2, "value": "-2", "v2": 1},
        {"k": 3, "value": "20", "v2": 2},
    ]


def test_sequences_rejects_negative_kmax(capsys):
    assert main(["sequences", "--family", "A", "--kmax", "-1"]) == EXIT_USAGE
    assert "kmax must be >= 0" in capsys.readouterr().err


def test_verify_identity_single(capsys):
    assert main(["verify", "identity", "--id", "EQ28", "--order", "64"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "[PASS] EQ28 f1 f2 f5^5 = f2^4 f5^2 f10 - q f1^2 f10^5 (0..63, 64 points)\n")


def test_verify_identity_requires_id(capsys):
    assert main(["verify", "identity", "--order", "64"]) == EXIT_USAGE
    assert "requires --id" in capsys.readouterr().err


def test_verify_rejects_small_order(capsys):
    assert main(["verify", "all", "--order", "8"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_theorem_rows(capsys):
    assert main(["verify", "theorem", "--id", "1.1", "--order", "300",
                 "--kmax", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[PASS]") for line in lines)
    assert any("M(4n+7) == 0 mod 2^1" in line for line in lines)


# Each refusal's whole stderr, whichever module decides it: the CLI's own
# limits, the catalogs' ids, the quotient parser and the series kernel.
_ONES = "1" * 4301
_REFUSALS = [
    ("verify identity --id NOPE",
     "unknown identity id 'NOPE'; known ids: EQ21, EQ22, EQ23, EQ24, EQ25, EQ26, EQ27,"
     " EQ28, EQ29, NEGQ, L22, EQ210, EQ211, EQ212_ODDFREE, EQ213_ODDFREE"),
    ("verify identity --id EQ99 --order 64",
     "unknown identity id 'EQ99'; known ids: EQ21, EQ22, EQ23, EQ24, EQ25, EQ26, EQ27,"
     " EQ28, EQ29, NEGQ, L22, EQ210, EQ211, EQ212_ODDFREE, EQ213_ODDFREE"),
    ("verify theorem --id 9.9", "unknown theorem id '9.9'; known ids: 1.1, 1.2, 3.1"),
    ("verify theorem --id 9.9 --order 64", "unknown theorem id '9.9'; known ids: 1.1, 1.2, 3.1"),
    ("verify identity", "verify identity requires --id"),
    ("verify theorem", "verify theorem requires --id"),
    ("verify theorem --id 1.1 --kmax 0", "--kmax must be >= 1, got 0"),
    ("verify identity --id EQ21 --order 5", "--order must be >= 16 for verify, got 5"),
    ("oracle cross-check --order 5", "order must be >= 16, got 5"),
    ("expand f1*f1",
     "invalid eta quotient at position 3: duplicate period f1 (in 'f1*f1')"),
    ("expand f1^0", "invalid eta quotient at position 0: zero exponent on f1 (in 'f1^0')"),
    ("expand f0", "invalid eta quotient at position 0: period must be >= 1 (in 'f0')"),
    ("expand f1^",
     "invalid eta quotient at position 2: expected '*' between factors (in 'f1^')"),
    ("expand f1^101", "total |exponent| must be <= 100, got 101"),
    ("dissect f1 0 1", "extraction step must be >= 1, got 0"),
    # One digit past CPython's default int-string limit, so int() would refuse it.
    pytest.param(f"expand f1^{_ONES}",
                 "invalid eta quotient at position 0: exponent of f1 has more than 4300 digits"
                 f" (in 'f1^{_ONES}')", id="expand f1^<4301 digits>"),
    pytest.param(f"expand f{_ONES}",
                 "invalid eta quotient at position 0: period has more than 4300 digits"
                 f" (in 'f{_ONES}')", id="expand f<4301 digits>"),
]


@pytest.mark.parametrize("argv, message", _REFUSALS)
def test_refusal_stderr_and_exit_code_are_pinned(capsys, argv, message):
    assert main(argv.split()) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"etaq: error: {message}\n")


def test_verify_theorem_insufficient_exit(capsys):
    # At order 300 the deepest rows reach too few coefficients, which
    # must surface as the precision exit code, not as a pass.
    code = main(["verify", "theorem", "--id", "1.1", "--order", "300",
                 "--kmax", "8"])
    assert code == EXIT_PRECISION
    out = capsys.readouterr().out
    assert "[INSUFFICIENT]" in out
    assert "[FAIL]" not in out


def test_verify_theorem_31_reports_levels_beyond_the_window(capsys):
    # At order 2000 the level-11 and level-12 progressions start at
    # exponents 2046 and above: those dissections become rows, not an abort.
    code = main(["verify", "theorem", "--id", "3.1", "--order", "2000",
                 "--kmax", "12", "--format", "json"])
    assert code == EXIT_PRECISION
    rows = json.loads(capsys.readouterr().out)["reports"]
    dissections = [r for r in rows if r["label"].startswith("dissection[")]
    inductions = [r for r in rows if r["label"].startswith("induction[")]
    assert (len(dissections), len(inductions)) == (36, 33)
    short = [r for r in dissections if r["status"] == INSUFFICIENT]
    assert [r["label"] for r in short] == [
        f"dissection[{t},k={k}]" for k in (11, 12) for t in ("M", "TSTAR", "PSTAR")]
    assert all(r["checked"] is None and r["note"] ==
               "only 0 reachable coefficients below order 2000, need 1" for r in short)
    assert {r["status"] for r in rows if r not in short} == {PASS}


def test_verify_all_json(capsys):
    assert main(["verify", "all", "--order", "64", "--kmax", "2",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "verify"
    assert payload["scope"] == "all"
    assert payload["order"] == 64
    assert len(payload["reports"]) == 46
    assert {r["status"] for r in payload["reports"]} == {"pass", "skipped"}


def test_verify_all_json_stdout_is_pinned(capsys):
    # A BLAKE2b-64 digest of the whole battery's JSON at order 500, recorded
    # before the identity sides were read from their statements.  It pins
    # every claim string, window, witness and note against refactors.
    assert main(["verify", "all", "--order", "500", "--kmax", "8",
                 "--format", "json"]) == EXIT_PRECISION
    out = capsys.readouterr().out
    statuses = [r["status"] for r in json.loads(out)["reports"]]
    assert (statuses.count(PASS), statuses.count(SKIPPED),
            statuses.count(INSUFFICIENT), len(statuses)) == (86, 34, 4, 124)
    assert hashlib.blake2b(out.encode(), digest_size=8).hexdigest() == "bfc51ae5836e5c0e"


def test_theorem_31_json_stdout_is_pinned(capsys):
    # A BLAKE2b-64 digest of theorem 3.1's JSON, recorded while every row
    # still rebuilt its own rhs windows.  The dissection rows of levels
    # 10-40 have no lhs coefficient below the order and report
    # insufficient-precision; all 117 induction rows compare rhs windows.
    assert main(["verify", "theorem", "--id", "3.1", "--kmax", "40", "--order", "600",
                 "--format", "json"]) == EXIT_PRECISION
    out = capsys.readouterr().out
    statuses = [r["status"] for r in json.loads(out)["reports"]]
    assert (statuses.count(PASS), statuses.count(INSUFFICIENT), len(statuses)) == (144, 93, 237)
    assert hashlib.blake2b(out.encode(), digest_size=8).hexdigest() == "9d2cede2f3cb1d3c"


@pytest.mark.parametrize("argv, key", (
    (["verify", "all", "--order", "64", "--kmax", "2"], "reports"),
    (["oracle", "cross-check", "--order", "32"], "checks"),
))
def test_every_json_row_has_one_key_set(argv, key, capsys):
    assert main(argv + ["--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)[key]
    assert {tuple(row) for row in rows} == {
        ("label", "status", "claim", "order", "checked", "witness", "note")}


def test_verify_theorem_skipped_rows_keep_exit_zero(capsys):
    assert main(["verify", "theorem", "--id", "1.2", "--order", "2000",
                 "--kmax", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    skipped = [line for line in lines if line.startswith("[SKIPPED]")]
    assert len(skipped) == 2
    assert skipped[0].startswith("[SKIPPED] 1.6[k=2] P*(2048n+4095)")
    assert skipped[0].endswith("note: first coefficient q^2047 lies beyond the window")


def test_verify_all_text_covers_every_verifier(capsys):
    assert main(["verify", "all", "--order", "64", "--kmax", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "EQ213_ODDFREE" in out
    assert "dissection[M,k=1]" in out
    assert "induction[PSTAR,k=1->2]" in out
    assert "1.7-structural[k=0]" in out
    assert "2-adic valuation" in out
    assert "closed form" in out


def test_oracle_text(capsys):
    assert main(["oracle", "cross-check", "--order", "32"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS]") for line in lines)
    assert any("Durfee-square sum" in line for line in lines)


def test_oracle_json(capsys):
    assert main(["oracle", "cross-check", "--order", "32",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert payload["order"] == 32


@pytest.mark.parametrize("statuses, code", (
    ((PASS, SKIPPED), EXIT_OK),
    ((PASS, INSUFFICIENT, SKIPPED), EXIT_PRECISION),
    ((INSUFFICIENT, FAIL, PASS), EXIT_FAIL),
))
def test_exit_code_is_the_worst_status(statuses, code, capsys, monkeypatch):
    reports = [Report(f"row{i}", status, order=32) for i, status in enumerate(statuses)]
    monkeypatch.setattr(cli.oracle, "cross_check", lambda order: reports)
    assert main(["oracle", "cross-check", "--order", "32"]) == code
    words = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert words == [f"[{s.split('-')[0].upper()}]" for s in statuses]


def test_oracle_rejects_small_order(capsys):
    assert main(["oracle", "cross-check", "--order", "8"]) == EXIT_USAGE
    capsys.readouterr()


def _replace_handlers(monkeypatch, handler):
    for name in ("_cmd_expand", "_cmd_sequences", "_cmd_verify", "_cmd_oracle"):
        monkeypatch.setattr(cli, name, handler)


@pytest.mark.parametrize("argv", (
    ["expand", "f1"],
    ["dissect", "f1", "2", "1"],
    ["verify", "all"],
    ["verify", "identity", "--id", "EQ28"],
    ["oracle", "cross-check"],
))
@pytest.mark.parametrize("order", (MAX_ORDER + 1, 10**12))
def test_enormous_order_is_usage_error_before_any_work(argv, order, capsys, monkeypatch):
    def must_not_run(args):
        raise AssertionError(f"{args.command} ran with --order {args.order}")

    _replace_handlers(monkeypatch, must_not_run)
    assert main(argv + ["--order", str(order)]) == EXIT_USAGE
    assert f"--order must be <= {MAX_ORDER}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["sequences", "--family", "A"],
    ["verify", "all"],
    ["verify", "theorem", "--id", "1.2"],
))
@pytest.mark.parametrize("kmax", (MAX_KMAX + 1, 10**12))
def test_enormous_kmax_is_usage_error_before_any_work(argv, kmax, capsys, monkeypatch):
    def must_not_run(args):
        raise AssertionError(f"{args.command} ran with --kmax {args.kmax}")

    _replace_handlers(monkeypatch, must_not_run)
    assert main(argv + ["--kmax", str(kmax)]) == EXIT_USAGE
    assert f"--kmax must be <= {MAX_KMAX}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (["sequences", "--family", "B"], ["verify", "all"]))
def test_kmax_at_the_cap_reaches_the_handler(argv, monkeypatch):
    seen = []
    _replace_handlers(monkeypatch, lambda parsed: seen.append(parsed.kmax) or EXIT_OK)
    assert main(argv + ["--kmax", str(MAX_KMAX)]) == EXIT_OK
    assert seen == [MAX_KMAX]


@pytest.mark.parametrize("family", ("A", "B", "C"))
def test_sequences_at_the_kmax_cap_print_every_value(family, capsys):
    # The cap keeps every value under CPython's int-to-string digit limit.
    assert main(["sequences", "--family", family, "--kmax", str(MAX_KMAX),
                 "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in rows] == list(range(MAX_KMAX + 1))


@pytest.mark.parametrize("args", (["expand"], ["dissect", "2", "1"]))
@pytest.mark.parametrize("expr", (
    f"f1^{MAX_EXPONENT_SUM + 1}",
    "f1^1000000000000",
    "f1^-1000000000000",
    f"f1^-{MAX_EXPONENT_SUM // 2}*f5^{MAX_EXPONENT_SUM // 2}*f10",
))
def test_enormous_exponent_is_usage_error_before_any_work(args, expr, capsys, monkeypatch):
    def must_not_run(parsed):
        raise AssertionError(f"{parsed.command} ran with {parsed.expr}")

    _replace_handlers(monkeypatch, must_not_run)
    assert main([args[0], expr, *args[1:], "--order", "300"]) == EXIT_USAGE
    assert f"total |exponent| must be <= {MAX_EXPONENT_SUM}" in capsys.readouterr().err


def test_exponent_sum_at_the_cap_reaches_the_handler(monkeypatch):
    seen = []
    _replace_handlers(monkeypatch, lambda parsed: seen.append(parsed.factors) or EXIT_OK)
    expr = f"f1^-{MAX_EXPONENT_SUM - 1}*f2"
    assert main(["expand", expr, "--order", "300"]) == EXIT_OK
    assert seen == [{1: 1 - MAX_EXPONENT_SUM, 2: 1}]


def test_product_past_the_packed_digit_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(series, "_MAX_PACKED_DIGITS", 1000)
    eta._expand_quotient_cached.cache_clear()
    try:
        assert main(["expand", "f1^4", "--order", "300"]) == EXIT_USAGE
    finally:
        eta._expand_quotient_cached.cache_clear()
    out, err = capsys.readouterr()
    assert out == ""
    assert "product of two 300-term windows" in err
    assert "above the cap of 1000" in err


def test_division_past_the_work_cap_is_usage_error(capsys):
    # Each f_m^-8 is two divisions by Jacobi's f_m^3 and two by theta(3m,
    # m), and f12^-3 one by f12^3: 45 divisions at the largest order,
    # refused before any.
    expr = "f13*" + "*".join(f"f{m}^-8" for m in range(1, 12)) + "*f12^-3"
    assert main(["expand", expr, "--order", str(MAX_ORDER)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"45 divisions by sparse series on {MAX_ORDER} terms need 92760000 term "
            f"operations, above the cap of {eta._MAX_DIVISION_WORK}") in err


def test_largest_negative_power_is_still_refused(capsys):
    # f1^-100 is 33 divisions by f1^3 and one by theta(3, 1): 136.6M term
    # operations at the largest order.
    assert main(["expand", "f1^-100", "--order", str(MAX_ORDER)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"34 divisions by sparse series on {MAX_ORDER} terms need 136620000 term "
            f"operations, above the cap of {eta._MAX_DIVISION_WORK}") in err


def test_run_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["etaq", "expand", "f1", "--order", "5"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("offset=0 prec=5\n")


def test_exit_code_constants_are_distinct():
    assert len({EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_PRECISION}) == 4


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_quietly(unbuffered):
    # The reader closes the pipe before the first row is written, as
    # `| head -1` does once it has its line.  Whether rows are flushed one
    # by one or at exit, the CLI exits 141 and writes nothing to stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "etaq.cli", "oracle", "cross-check", "--order", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert stderr == b""
