"""End-to-end tests for the command-line front end.

Each test drives main() with a concrete argv and asserts on the exit
code and the printed output, exercising every exit path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etaq.cli as cli
from etaq.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    MAX_EXPONENT_SUM,
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
    capsys.readouterr()


def test_verify_identity_single(capsys):
    assert main(["verify", "identity", "--id", "EQ28", "--order", "64"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "[PASS] EQ28 f1 f2 f5^5 = f2^4 f5^2 f10 - q f1^2 f10^5 (0..63, 64 points)\n")


def test_verify_identity_requires_id(capsys):
    assert main(["verify", "identity", "--order", "64"]) == EXIT_USAGE
    assert "requires --id" in capsys.readouterr().err


def test_verify_identity_unknown_id(capsys):
    assert main(["verify", "identity", "--id", "EQ99", "--order", "64"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown identity id" in err
    assert "EQ21" in err


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


def test_verify_theorem_unknown_id(capsys):
    assert main(["verify", "theorem", "--id", "9.9", "--order", "64"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_theorem_insufficient_exit(capsys):
    # At order 300 the deepest rows reach too few coefficients, which
    # must surface as the precision exit code, not as a pass.
    code = main(["verify", "theorem", "--id", "1.1", "--order", "300",
                 "--kmax", "8"])
    assert code == EXIT_PRECISION
    out = capsys.readouterr().out
    assert "[INSUFFICIENT]" in out
    assert "[FAIL]" not in out


def test_verify_all_json(capsys):
    assert main(["verify", "all", "--order", "64", "--kmax", "2",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "verify"
    assert payload["scope"] == "all"
    assert payload["order"] == 64
    assert len(payload["reports"]) == 46
    assert {r["status"] for r in payload["reports"]} == {"pass", "skipped"}


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
    assert any("partition dynamic program" in line for line in lines)


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
    for name in ("_cmd_expand", "_cmd_dissect", "_cmd_verify", "_cmd_oracle"):
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
