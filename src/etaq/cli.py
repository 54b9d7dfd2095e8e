"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 any check fails, 2 usage or
unknown-id errors, 3 a request the window arithmetic cannot satisfy at
the given order (insufficient precision), 141 the reader closed stdout
early (e.g. ``| head -1``; 128 + SIGPIPE, as a shell reports a process
killed by the signal), with nothing written to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import congruences, identities, oracle, sequences
from .eta import expand_quotient, parse_quotient
from .series import (
    FAIL,
    INSUFFICIENT,
    PASS,
    SKIPPED,
    EmptyWindow,
    Report,
    SeriesError,
    two_adic_valuation,
    worst,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_BROKEN_PIPE = 141

# Largest --order any subcommand accepts: 2.5 times the largest order the
# verifiers are benchmarked at (8000).  A window is a dense list of big
# integers whose sizes grow with the order, and a verify run keeps dozens
# of them, so an enormous order would run out of memory, or for hours,
# instead of failing.  main() rejects it with exit 2 before any expansion.
MAX_ORDER = 20_000

# Largest total |exponent| of an expression given to expand or dissect:
# five times the largest quotient the verifiers expand (20).  Coefficient
# sizes grow with the exponents, so an enormous exponent would run for
# minutes or out of memory at any order; main() rejects it with exit 2
# right after parsing, before any expansion.
MAX_EXPONENT_SUM = 100

# Largest --kmax of sequences and verify.  The family values grow like
# 16^k (theorem 1.2 at k = 1000 reaches 2^4003, about 1205 digits), so a
# larger k would overrun CPython's 4300-digit limit on int-to-string
# conversion after minutes of work.  main() rejects it with exit 2
# before any handler runs.
MAX_KMAX = 1000

_STATUS_WORD = {PASS: "PASS", FAIL: "FAIL", INSUFFICIENT: "INSUFFICIENT",
                SKIPPED: "SKIPPED"}
_EXIT_FOR = {PASS: EXIT_OK, FAIL: EXIT_FAIL, INSUFFICIENT: EXIT_PRECISION}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaq",
        description="Exact q-series expansion and verification of eta-quotient "
                    "identities, dissections, and 2-power congruences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an eta quotient to a coefficient window")
    p.add_argument("expr", help="eta quotient, e.g. 'f1^-1*f2^5*f5^5*f10^-1'")
    p.add_argument("--order", type=int, default=500, help="window order (default 500)")

    p = sub.add_parser("dissect",
                       help="expand, then extract the progression step*n + residue")
    p.add_argument("expr", help="eta quotient to expand")
    p.add_argument("step", type=int, help="progression step (>= 1)")
    p.add_argument("residue", type=int, help="progression residue")
    p.add_argument("--order", type=int, default=500, help="window order (default 500)")

    p = sub.add_parser("sequences", help="print k, P_k, v2(P_k) for one family")
    p.add_argument("--family", required=True, choices=tuple(sequences._LEVEL_ONE))
    p.add_argument("--kmax", type=int, default=8, help="largest index (default 8)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the identity and congruence verifiers")
    p.add_argument("scope", choices=("all", "identity", "theorem"))
    p.add_argument("--id", help="identity tag (e.g. EQ28) or theorem id "
                                 f"({', '.join(congruences.THEOREM_IDS)})")
    p.add_argument("--order", type=int, default=500, help="window order (default 500)")
    p.add_argument("--kmax", type=int, default=8, help="largest level (default 8)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("oracle", help="cross-check the expander against brute force")
    p.add_argument("action", choices=("cross-check",))
    p.add_argument("--order", type=int, default=500, help="window order (default 500)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _usage_error(message: str) -> int:
    print(f"etaq: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _row(report: Report) -> str:
    row = f"[{_STATUS_WORD[report.status]}] {report.label}"
    if report.claim is not None:
        row += f" {report.claim}"
    if report.checked is not None:
        row += (f" ({report.checked['from']}..{report.checked['to']},"
                f" {report.checked['points']} points)")
    if report.witness is not None:
        row += f" witness={report.witness}"
    if report.note is not None:
        row += f" note: {report.note}"
    return row


def _print_reports(args: argparse.Namespace, reports: list[Report],
                   envelope: dict[str, object], key: str) -> int:
    """Print one row per report, or the JSON envelope with the reports
    under ``key``; return the exit code of the worst status."""
    if args.format == "json":
        print(json.dumps({**envelope, key: [r.to_dict() for r in reports]}, indent=2))
    else:
        for report in reports:
            print(_row(report))
    return _EXIT_FOR[worst(r.status for r in reports)]


def _cmd_expand(args: argparse.Namespace) -> int:
    """``expand``, and ``dissect``, which is expand plus one extract."""
    series = expand_quotient(args.factors, args.order)
    if args.command == "dissect":
        series = series.extract(args.step, args.residue)
    print(series.dump())
    return EXIT_OK


def _cmd_sequences(args: argparse.Namespace) -> int:
    rows = [{"k": k, "value": str(value), "v2": "inf" if value == 0 else two_adic_valuation(value)}
            for k, value in enumerate(sequences.sequence_values(args.family, args.kmax))]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print("k\tvalue\tv2")
        for row in rows:
            print(*row.values(), sep="\t")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.order < identities.MIN_ORDER:
        return _usage_error(f"--order must be >= {identities.MIN_ORDER} for verify, "
                            f"got {args.order}")
    if args.kmax < 1:
        return _usage_error(f"--kmax must be >= 1, got {args.kmax}")

    if args.scope == "identity":
        if args.id is None:
            return _usage_error("verify identity requires --id")
        reports = [identities.verify_identity(args.id, args.order)]
    elif args.scope == "theorem":
        if args.id is None:
            return _usage_error("verify theorem requires --id")
        reports = congruences.verify_theorem(args.id, args.order, args.kmax)
    else:
        reports = identities.verify_all_identities(args.order)
        for theorem_id in ("3.1", "1.1", "1.2"):
            reports += congruences.verify_theorem(theorem_id, args.order, args.kmax)
        reports += [congruences.verify_zero_family_structurally(0, args.order),
                    sequences.verify_valuations(64),
                    sequences.verify_closed_forms(64)]

    return _print_reports(args, reports,
                          {"command": "verify", "scope": args.scope,
                           "order": args.order, "kmax": args.kmax}, "reports")


def _cmd_oracle(args: argparse.Namespace) -> int:
    checks = oracle.cross_check(args.order)
    return _print_reports(args, checks,
                          {"order": args.order,
                           "status": worst(c.status for c in checks)}, "checks")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    order = getattr(args, "order", None)
    if order is not None and order > MAX_ORDER:
        return _usage_error(f"--order must be <= {MAX_ORDER}, got {order}")
    kmax = getattr(args, "kmax", None)
    if kmax is not None and kmax > MAX_KMAX:
        return _usage_error(f"--kmax must be <= {MAX_KMAX}, got {kmax}")
    handlers = {
        "expand": _cmd_expand,
        "dissect": _cmd_expand,
        "sequences": _cmd_sequences,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        if hasattr(args, "expr"):
            args.factors = parse_quotient(args.expr)
            weight = sum(map(abs, args.factors.values()))
            if weight > MAX_EXPONENT_SUM:
                return _usage_error(f"total |exponent| must be <= {MAX_EXPONENT_SUM}, "
                                    f"got {weight}")
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # fail a second time and print its own message.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except EmptyWindow as exc:
        print(f"etaq: insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (SeriesError, ValueError) as exc:
        return _usage_error(str(exc))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
