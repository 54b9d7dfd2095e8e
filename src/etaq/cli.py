"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 any check fails, 2 usage or
unknown-id errors, 3 a request the window arithmetic cannot satisfy at
the given order (insufficient precision).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import congruences, identities, oracle, sequences
from .eta import QuotientParseError, expand_quotient, parse_quotient
from .series import EmptyWindow, FAIL, INSUFFICIENT, PASS, SeriesError, two_adic_valuation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

_MIN_ORDER = 16

# Largest --order any subcommand accepts: 2.5 times the largest order the
# verifiers are benchmarked at (8000).  A window is a dense list of big
# integers whose sizes grow with the order, and a verify run keeps dozens
# of them, so an enormous order would run out of memory, or for hours,
# instead of failing.  main() rejects it with exit 2 before any expansion.
MAX_ORDER = 20_000

_STATUS_WORD = {PASS: "PASS", FAIL: "FAIL", INSUFFICIENT: "INSUFFICIENT"}


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
    p.add_argument("--family", required=True, choices=("A", "B", "C"))
    p.add_argument("--kmax", type=int, default=8, help="largest index (default 8)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the identity and congruence verifiers")
    p.add_argument("scope", choices=("all", "identity", "theorem"))
    p.add_argument("--id", help="identity tag (e.g. EQ28) or theorem id (1.1, 1.2, 3.1)")
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


def _print_series(series) -> None:
    print(series.dump())


def _identity_row(report: identities.IdentityReport) -> str:
    row = (f"[{_STATUS_WORD[report.status]}] {report.identity} "
           f"order={report.order}")
    if report.witness is not None:
        e, lhs, rhs = report.witness
        row += f" first mismatch at q^{e}: lhs={lhs} rhs={rhs}"
    return row


def _verification_row(report: congruences.VerificationReport) -> str:
    row = f"[{_STATUS_WORD[report.status]}] {report.label} {report.claim}"
    if report.checked is not None:
        row += (f" (n={report.checked['from']}..{report.checked['to']},"
                f" {report.checked['points']} points)")
    if report.counterexample is not None:
        row += f" counterexample={report.counterexample}"
    if report.note is not None:
        row += f" note: {report.note}"
    return row


def _sequence_row(check: sequences.SequenceCheck) -> str:
    row = f"[{_STATUS_WORD[check.status]}] {check.name} kmax={check.kmax}"
    if check.failure is not None:
        row += f" failure={check.failure}"
    return row


def _exit_for(statuses: list[str]) -> int:
    if FAIL in statuses:
        return EXIT_FAIL
    if INSUFFICIENT in statuses:
        return EXIT_PRECISION
    return EXIT_OK


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.order < 1:
        return _usage_error(f"--order must be >= 1, got {args.order}")
    _print_series(expand_quotient(parse_quotient(args.expr), args.order))
    return EXIT_OK


def _cmd_dissect(args: argparse.Namespace) -> int:
    if args.order < 1:
        return _usage_error(f"--order must be >= 1, got {args.order}")
    series = expand_quotient(parse_quotient(args.expr), args.order)
    _print_series(series.extract(args.step, args.residue))
    return EXIT_OK


def _cmd_sequences(args: argparse.Namespace) -> int:
    if args.kmax < 0:
        return _usage_error(f"--kmax must be >= 0, got {args.kmax}")
    values = sequences.sequence_values(args.family, args.kmax)
    rows = [(k, value, two_adic_valuation(value)) for k, value in enumerate(values)]
    if args.format == "json":
        print(json.dumps([{"k": k, "value": str(value),
                           "v2": "inf" if value == 0 else int(v)}
                          for k, value, v in rows], indent=2))
    else:
        print("k\tvalue\tv2")
        for k, value, v in rows:
            print(f"{k}\t{value}\t{'inf' if value == 0 else int(v)}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.order < _MIN_ORDER:
        return _usage_error(f"--order must be >= {_MIN_ORDER} for verify, got {args.order}")
    if args.kmax < 1:
        return _usage_error(f"--kmax must be >= 1, got {args.kmax}")

    rows: list[str] = []
    dicts: list[dict[str, object]] = []
    statuses: list[str] = []

    def take_identity(report: identities.IdentityReport) -> None:
        rows.append(_identity_row(report))
        dicts.append(report.to_dict())
        statuses.append(report.status)

    def take_verification(report: congruences.VerificationReport) -> None:
        rows.append(_verification_row(report))
        dicts.append(report.to_dict())
        statuses.append(report.status)

    def take_sequence(check: sequences.SequenceCheck) -> None:
        rows.append(_sequence_row(check))
        dicts.append(check.to_dict())
        statuses.append(check.status)

    if args.scope == "identity":
        if args.id is None:
            return _usage_error("verify identity requires --id")
        if args.id not in identities.CATALOG:
            return _usage_error(f"unknown identity id {args.id!r}; known ids: "
                                + ", ".join(identities.catalog_ids()))
        take_identity(identities.verify_identity(args.id, args.order))
    elif args.scope == "theorem":
        if args.id is None:
            return _usage_error("verify theorem requires --id")
        if args.id not in ("1.1", "1.2", "3.1"):
            return _usage_error(f"unknown theorem id {args.id!r}; known ids: 1.1, 1.2, 3.1")
        for report in congruences.verify_theorem(args.id, args.order, args.kmax):
            take_verification(report)
    else:
        for report in identities.verify_all_identities(args.order):
            take_identity(report)
        for theorem_id in ("3.1", "1.1", "1.2"):
            for report in congruences.verify_theorem(theorem_id, args.order, args.kmax):
                take_verification(report)
        take_verification(congruences.verify_zero_family_structurally(0, args.order))
        take_sequence(sequences.verify_valuations(64))
        take_sequence(sequences.verify_closed_forms(64))

    if args.format == "json":
        print(json.dumps({"command": "verify", "scope": args.scope,
                          "order": args.order, "kmax": args.kmax,
                          "reports": dicts}, indent=2))
    else:
        for row in rows:
            print(row)
    return _exit_for(statuses)


def _cmd_oracle(args: argparse.Namespace) -> int:
    report = oracle.cross_check(args.order)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for check in report.checks:
            row = f"[{_STATUS_WORD[check.status]}] {check.name}"
            if check.witness is not None:
                row += f" witness={check.witness}"
            print(row)
    return EXIT_OK if report.ok else EXIT_FAIL


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    order = getattr(args, "order", None)
    if order is not None and order > MAX_ORDER:
        return _usage_error(f"--order must be <= {MAX_ORDER}, got {order}")
    handlers = {
        "expand": _cmd_expand,
        "dissect": _cmd_dissect,
        "sequences": _cmd_sequences,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except QuotientParseError as exc:
        return _usage_error(str(exc))
    except EmptyWindow as exc:
        print(f"etaq: insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (SeriesError, ValueError) as exc:
        return _usage_error(str(exc))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
