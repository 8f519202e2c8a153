"""Command-line front end for the counting library.

Subcommands mirror the library surface: single cells (z, s), the four
aggregate problems, full distribution tables, and oracle verification.
Output is deterministic: plain decimal counts, TSV tables, or JSON records
with counts as decimal strings so arbitrary precision survives consumers
whose native numbers would overflow.

Exit codes: 0 success or verification pass, 1 usage error, 2 verification
mismatch, 3 budget exceeded, 4 any other error (reported as one "error:"
line on stderr, never as a traceback).

Only verify and verify-range load the brute-force oracle, on first use,
and only --format json loads json, so that the other commands start
sooner.  BudgetExceeded and DEFAULT_BUDGET come from ballseq.core.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager

from .core import DEFAULT_BUDGET, BudgetExceeded, SequenceClass, doubly_surjective_count, z_count
from .problems import (
    distribution_table,
    problem1_matches_fixed_length,
    problem2_matches_any_length,
    problem3_repeats_fixed_length,
    problem4_repeats_any_length,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_ERROR = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; this CLI reserves 2
    for verification mismatches, so usage problems are rethrown and mapped
    to exit 1 in main()."""

    def error(self, message: str):
        raise _UsageError(message)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _print_json(record: dict) -> None:
    import json  # here, so that only --format json loads it

    print(json.dumps(record))


def _emit_count(args: argparse.Namespace, query: dict, value: int) -> int:
    if args.format == "json":
        record = {"schema_version": SCHEMA_VERSION, "query": query, "result": str(value)}
        _print_json(record)
    else:
        print(value)
    return EXIT_OK


def _run_z(args: argparse.Namespace) -> int:
    query = {"command": "z", "k": args.k, "n": args.n, "m": args.m, "lambda": args.lam}
    return _emit_count(args, query, z_count(SequenceClass(args.k, args.n, args.m, args.lam)))


def _run_s(args: argparse.Namespace) -> int:
    query = {"command": "s", "m": args.m, "lambda": args.lam}
    return _emit_count(args, query, doubly_surjective_count(args.m, args.lam))


def _run_problem1(args: argparse.Namespace) -> int:
    query = {"command": "problem1", "k": args.k, "n": args.n, "m": args.m}
    return _emit_count(args, query, problem1_matches_fixed_length(args.k, args.n, args.m))


def _run_problem2(args: argparse.Namespace) -> int:
    query = {"command": "problem2", "n": args.n, "m": args.m}
    return _emit_count(args, query, problem2_matches_any_length(args.n, args.m))


def _run_problem3(args: argparse.Namespace) -> int:
    query = {"command": "problem3", "k": args.k, "n": args.n, "mu": args.mu}
    return _emit_count(args, query, problem3_repeats_fixed_length(args.k, args.n, args.mu))


def _run_problem4(args: argparse.Namespace) -> int:
    query = {"command": "problem4", "n": args.n, "mu": args.mu}
    return _emit_count(args, query, problem4_repeats_any_length(args.n, args.mu))


def _run_table(args: argparse.Namespace) -> int:
    table = distribution_table(args.k, args.n)
    cells = sorted(table.by_match_cell.items())
    buckets = sorted(table.by_repeat_count.items())
    if args.format == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "query": {"command": "table", "k": args.k, "n": args.n},
            "result": {
                "k": table.k,
                "n": table.n,
                "by_match_cell": [
                    {"m": m, "lambda": lam, "count": str(count)}
                    for (m, lam), count in cells
                ],
                "by_repeat_count": [
                    {"mu": mu, "count": str(count)} for mu, count in buckets
                ],
            },
        }
        _print_json(record)
    else:
        lines = ["m\tlambda\tcount"]
        lines += [f"{m}\t{lam}\t{count}" for (m, lam), count in cells]
        lines.append("")
        lines.append("mu\tcount")
        lines += [f"{mu}\t{count}" for mu, count in buckets]
        print("\n".join(lines))
    return EXIT_OK


def _report_json(report) -> dict:
    """The JSON form of one oracle.VerificationReport."""
    return {
        "k": report.k,
        "n": report.n,
        "cells_checked": report.cells_checked,
        "mismatches": [
            {"cell": cell, "formula": str(formula), "oracle": str(observed)}
            for cell, formula, observed in report.mismatches
        ],
        "passed": report.passed,
    }


def _report_lines(report) -> list[str]:
    """The text form of one oracle.VerificationReport."""
    verdict = "PASS" if report.passed else "FAIL"
    lines = [
        f"k={report.k} n={report.n}: {verdict}"
        f" ({report.cells_checked} cells checked, {len(report.mismatches)} mismatches)"
    ]
    for cell, formula, observed in report.mismatches:
        lines.append(f"  {cell}: formula={formula} oracle={observed}")
    return lines


def _run_verify(args: argparse.Namespace) -> int:
    from . import oracle

    start = time.perf_counter()
    report = oracle.verify(args.k, args.n, args.budget)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "query": {"command": "verify", "k": args.k, "n": args.n, "budget": args.budget},
            "result": _report_json(report),
        }
        if not args.no_timing:
            record["elapsed_seconds"] = round(elapsed, 6)
        _print_json(record)
    else:
        lines = _report_lines(report)
        if not args.no_timing:
            lines[0] += f" [{elapsed:.3f}s]"
        print("\n".join(lines))
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _run_verify_range(args: argparse.Namespace) -> int:
    from . import oracle

    start = time.perf_counter()
    pair_records = []
    pair_lines = []
    passed = failed = skipped = 0
    for k in range(args.max_k + 1):
        for n in range(args.max_n + 1):
            try:
                report = oracle.verify(k, n, args.budget)
            except BudgetExceeded:
                skipped += 1
                pair_records.append({"k": k, "n": n, "status": "skipped"})
                pair_lines.append(f"k={k} n={n}: SKIPPED (over budget)")
                continue
            if report.passed:
                passed += 1
            else:
                failed += 1
            record = {"k": k, "n": n, "status": "pass" if report.passed else "fail"}
            record.update(_report_json(report))
            del record["passed"]
            pair_records.append(record)
            pair_lines.extend(_report_lines(report))
    elapsed = time.perf_counter() - start
    all_passed = failed == 0
    if args.format == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "query": {
                "command": "verify-range",
                "max_k": args.max_k,
                "max_n": args.max_n,
                "budget": args.budget,
            },
            "result": {
                "pairs": pair_records,
                "pairs_passed": passed,
                "pairs_failed": failed,
                "pairs_skipped": skipped,
                "passed": all_passed,
            },
        }
        if not args.no_timing:
            record["elapsed_seconds"] = round(elapsed, 6)
        _print_json(record)
    else:
        summary = (
            f"checked {passed + failed} pairs:"
            f" {passed} passed, {failed} failed, {skipped} skipped"
        )
        if not args.no_timing:
            summary += f" [{elapsed:.3f}s]"
        print("\n".join(pair_lines + [summary]))
    return EXIT_OK if all_passed else EXIT_MISMATCH


def _add_format(sub: argparse.ArgumentParser, choices: tuple[str, ...], default: str) -> None:
    sub.add_argument("--format", choices=choices, default=default)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ballseq", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    z = subs.add_parser("z", help="count one (k, n, m, lambda) cell")
    z.add_argument("--k", type=_nonneg, required=True, help="sequence length")
    z.add_argument("--n", type=_nonneg, required=True, help="palette size")
    z.add_argument("--m", type=_nonneg, required=True, help="matched balls")
    z.add_argument("--lambda", dest="lam", type=_nonneg, required=True,
                   help="repeated colors")
    _add_format(z, ("plain", "json"), "plain")
    z.set_defaults(handler=_run_z)

    s = subs.add_parser("s", help="assignments of m balls onto lambda colors, each color twice or more")
    s.add_argument("--m", type=_nonneg, required=True)
    s.add_argument("--lambda", dest="lam", type=_nonneg, required=True)
    _add_format(s, ("plain", "json"), "plain")
    s.set_defaults(handler=_run_s)

    p1 = subs.add_parser("problem1", help="length k, exactly m matched balls")
    p1.add_argument("--k", type=_nonneg, required=True)
    p1.add_argument("--n", type=_nonneg, required=True)
    p1.add_argument("--m", type=_nonneg, required=True)
    _add_format(p1, ("plain", "json"), "plain")
    p1.set_defaults(handler=_run_problem1)

    p2 = subs.add_parser("problem2", help="any length, exactly m matched balls")
    p2.add_argument("--n", type=_nonneg, required=True)
    p2.add_argument("--m", type=_nonneg, required=True)
    _add_format(p2, ("plain", "json"), "plain")
    p2.set_defaults(handler=_run_problem2)

    p3 = subs.add_parser("problem3", help="length k, exactly mu repeats")
    p3.add_argument("--k", type=_nonneg, required=True)
    p3.add_argument("--n", type=_nonneg, required=True)
    p3.add_argument("--mu", type=_nonneg, required=True)
    _add_format(p3, ("plain", "json"), "plain")
    p3.set_defaults(handler=_run_problem3)

    p4 = subs.add_parser("problem4",
                         help="any length, exactly mu repeats (mu=0 counts lengths 1..n)")
    p4.add_argument("--n", type=_nonneg, required=True)
    p4.add_argument("--mu", type=_nonneg, required=True)
    _add_format(p4, ("plain", "json"), "plain")
    p4.set_defaults(handler=_run_problem4)

    table = subs.add_parser("table", help="full distribution table for (k, n)")
    table.add_argument("--k", type=_nonneg, required=True)
    table.add_argument("--n", type=_nonneg, required=True)
    _add_format(table, ("tsv", "json"), "tsv")
    table.set_defaults(handler=_run_table)

    verify = subs.add_parser("verify", help="compare formulas against enumeration for one (k, n)")
    verify.add_argument("--k", type=_nonneg, required=True)
    verify.add_argument("--n", type=_nonneg, required=True)
    verify.add_argument("--budget", type=_nonneg, default=DEFAULT_BUDGET,
                        help="max colorings to enumerate, and max cells to check"
                        " (default %(default)s)")
    verify.add_argument("--no-timing", action="store_true",
                        help="omit elapsed time for byte-identical output")
    _add_format(verify, ("text", "json"), "text")
    verify.set_defaults(handler=_run_verify)

    vrange = subs.add_parser("verify-range",
                             help="verify every (k, n) pair up to the given bounds")
    vrange.add_argument("--max-k", type=_nonneg, required=True)
    vrange.add_argument("--max-n", type=_nonneg, required=True)
    vrange.add_argument("--budget", type=_nonneg, default=DEFAULT_BUDGET,
                        help="per-pair cap on colorings and cells; pairs over it are skipped")
    vrange.add_argument("--no-timing", action="store_true",
                        help="omit elapsed time for byte-identical output")
    _add_format(vrange, ("text", "json"), "text")
    vrange.set_defaults(handler=_run_verify_range)

    return parser


@contextmanager
def _uncapped_int_digits() -> Iterator[None]:
    """Lift CPython's cap on int-to-decimal conversion (4,300 digits by
    default) for the duration, then restore the caller's setting.  Python
    releases before 3.10.7 have no cap and no setter."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digit_cap)


def run(argv: list[str] | None = None) -> int:
    """Parse argv (sys.argv by default), dispatch, and return the exit
    status: 0 ok/pass, 1 usage, 2 mismatch, 3 budget, 4 any other error.
    Counts of any size are printed in full."""
    parser = _build_parser()
    with _uncapped_int_digits():
        try:
            args = parser.parse_args(argv)
        except _UsageError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        try:
            return args.handler(args)
        except BudgetExceeded as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_BUDGET
        except Exception as err:
            print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
            return EXIT_ERROR


main = run  # conventional entry-point name, used by the console script


if __name__ == "__main__":
    sys.exit(run())
