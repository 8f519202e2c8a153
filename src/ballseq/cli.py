"""Command-line front end for the counting library.

Its subcommands, output, exit codes and lazy imports: see ``_DESCRIPTION``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager

from .core import DEFAULT_BUDGET, BudgetExceeded, SequenceClass, doubly_surjective_count, z_count
from .problems import (
    _census,
    problem1_matches_fixed_length,
    problem2_matches_any_length,
    problem3_repeats_fixed_length,
    problem4_repeats_any_length,
)

# The text of ``ballseq --help`` above the command list.
_DESCRIPTION = """Command-line front end for the counting library.

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


def _print_record(args: argparse.Namespace, result, elapsed: float | None = None) -> None:
    """Print a command's JSON record: its parameters echoed as the query,
    in flag order, its result and, unless --no-timing, the elapsed time."""
    import json  # here, so that only --format json loads it

    query = {"command": args.command, **{dest: getattr(args, dest) for dest in args.params}}
    record = {"schema_version": SCHEMA_VERSION, "query": query, "result": result}
    if elapsed is not None and not args.no_timing:
        record["elapsed_seconds"] = round(elapsed, 6)
    print(json.dumps(record))


# The count commands: name, help, the (flag, help) parameters in the order
# the function takes them, and the function.  Each parameter's JSON query
# key is its flag's argparse dest.
_COUNTS = (
    ("z", "count one (k, n, m, lambda) cell",
     (("--k", "sequence length"), ("--n", "palette size"), ("--m", "matched balls"),
      ("--lambda", "repeated colors")),
     lambda k, n, m, lam: z_count(SequenceClass(k, n, m, lam))),
    ("s", "assignments of m balls onto lambda colors, each color twice or more",
     (("--m", None), ("--lambda", None)), doubly_surjective_count),
    ("problem1", "length k, exactly m matched balls",
     (("--k", None), ("--n", None), ("--m", None)), problem1_matches_fixed_length),
    ("problem2", "any length, exactly m matched balls",
     (("--n", None), ("--m", None)), problem2_matches_any_length),
    ("problem3", "length k, exactly mu repeats",
     (("--k", None), ("--n", None), ("--mu", None)), problem3_repeats_fixed_length),
    ("problem4", "any length, exactly mu repeats (mu=0 counts lengths 1..n)",
     (("--n", None), ("--mu", None)), problem4_repeats_any_length),
)


def _run_count(args: argparse.Namespace) -> int:
    value = args.count(*(getattr(args, dest) for dest in args.params))
    if args.format == "json":
        _print_record(args, str(value))
    else:
        print(value)
    return EXIT_OK


def _write_items(write, items) -> None:
    """Write the items of a JSON array with json.dumps's ", " between them."""
    separator = ""
    for item in items:
        write(separator + item)
        separator = ", "


def _run_table(args: argparse.Namespace) -> int:
    """Write the census a cell at a time, as the row walk yields it, so
    that no more than one cell's text is held.  The JSON is written by
    hand, in the bytes json.dumps gives for the record, so the table never
    loads json."""
    k, n = args.k, args.n
    cells, by_repeat = _census(k, n)
    write = sys.stdout.write
    if args.format == "json":
        write(f'{{"schema_version": {SCHEMA_VERSION}, "query": {{"command": "table", "k": {k},'
              f' "n": {n}}}, "result": {{"k": {k}, "n": {n}, "by_match_cell": [')
        _write_items(write, (f'{{"m": {m}, "lambda": {lam}, "count": "{count}"}}'
                             for m, lam, count in cells))
        write('], "by_repeat_count": [')
        _write_items(write, (f'{{"mu": {mu}, "count": "{count}"}}'
                             for mu, count in enumerate(by_repeat) if count))
        write("]}}\n")
    else:
        write("m\tlambda\tcount\n")
        for m, lam, count in cells:
            write(f"{m}\t{lam}\t{count}\n")
        write("\nmu\tcount\n")
        for mu, count in enumerate(by_repeat):
            if count:
                write(f"{mu}\t{count}\n")
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
        _print_record(args, _report_json(report), elapsed)
    else:
        lines = _report_lines(report)
        if not args.no_timing:
            lines[0] += f" [{elapsed:.3f}s]"
        print("\n".join(lines))
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _run_verify_range(args: argparse.Namespace) -> int:
    from . import oracle

    start = time.perf_counter()
    pairs = []  # (k, n, report), the report None for a pair over the budget
    for k in range(args.max_k + 1):
        for n in range(args.max_n + 1):
            try:
                pairs.append((k, n, oracle.verify(k, n, args.budget)))
            except BudgetExceeded:
                pairs.append((k, n, None))
    elapsed = time.perf_counter() - start
    reports = [report for _, _, report in pairs if report]
    failed = sum(not report.passed for report in reports)
    passed, skipped = len(reports) - failed, len(pairs) - len(reports)
    if args.format == "json":
        records = []
        for k, n, report in pairs:
            record = {"k": k, "n": n, "status": "skipped"}
            if report:
                record["status"] = "pass" if report.passed else "fail"
                record.update(_report_json(report))
                del record["passed"]
            records.append(record)
        result = {
            "pairs": records,
            "pairs_passed": passed,
            "pairs_failed": failed,
            "pairs_skipped": skipped,
            "passed": not failed,
        }
        _print_record(args, result, elapsed)
    else:
        lines = []
        for k, n, report in pairs:
            lines += _report_lines(report) if report else [f"k={k} n={n}: SKIPPED (over budget)"]
        summary = (
            f"checked {len(reports)} pairs:"
            f" {passed} passed, {failed} failed, {skipped} skipped"
        )
        if not args.no_timing:
            summary += f" [{elapsed:.3f}s]"
        print("\n".join(lines + [summary]))
    return EXIT_MISMATCH if failed else EXIT_OK


def _add_command(subs, name: str, summary: str, params, handler, formats: tuple[str, ...],
                 budget_help: str | None = None) -> argparse.ArgumentParser:
    """One subcommand: a required non-negative integer per (flag, help)
    parameter, then, given budget_help, --budget and --no-timing, then
    --format, whose first choice is the default.  The handler finds the
    parameters' dests, in flag order, as args.params."""
    sub = subs.add_parser(name, help=summary)
    dests = []
    for flag, flag_help in params:
        metavar = "LAM" if flag == "--lambda" else None
        dests.append(sub.add_argument(flag, type=_nonneg, required=True, help=flag_help,
                                      metavar=metavar).dest)
    if budget_help:
        sub.add_argument("--budget", type=_nonneg, default=DEFAULT_BUDGET, help=budget_help)
        sub.add_argument("--no-timing", action="store_true",
                         help="omit elapsed time for byte-identical output")
        dests.append("budget")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.set_defaults(handler=handler, params=dests)
    return sub


def _build_parser() -> _Parser:
    parser = _Parser(prog="ballseq", description=_DESCRIPTION)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, params, count in _COUNTS:
        sub = _add_command(subs, name, summary, params, _run_count, ("plain", "json"))
        sub.set_defaults(count=count)
    k_n = (("--k", None), ("--n", None))
    _add_command(subs, "table", "full distribution table for (k, n)", k_n, _run_table,
                 ("tsv", "json"))
    _add_command(subs, "verify", "compare formulas against enumeration for one (k, n)", k_n,
                 _run_verify, ("text", "json"),
                 "max colorings to enumerate, and max cells to check (default %(default)s)")
    _add_command(subs, "verify-range", "verify every (k, n) pair up to the given bounds",
                 (("--max-k", None), ("--max-n", None)), _run_verify_range, ("text", "json"),
                 "per-pair cap on colorings and cells; pairs over it are skipped")
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
    status: 0 ok/pass, 1 usage, 2 mismatch, 3 budget, 4 any other error,
    an interrupt included.  Counts of any size are printed in full."""
    parser = _build_parser()
    with _uncapped_int_digits():
        try:
            args = parser.parse_args(argv)
        except _UsageError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        except SystemExit as exit_:  # argparse's exit after printing --help
            return exit_.code
        try:
            return args.handler(args)
        except BudgetExceeded as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_BUDGET
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            return EXIT_ERROR
        except Exception as err:
            print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
            return EXIT_ERROR


main = run  # conventional entry-point name, used by the console script


if __name__ == "__main__":
    sys.exit(run())
