"""End-to-end tests of the command-line interface, run in process."""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ballseq import cli, core, oracle
from ballseq.core import SequenceClass
from ballseq.problems import distribution_table


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ count commands

def test_problem1_worked_example(capsys):
    code, out, err = run(capsys, "problem1", "--k", "5", "--n", "3", "--m", "4")
    assert code == 0
    assert out == "120\n"
    assert err == ""


def test_z_single_match_prints_zero(capsys):
    code, out, _ = run(capsys, "z", "--k", "7", "--n", "2", "--m", "1", "--lambda", "0")
    assert code == 0
    assert out == "0\n"


def test_s_command(capsys):
    code, out, _ = run(capsys, "s", "--m", "5", "--lambda", "2")
    assert code == 0
    assert out == "20\n"


def test_problem_commands(capsys):
    for argv, expected in [
        (("problem2", "--n", "2", "--m", "2"), "8\n"),
        (("problem3", "--k", "3", "--n", "2", "--mu", "1"), "6\n"),
        (("problem4", "--n", "2", "--mu", "1"), "8\n"),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected


def test_count_json_round_trip(capsys):
    code, out, _ = run(capsys, "z", "--k", "5", "--n", "3", "--m", "4",
                       "--lambda", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == 1
    assert record["query"] == {"command": "z", "k": 5, "n": 3, "m": 4, "lambda": 2}
    assert int(record["result"]) == core.z_count(SequenceClass(5, 3, 4, 2)) == 90


def test_count_json_uses_decimal_strings(capsys):
    # A count far beyond double precision must survive the round trip.
    code, out, _ = run(capsys, "z", "--k", "40", "--n", "40", "--m", "0",
                       "--lambda", "0", "--format", "json")
    assert code == 0
    record = json.loads(out)
    value = int(record["result"])
    assert value == math.perm(40, 40)
    assert str(value) == record["result"]


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("k", [2000, 3300])
def test_counts_past_the_int_digit_cap(capsys, k, fmt):
    # z(k, k, 0, 0) = k!, with 5,736 digits at k = 2000 and 10,181 at
    # k = 3300: past CPython's default 4,300-digit int-to-str cap.
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "z", "--k", str(k), "--n", str(k), "--m", "0",
                         "--lambda", "0", "--format", fmt)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == cap  # the caller's setting is back
    text = json.loads(out)["result"] if fmt == "json" else out.rstrip("\n")
    sys.set_int_max_str_digits(0)
    try:
        assert text == str(math.factorial(k))
    finally:
        sys.set_int_max_str_digits(cap)


# -------------------------------------------------------------------- tables

def test_table_tsv_layout(capsys):
    code, out, _ = run(capsys, "table", "--k", "2", "--n", "2")
    assert code == 0
    assert out == (
        "m\tlambda\tcount\n"
        "0\t0\t2\n"
        "2\t1\t2\n"
        "\n"
        "mu\tcount\n"
        "0\t2\n"
        "1\t2\n"
    )


def test_table_tsv_rows_are_sorted(capsys):
    _, out, _ = run(capsys, "table", "--k", "6", "--n", "4")
    lines = out.splitlines()
    split = lines.index("")
    cells = [tuple(map(int, line.split("\t")[:2])) for line in lines[1:split]]
    assert cells == sorted(cells)
    buckets = [int(line.split("\t")[0]) for line in lines[split + 2:]]
    assert buckets == sorted(buckets)


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--k", "5", "--n", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    cells = {
        (entry["m"], entry["lambda"]): int(entry["count"])
        for entry in record["result"]["by_match_cell"]
    }
    assert cells[4, 1] == 30
    assert cells[4, 2] == 90
    assert sum(cells.values()) == 3**5
    buckets = {
        entry["mu"]: int(entry["count"])
        for entry in record["result"]["by_repeat_count"]
    }
    assert sum(buckets.values()) == 3**5


def _reference_table_output(k, n, fmt):
    """The table's stdout encoded independently of the CLI's writer: the
    JSON record through json.dumps, the TSV as one joined string, both
    from the finished distribution_table."""
    table = distribution_table(k, n)
    if fmt == "json":
        record = {
            "schema_version": 1,
            "query": {"command": "table", "k": k, "n": n},
            "result": {
                "k": table.k,
                "n": table.n,
                "by_match_cell": [
                    {"m": m, "lambda": lam, "count": str(count)}
                    for (m, lam), count in table.by_match_cell.items()
                ],
                "by_repeat_count": [
                    {"mu": mu, "count": str(count)}
                    for mu, count in table.by_repeat_count.items()
                ],
            },
        }
        return json.dumps(record) + "\n"
    lines = ["m\tlambda\tcount"]
    lines += [f"{m}\t{lam}\t{count}" for (m, lam), count in table.by_match_cell.items()]
    lines += ["", "mu\tcount"]
    lines += [f"{mu}\t{count}" for mu, count in table.by_repeat_count.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_table_output_matches_the_reference_encoder(capsys, fmt):
    shapes = [(k, n) for k in range(13) for n in range(13)]
    shapes += [(5, 100), (100, 95), (99, 110), (300, 300)]
    for k, n in shapes:
        code, out, err = run(capsys, "table", "--k", str(k), "--n", str(n), "--format", fmt)
        assert (code, err) == (0, ""), (k, n)
        assert out == _reference_table_output(k, n, fmt), (k, n)


class _CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_table_streams_in_small_memory(fmt):
    # k = n = 200 prints about 4.5 MB.  Built whole before it was written,
    # the table and its text peaked at 11.6 MiB (TSV) and 18.0 MiB (JSON);
    # written as the row walk yields it, only two rows of a, the k repeat
    # sums and one cell's text are held.
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.run(["table", "--k", "200", "--n", "200", "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 4 * 10**6
    assert peak < 2 * 2**20


@pytest.mark.skipif(sys.platform == "win32", reason="closes a pipe under a POSIX writer")
def test_table_into_a_closed_pipe_exits_four():
    # The reader leaves after 100 bytes of a 4.5 MB table; the write that
    # meets the closed pipe must end in the one-line error of exit 4.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    process = subprocess.Popen(
        [sys.executable, "-m", "ballseq.cli", "table", "--k", "200", "--n", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        assert len(process.stdout.read(100)) == 100
        process.stdout.close()
        err = process.stderr.read().decode()
        code = process.wait(timeout=60)
    finally:
        process.kill()
        process.wait()
        process.stderr.close()
    assert code == 4, err
    assert err.startswith("error: BrokenPipeError") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


# -------------------------------------------------------------- verification

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "5", "--n", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "--k", "4", "--n", "4",
                       "--format", "json", "--no-timing")
    assert code == 0
    record = json.loads(out)
    assert record["result"]["passed"] is True
    assert record["result"]["mismatches"] == []
    assert "elapsed_seconds" not in record


def test_verify_timing_field_present_by_default(capsys):
    _, out, _ = run(capsys, "verify", "--k", "3", "--n", "3", "--format", "json")
    assert "elapsed_seconds" in json.loads(out)


def test_verify_output_is_byte_identical_without_timing(capsys):
    argvs = [
        ("verify", "--k", "4", "--n", "3", "--format", "json", "--no-timing"),
        ("verify", "--k", "4", "--n", "3", "--no-timing"),
        ("table", "--k", "4", "--n", "3", "--format", "json"),
        ("z", "--k", "4", "--n", "3", "--m", "2", "--lambda", "1", "--format", "json"),
    ]
    for argv in argvs:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv


def test_verify_mismatch_exits_two(capsys, monkeypatch):
    real = core.z_count

    def skewed(cell):
        value = real(cell)
        if (cell.m, cell.lam) == (2, 1):
            return value + 1
        return value

    monkeypatch.setattr(core, "z_count", skewed)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "2")
    assert code == 2
    assert "FAIL" in out
    assert "m=2,lambda=1" in out


def test_verify_over_budget_exits_three(capsys):
    code, out, err = run(capsys, "verify", "--k", "12", "--n", "12", "--budget", "1000")
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_verify_range_small(capsys):
    code, out, _ = run(capsys, "verify-range", "--max-k", "3", "--max-n", "3")
    assert code == 0
    assert "checked 16 pairs: 16 passed, 0 failed, 0 skipped" in out


def test_verify_range_skips_over_budget_pairs(capsys):
    code, out, _ = run(capsys, "verify-range", "--max-k", "4", "--max-n", "4",
                       "--budget", "27")
    assert code == 0
    assert "SKIPPED" in out
    # 3^3 = 27 still fits; 3^4, 4^3 and up do not.
    assert "k=3 n=3: PASS" in out
    assert "k=4 n=3: SKIPPED" in out


def test_verify_range_json_shape(capsys):
    code, out, _ = run(capsys, "verify-range", "--max-k", "2", "--max-n", "2",
                       "--format", "json", "--no-timing")
    assert code == 0
    record = json.loads(out)
    result = record["result"]
    assert result["passed"] is True
    assert result["pairs_passed"] == 9
    assert result["pairs_failed"] == 0
    assert result["pairs_skipped"] == 0
    assert len(result["pairs"]) == 9
    assert all(pair["status"] == "pass" for pair in result["pairs"])


def test_verify_range_mismatch_exits_two(capsys, monkeypatch):
    real = core.z_count

    def skewed(cell):
        value = real(cell)
        if (cell.k, cell.n, cell.m, cell.lam) == (2, 2, 2, 1):
            return value + 1
        return value

    monkeypatch.setattr(core, "z_count", skewed)
    code, out, _ = run(capsys, "verify-range", "--max-k", "2", "--max-n", "2")
    assert code == 2
    assert "1 failed" in out
    code, out, _ = run(capsys, "verify-range", "--max-k", "2", "--max-n", "2", "--format", "json")
    assert code == 2
    result = json.loads(out)["result"]
    (skewed_pair,) = [pair for pair in result["pairs"] if (pair["k"], pair["n"]) == (2, 2)]
    assert skewed_pair["status"] == "fail"
    assert skewed_pair["mismatches"] == [
        {"cell": "m=2,lambda=1", "formula": "3", "oracle": "2"},
        {"cell": "total:formula", "formula": "5", "oracle": "4"},
    ]
    assert result["pairs_failed"] == 1
    assert result["passed"] is False


# -------------------------------------------------------------- usage errors

def test_negative_parameter_exits_one(capsys):
    code, out, err = run(capsys, "z", "--k", "-1", "--n", "2", "--m", "0", "--lambda", "0")
    assert code == 1
    assert out == ""
    assert "non-negative" in err


def test_non_integer_parameter_exits_one(capsys):
    code, _, err = run(capsys, "problem1", "--k", "x", "--n", "3", "--m", "4")
    assert code == 1
    assert "integer" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(capsys, "problem1", "--k", "5", "--n", "3")
    assert code == 1
    assert err != ""


def test_unknown_command_exits_one(capsys):
    code, _, err = run(capsys, "problem9")
    assert code == 1
    assert err != ""


def test_no_command_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert err != ""


# ----------------------------------------------------------- other failures

def test_huge_degenerate_shapes_exit_three(capsys):
    # One coloring of k balls (n = 1), or none at all (n = 0), fits any
    # coloring budget; the walk's length or the k^2/4 cells to check do not.
    for k, n in [(10**20, 1), (10**20, 0), (2 * 10**7, 1), (20000, 1)]:
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--k", str(k), "--n", str(n))
        assert time.perf_counter() - start < 0.5, (k, n)
        assert code == 3, (k, n, err)
        assert out == ""
        assert err.startswith("error: ") and err.endswith(" exceeds the budget of 10000000\n")
        assert err.count("\n") == 1


def test_unexpected_exception_exits_four(capsys, monkeypatch):
    def broken(k, n, budget):
        raise RuntimeError("enumerating 4^6 colorings failed")

    monkeypatch.setattr(oracle, "verify", broken)
    code, out, err = run(capsys, "verify", "--k", "6", "--n", "4")
    assert code == 4
    assert out == ""
    assert err == "error: RuntimeError: enumerating 4^6 colorings failed\n"


def test_interrupt_exits_four_without_a_traceback(capsys, monkeypatch):
    def interrupted(k, n, budget):
        raise KeyboardInterrupt

    monkeypatch.setattr(oracle, "verify", interrupted)
    code, out, err = run(capsys, "verify", "--k", "6", "--n", "4")
    assert code == 4
    assert out == ""
    assert err == "error: interrupted\n"


# ---------------------------------------------------------------- cold start

def test_cold_start_loads_no_oracle_json_or_dataclasses():
    # A fresh interpreter, since this one has long since loaded everything.
    script = """
import sys
import ballseq.cli
print(sorted(m for m in ("dataclasses", "inspect", "json", "ballseq.oracle") if m in sys.modules))
namespace = {}
exec("from ballseq import *", namespace)
import ballseq
print(sorted(set(ballseq.__all__) - set(namespace)))
print(ballseq.BudgetExceeded is ballseq.oracle.BudgetExceeded is ballseq.core.BudgetExceeded)
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    ballseq.cli.run(["table", "--k", "3", "--n", "2", "--format", "json"])
print("json" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\nTrue\nFalse\n"
