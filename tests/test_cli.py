"""End-to-end tests of the command-line interface, run in process."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ballseq import cli, core, oracle
from ballseq.core import SequenceClass


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
        raise RuntimeError("enumerating 4^6 colorings failed: worker 1 exited with status 1")

    monkeypatch.setattr(oracle, "verify", broken)
    code, out, err = run(capsys, "verify", "--k", "6", "--n", "4")
    assert code == 4
    assert out == ""
    assert err == ("error: RuntimeError: enumerating 4^6 colorings failed:"
                   " worker 1 exited with status 1\n")


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
    assert result.stdout == "[]\n[]\nTrue\n"
