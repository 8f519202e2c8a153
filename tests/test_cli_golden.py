"""Golden bytes of the command-line interface, run in process.

Each case in cli_golden.json holds an argv and the stdout, stderr and exit
status that ``cli.run`` gave for it, with the terminal 80 columns wide.
argparse writes the text of --help and of usage errors, and its wording
and wrapping belong to the interpreter, so that text is compared only on
the Python minor version the file was recorded on; every other byte, and
every exit status, is compared on all versions.

To record the file again after an intended change of output, run
``python tests/test_cli_golden.py`` with the package on the path.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ballseq import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

HELP = [["--help"]] + [
    [command, "--help"]
    for command in ("z", "s", "problem1", "problem2", "problem3", "problem4",
                    "table", "verify", "verify-range")
]
USAGE_ERRORS = [
    [],
    ["problem9"],
    ["problem1", "--k", "x", "--n", "3", "--m", "4"],
    ["problem1", "--k", "5", "--n", "3"],
    ["z", "--k", "-1", "--n", "2", "--m", "0", "--lambda", "0"],
    ["table", "--k", "2", "--n", "2", "--format", "plain"],
]
RUNS = [
    argv + fmt
    for argv in (
        ["z", "--k", "5", "--n", "3", "--m", "4", "--lambda", "2"],
        ["z", "--k", "40", "--n", "40", "--m", "0", "--lambda", "0"],
        ["s", "--m", "5", "--lambda", "2"],
        ["problem1", "--k", "5", "--n", "3", "--m", "4"],
        ["problem2", "--n", "2", "--m", "2"],
        ["problem3", "--k", "3", "--n", "2", "--mu", "1"],
        ["problem4", "--n", "3", "--mu", "2"],
    )
    for fmt in ([], ["--format", "json"])
] + [
    ["table", "--k", "4", "--n", "3"],
    ["table", "--k", "4", "--n", "3", "--format", "json"],
    ["verify", "--k", "4", "--n", "3", "--no-timing"],
    ["verify", "--k", "4", "--n", "3", "--no-timing", "--format", "json"],
    ["verify-range", "--max-k", "2", "--max-n", "3", "--no-timing"],
    ["verify-range", "--max-k", "2", "--max-n", "2", "--no-timing", "--format", "json"],
    ["verify-range", "--max-k", "4", "--max-n", "4", "--budget", "27", "--no-timing"],
    ["verify", "--budget", "1000", "--k", "12", "--n", "12"],
]


def _invoke(argv):
    """stdout, stderr and exit status of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exit_:  # argparse's own exit, should run() let one through
            code = exit_.code
    return out.getvalue(), err.getvalue(), code


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


RECORD = _load() if GOLDEN.exists() else {"python": None, "cases": []}
RECORDED_ON = RECORD["python"]
CASES = RECORD["cases"]
OTHER_PYTHON = f"{sys.version_info[0]}.{sys.version_info[1]}" != RECORDED_ON


def _id(case):
    return " ".join(case["argv"]) or "<no arguments>"


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_golden_file_covers_every_case():
    assert [case["argv"] for case in CASES] == HELP + USAGE_ERRORS + RUNS


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_golden_exit_status_and_own_bytes(capsys, case):
    code = cli.run(list(case["argv"]))
    out, err = capsys.readouterr()
    assert code == case["code"]
    if case["argparse"]:
        # The stream argparse does not write to stays empty.
        assert (out if case["err"] else err) == ""
    else:
        assert out == case["out"]
        assert err == case["err"]


@pytest.mark.skipif(
    OTHER_PYTHON,
    reason=f"argparse's help and usage-error text was recorded on Python {RECORDED_ON};"
    " its wording and wrapping differ between interpreter versions",
)
@pytest.mark.parametrize("case", [case for case in CASES if case["argparse"]], ids=_id)
def test_golden_argparse_text(capsys, case):
    code = cli.run(list(case["argv"]))
    out, err = capsys.readouterr()
    assert code == case["code"]
    assert out == case["out"]
    assert err == case["err"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = []
    for group, argvs in (("help", HELP), ("usage", USAGE_ERRORS), ("run", RUNS)):
        for argv in argvs:
            out, err, code = _invoke(argv)
            cases.append({"argv": argv, "argparse": group != "run",
                          "code": code, "out": out, "err": err})
    record = {"python": f"{sys.version_info[0]}.{sys.version_info[1]}", "cases": cases}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
