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
import hashlib
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
    ["verify-range", "--max-k", "4", "--max-n", "4", "--budget", "27", "--no-timing",
     "--format", "json"],
    ["verify", "--budget", "1000", "--k", "12", "--n", "12"],
] + [
    # Edge shapes of the streamed table: no balls, no colors, one ball,
    # two colors for twelve balls, and a palette far wider than k.
    ["table", "--k", str(k), "--n", str(n)] + fmt
    for k, n in ((0, 0), (0, 5), (1, 0), (3, 0), (12, 2), (5, 100))
    for fmt in ([], ["--format", "json"])
]


# The sha256 of ``table``'s stdout at shapes whose output is too long to keep
# in the golden file (0.45 MB at k = 100, 15 MB at k = 300), recorded from
# the table as it was before it was streamed.
TABLE_DIGESTS = {
    (100, 95, "tsv"): "26c3a24ec8fadd5240acd0784fe59000f79f555450c786d49a61e5ed6e8869b8",
    (100, 95, "json"): "a35e662ea9315a09576f556fe3fee5dffc63988efdca7cdd179f83353c7d950f",
    (99, 110, "tsv"): "f4a6f0405eeb097c49efa25ee2aef359f339489341192c89ddbce2ec03f5782a",
    (99, 110, "json"): "5c70d78d2078b2463c0d8ad18a184d8a46240469af30ac2d71433d5223466e0e",
    (300, 300, "tsv"): "d8198a65f35bda69771221e3ef025649911ee20431bde2d9fae1c7863e8a8371",
    (300, 300, "json"): "f5993e780346e1a977139c83c68dc81ca25e65336d0ccaeea6745ddb7992136f",
}


class _HashingSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


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


@pytest.mark.parametrize("shape", TABLE_DIGESTS, ids=lambda shape: "table k=%d n=%d %s" % shape)
def test_large_table_digests(shape):
    k, n, fmt = shape
    sink = _HashingSink()
    with contextlib.redirect_stdout(sink):
        code = cli.run(["table", "--k", str(k), "--n", str(n), "--format", fmt])
    assert code == 0
    assert sink.sha256.hexdigest() == TABLE_DIGESTS[shape]


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
