"""Each demo script runs to completion and prints exactly its recorded output.

The recorded output of ``demos/<name>.py`` is ``tests/demo_output/<name>.txt``.
Every demo is deterministic, so any difference in its stdout bytes is a
change in what the package computes or prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ballseq

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_recorded_output():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    # Run against the same ballseq this test imported.
    src = str(Path(ballseq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
