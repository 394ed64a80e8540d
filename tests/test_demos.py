"""The scripts in demos/ run with the arguments the README gives them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import permbinom

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("argv", [
    ["sweep_demo.py", "13"],
    ["elimination_walkthrough.py"],
    ["single_pair_anatomy.py", "2^3", "3"],
])
def test_demo_runs(argv):
    # The child imports the package this suite imports, installed or not.
    path = [str(Path(permbinom.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, str(DEMOS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
