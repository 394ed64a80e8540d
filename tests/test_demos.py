"""The scripts in demos/ run with the arguments the README gives them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import permbinom
from permbinom.cli import EXIT_USAGE

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(argv):
    # The child imports the package this suite imports, installed or not.
    path = [str(Path(permbinom.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, str(DEMOS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


@pytest.mark.parametrize("argv", [
    ["sweep_demo.py", "13"],
    ["elimination_walkthrough.py"],
    ["single_pair_anatomy.py", "2^3", "3"],
])
def test_demo_runs(argv):
    proc = run_demo(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("argv, says", [
    (["single_pair_anatomy.py", "1_1^3", "3"], "p of \"p^e\" = '1_1' is not an integer"),
    (["single_pair_anatomy.py", "5", "３"], "a = '３' is not an integer"),
    (["sweep_demo.py", "1_3"], "q_max = '1_3' is not an integer"),
    (["sweep_demo.py", "600"], "exceeds the hard cap 512"),
], ids=["underscore-p", "full-width-a", "underscore-q-max", "q-max-above-cap"])
def test_demo_bad_input_is_usage_error(argv, says):
    # The demos read numbers as the CLI does: one error line and exit 2.
    proc = run_demo(argv)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert says in proc.stderr
