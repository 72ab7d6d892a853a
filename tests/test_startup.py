"""Start-up: the commands that need no special function never import scipy.

Each command runs in a fresh interpreter, because other test modules import scipy into
the pytest process itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs one command, then prints its exit code and the scipy modules it left loaded
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rbtrees.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rbtrees.cli.main(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _run(argv):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    (
        "sample perm --n 6 --trials 50",
        "sample height --n 1000 --trials 4",
        "exact cstar",
        "exact enumerate --n 5",
        "exact split-pmf --n 50 --k 3",
        "bound chernoff --n 1000 --theta 5 --epsilon 0.5",
        "bound profile-tail --n 100 --theta 2 --epsilon 0.1 --M 3 --k 2",
        "bound height-tail --n 500 --theta 2 --eta 40",
        "experiment height-ratio --n-values 1000 --theta-spec 1 --trials 4",
    ),
)
def test_command_loads_no_scipy(argv):
    code, loaded = _run(argv.split())
    assert code == 0
    assert loaded == []


def test_dominance_loads_scipy_on_first_use():
    # the probe sees scipy where a command does load it
    code, loaded = _run(
        "experiment dominance --n-values 1000 --trials 200 --theta-spec 2 --j-values 0,5".split()
    )
    assert code == 0
    assert "scipy.special" in loaded
