"""Start-up: no command and no law imports scipy.

Each probe runs in a fresh interpreter, because other test modules import scipy into the
pytest process itself. A static guard also refuses any scipy import in the library's source,
at module level or inside a function, where no probe may happen to reach it.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# which of these packages the probe's work left loaded
_LOADED = 'sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})'
# runs one command, then prints its exit code and the packages it loaded
PROBE = f"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rbtrees.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = rbtrees.cli.main(sys.argv[2:])
print(json.dumps([code, {_LOADED}]))
"""
# runs one chi-square test, then prints its p-value and the packages it loaded
GOF_PROBE = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
from rbtrees.analytics import enumerate_exact
from rbtrees.experiments import chi_square_gof
from rbtrees.model import RbParams
law = enumerate_exact(RbParams(5, 2.0)).record
observed = {{k: round(1000 * p) + 3 for k, p in zip(law.support, law.probs)}}
print(json.dumps([chi_square_gof(observed, law).p_value, {_LOADED}]))
"""
DOMINANCE = "experiment dominance --n-values 1000 --trials 200 --theta-spec 2 --j-values 0,5"


def _probe(script, *argv):
    result = subprocess.run(
        [sys.executable, "-c", script, str(SRC), *argv],
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
        "experiment record-concentration --n-values 1000 --theta-spec 2 --trials 50 --epsilon 0.5",
        DOMINANCE,
    ),
)
def test_command_loads_no_scipy(argv):
    code, loaded = _probe(PROBE, *argv.split())
    assert code == 0
    assert "scipy" not in loaded


def test_probe_sees_numpy_loaded():
    # the positive control: the probe reports a package that the command does load
    code, loaded = _probe(PROBE, *DOMINANCE.split())
    assert code == 0
    assert loaded == ["numpy"]


def test_chi_square_gof_loads_no_scipy():
    p_value, loaded = _probe(GOF_PROBE)
    assert 0.0 < p_value <= 1.0
    assert "scipy" not in loaded


def _scipy_imports(source):
    """The lines of ``source`` whose statement imports scipy or a module under it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_imports_inside_functions():
    source = (
        "import math, scipy\n"
        "from .scipy_like import x\n"
        "def f():\n"
        "    from scipy.special import gammainc\n"
        "    import scipy.stats as st\n"
        "    import scipyx\n"
    )
    assert _scipy_imports(source) == [1, 4, 5]


@pytest.mark.parametrize(
    "path", sorted(SRC.joinpath("rbtrees").rglob("*.py")), ids=lambda path: path.name
)
def test_library_source_imports_no_scipy(path):
    assert _scipy_imports(path.read_text(encoding="utf-8")) == []
