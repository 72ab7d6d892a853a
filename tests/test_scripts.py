"""The scripts under scripts/ run end to end at tiny sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args",
    (
        (
            "height_scaling.py",
            ["--n-values", "10,40", "--theta-specs", "constant:1,linear:1", "--trials", "4"],
        ),
        ("bounds_audit.py", ["--n", "100", "--trials", "200", "--max-j", "3", "--k", "2"]),
    ),
)
def test_script_runs(tmp_path, script, args):
    if script == "height_scaling.py":
        args = args + ["--out-dir", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    if script == "bounds_audit.py":
        verdicts = [line for line in result.stdout.splitlines() if "-> " in line]
        assert len(verdicts) == 3 and all(line.endswith("-> OK") for line in verdicts), result.stdout


@pytest.mark.parametrize(
    "args,message",
    (
        (["--epsilon", "0"], "epsilon must be a finite positive number"),
        (["--theta", "0"], "theta must be positive"),
        (["--theta", "20"], "--profile-epsilon * theta must be < 1"),
        (["--n", "2"], "n must be at least 3"),
        (["--max-j", "-1"], "j_values"),
        (["--profile-epsilon", "0"], "--profile-epsilon must be positive and finite"),
    ),
)
def test_bounds_audit_rejects_bad_input(tmp_path, args, message):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bounds_audit.py"), "--trials", "10", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"bounds_audit.py: error: {message}")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args,message",
    (
        (["--trials", "0"], "trials must be in [1, 2**32)"),
        (["--seed", "-1"], "seed must be an unsigned 64-bit integer"),
        (["--n-values", "10,abc"], "bad integer list '10,abc' for --n-values"),
        (["--n-values", "20,10"], "n_values must be strictly increasing"),
        (["--theta-specs", "bogus:1"], "unknown theta spec tag 'bogus'"),
        # a bad later spec stops the run before the good one draws or writes anything
        (["--theta-specs", "constant:1,bogus:1"], "unknown theta spec tag 'bogus'"),
        (["--out-dir", "taken"], "[Errno 17] File exists: 'taken'"),
    ),
)
def test_height_scaling_rejects_bad_input(tmp_path, args, message):
    out_dir = tmp_path / "out"
    (tmp_path / "taken").touch()
    result = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "height_scaling.py"),
            "--n-values", "10,20",
            "--trials", "2",
            "--out-dir", str(out_dir),
            *args,
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"height_scaling.py: error: {message}")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())
