"""The byte contract: every argv in ``artifacts.txt`` prints the bytes whose hashes it records.

Each line of ``artifacts.txt`` holds an exit code, the sha256 of stdout and of stderr, and the
argv, run in process through ``cli.main`` with ``$RBL_SEED`` unset. A change that moves an
artifact's bytes rewrites the hashes with ``PYTHONPATH=src python tests/test_artifacts.py``,
and the file's diff is then the list of changed artifacts.
"""

import contextlib
import hashlib
import io
import os
import platform
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rbtrees.cli import main

TABLE = Path(__file__).with_name("artifacts.txt")
VERSIONS = f"# python {platform.python_version()}, numpy {np.__version__}"
# written to a file whose path replaces the argv word {config}; the path reaches no byte
CONFIG = '{"n_values": [10, 100], "theta_spec": "power:0.5", "trials": 40, "seed": 11}'


def _read():
    """The header lines, and (exit code, stdout hash, stderr hash, argv) per entry."""
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    entries = []
    for line in lines:
        if line and not line.startswith("#"):
            code, out, err, *argv = shlex.split(line)
            entries.append((int(code), out, err, argv))
    return header, entries


def _run(argv, config_path):
    """(exit code, sha256 of stdout, sha256 of stderr) of one in-process run."""
    argv = [config_path if word == "{config}" else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return (code, *digests)


HEADER, ENTRIES = _read()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "config.json"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "code,out,err,argv", [pytest.param(*entry, id=" ".join(entry[3])) for entry in ENTRIES]
)
def test_argv_prints_the_recorded_bytes(monkeypatch, config_path, code, out, err, argv):
    monkeypatch.delenv("RBL_SEED", raising=False)
    recorded = next(line for line in HEADER if line.startswith("# python "))
    assert _run(argv, config_path) == (code, out, err), f"recorded under {recorded[2:]}"


def _rewrite() -> None:
    os.environ.pop("RBL_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(CONFIG, encoding="utf-8")
        body = [
            " ".join(map(str, _run(argv, str(config)))) + " " + shlex.join(argv)
            for _, _, _, argv in ENTRIES
        ]
    header = [VERSIONS if line.startswith("# python ") else line for line in HEADER]
    TABLE.write_text("\n".join(header + body) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _rewrite()
