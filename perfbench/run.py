"""The rbtrees benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``, so
there is nothing to build. The workload seed is hashed to a 64-bit program
seed (see ``program_seed``). Each run starts fresh interpreters:

* ``--trace 0``: seven set-up-only interpreters and one measuring
  interpreter. ``setup_s`` is the median time from process start until the
  first job can run, over the seven. The measuring interpreter runs the
  workload in a closed loop for ``--seconds``; throughput and CPU per trial
  are medians over its cycles. Prints every end-to-end metric.

All times are scaled to a reference machine speed (see ``clock``), because
other tenants' load on the cores changes raw times by 30% or more.
* ``--trace 1``: one interpreter that runs half the time untraced and half
  traced, then the layer replays. Prints every per-layer metric and writes
  the spans to ``.perfbench_out/spans-<workload>.npz``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; ``attempted`` and ``failed`` count jobs. Without rbtrees
sources under ``src/`` the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import clock
from catalogue import END_TO_END, WORKLOADS, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0


def program_seed(workload: str, seed: int) -> int:
    """A 64-bit program seed from the workload seed.

    rbtrees keys a trial's stream by mix64(seed ^ stream_index), so two
    program seeds that differ only in their low 32 bits share trials (seed 1,
    trial t is seed 0, trial t ^ 1). Hashing spreads consecutive workload
    seeds over all 64 bits, which makes such overlaps vanishingly unlikely.
    """
    digest = hashlib.sha256(f"rbtrees-perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("RBL_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker interpreter; return (seconds until ready, its result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with status {code}")
    lines = rest.splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def setup_seconds(args: list[str], deadline: float) -> float:
    """Median set-up time, at reference speed, over SETUP_RUNS interpreters.

    Each set-up is scaled by the reference interpreters started just before
    and just after it (see ``clock``).
    """
    env = worker_env()
    refs = [clock.reference_setup_s(env)]
    samples = []
    for _ in range(SETUP_RUNS):
        ready, _ = run_worker(args + ["--setup-only"], deadline)
        refs.append(clock.reference_setup_s(env))
        samples.append(ready * clock.REFERENCE_SETUP_S / ((refs[-2] + refs[-1]) / 2))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one rbtrees benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="trial-count factor (tests use < 1)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rbtrees" / "__init__.py").is_file():
        print(f"perfbench: no rbtrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    common = [
        "--workload", args.workload,
        "--seed", str(program_seed(args.workload, args.seed)),
        "--seconds", repr(args.seconds),
        "--scale", repr(args.scale),
    ]
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}.npz"
        _, result = run_worker(common + ["--trace", str(spans)], deadline)
        traced = result["traced"]
        print(
            f"perfbench: tracing overhead on {args.workload}: trials_per_s "
            f"{result['summary']['trials_per_s']:.6g} untraced vs {traced['trials_per_s']:.6g} traced",
            file=sys.stderr,
        )
        values = result["layers"]
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit, _ in per_layer()}
    else:
        setup = setup_seconds(common, deadline)
        _, result = run_worker(common, deadline)
        values = dict(result["summary"])
        values["setup_s"] = setup
        print(
            f"perfbench: {args.workload} unscaled: trials_per_s {values['raw_trials_per_s']:.6g}, "
            f"cpu_ms_per_trial {values['raw_cpu_ms_per_trial']:.6g}, {values['cycles']} cycles",
            file=sys.stderr,
        )
        values["success_rate"] = 1.0 - result["failed"] / result["attempted"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
