"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads height-uniform,oracle-small \
        --seeds 1-10 --seconds 15 [--trace 0] [--out results.json]

Spread is the distance between the first and third quartile of the values,
as ``statistics.quantiles(values, n=4)`` gives them, divided by their median.
Runs are made one after another, never in parallel, so they do not compete
for the two cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        runs = results.setdefault(workload, [])
        for seed in args.seeds:
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            line = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()[-1]
            runs.append(json.loads(line))
            print(f"{workload} seed {seed}: {line}", file=sys.stderr, flush=True)
        print(f"\n{workload}: {len(runs)} runs, correct in {sum(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) < 2:
                print(f"  {name:<20} {median:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:<20} median {median:<14.6g} spread {spread:.4f}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
