#!/usr/bin/env python3
"""Sweep tree heights across n for several bias regimes.

Produces one CSV per theta spec with the mean height, its normalized ratio,
and record statistics, suitable for eyeballing how fast the ratio
h / max(c* log n, mu) approaches 1.

Example:
    python scripts/height_scaling.py --trials 500 --out-dir results/
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rbtrees.cli import OutputTable, emit
from rbtrees.experiments import ExperimentConfig, log_to_stderr, run_height_ratio

DEFAULT_SPECS = ("constant:0", "constant:1", "constant:4.311", "constant:20", "power:0.5", "linear:1")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-values", default="100,1000,10000,100000",
                        help="comma-separated sizes")
    parser.add_argument("--theta-specs", default=",".join(DEFAULT_SPECS),
                        help="comma-separated theta specs (constant:x | linear:a | power:p)")
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    # every spec is checked at every n, and the output directory made, before the first draw
    try:
        try:
            n_values = tuple(int(x) for x in args.n_values.split(","))
        except ValueError:
            raise ValueError(f"bad integer list {args.n_values!r} for --n-values") from None
        configs = [
            ExperimentConfig(n_values=n_values, theta_spec=spec, trials=args.trials, seed=args.seed)
            for spec in args.theta_specs.split(",")
        ]
        os.makedirs(args.out_dir, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2

    for config in configs:
        spec = config.theta_spec
        rows = run_height_ratio(config, progress=log_to_stderr)
        slug = spec.replace(":", "_").replace("/", "-").replace(".", "p")
        path = os.path.join(args.out_dir, f"height_{slug}.csv")
        emit(
            OutputTable(
                command="experiment height-ratio",
                params={"theta_spec": spec, "n_values": list(n_values), "trials": args.trials},
                seed=args.seed,
                rows=rows,
            ),
            "csv",
            path,
        )
        top = rows[-1]
        print(
            f"{spec}: n={top.n} mean_h={top.mean_height:.2f} "
            f"ratio={top.ratio_height_norm:.4f} (log-ratio target 1.0, "
            f"second-order gap ~{1 - top.ratio_height_norm:.3f}) -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
