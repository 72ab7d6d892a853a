#!/usr/bin/env python3
"""Audit every tail bound against fresh Monte Carlo samples.

Runs the record-concentration check, the profile dominance check, and the
left-profile exceedance bound on one (n, theta) instance and prints a
one-line verdict per bound.

Example:
    python scripts/bounds_audit.py --n 10000 --theta 2 --trials 50000
"""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from rbtrees.analytics import left_profile_tail_bound, profile_exceedance_thresholds
from rbtrees.experiments import (
    ExperimentConfig,
    log_to_stderr,
    run_dominance_check,
    run_record_concentration,
)
from rbtrees.model import RbParams
from rbtrees.samplers import RandomSource, sample_left_profile_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10**4)
    parser.add_argument("--theta", type=float, default=2.0)
    parser.add_argument("--trials", type=int, default=5 * 10**4)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--profile-epsilon", type=float, default=0.1)
    parser.add_argument("--max-j", type=int, default=20)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # every input is checked, and the profile bound evaluated, before the first draw
    try:
        params = RbParams(args.n, args.theta)
        config = ExperimentConfig(
            n_values=(args.n,),
            theta_spec=args.theta,
            trials=args.trials,
            seed=args.seed,
            epsilon=args.epsilon,
            j_values=range(args.max_j + 1),
        )
        if args.n < 3:
            raise ValueError(f"n must be at least 3, so that M = 2 log log n >= 0; got {args.n}")
        M = 2.0 * math.log(math.log(args.n))
        try:
            bound = left_profile_tail_bound(params, args.profile_epsilon, M, args.k)
        except ValueError as exc:
            # the bound's epsilon is --profile-epsilon here, not --epsilon
            raise ValueError(str(exc).replace("epsilon", "--profile-epsilon")) from None
        thresholds = np.array(profile_exceedance_thresholds(params, args.profile_epsilon, M, args.k))
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2

    row = run_record_concentration(config, progress=log_to_stderr)[0]
    print(
        f"record concentration: freq={row.freq_beyond:.2e} bound={row.bound_total:.2e} "
        f"-> {'OK' if row.passed else 'VIOLATED'}"
    )

    dominance = run_dominance_check(config, progress=log_to_stderr)
    worst = max(r.max_excess for r in dominance)
    ok = all(r.passed for r in dominance)
    print(
        f"profile dominance: max excess={worst:.5f} band={2 * dominance[0].dkw_band:.5f} "
        f"-> {'OK' if ok else 'VIOLATED'}"
    )

    matrix = sample_left_profile_matrix(params, args.trials, args.k, RandomSource(args.seed, 1))
    freq = float((matrix > thresholds[None, :]).any(axis=1).mean())
    # a binomial standard error that stays positive at freq = 0, as in the acceptance check
    se = math.sqrt(max(freq, 1.0 / args.trials) * (1.0 - min(freq, 1.0)) / args.trials)
    print(
        f"profile exceedance: freq={freq:.2e} se={se:.2e} bound={bound:.3f} "
        f"-> {'OK' if bound >= freq - 3.0 * se else 'VIOLATED'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
