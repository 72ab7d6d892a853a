"""The benchmark's workloads: jobs that call rbtrees and check its laws.

A job returns the number of trials it completed (trees, permutations,
record counts or profiles) and raises ``CheckFailed`` when an output breaks
a law. Checks compare laws, never bytes across versions, because later
kernels are allowed to change the bytes; the only byte comparisons are
between runs of one version (identical argv, and 1 against 2 workers).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from rbtrees import analytics, cli, experiments, model, samplers
from rbtrees.model import RbParams

# Chi-square significance for the oracle jobs. Each run draws its inputs from
# its own seed and makes 6 distinct tests (cycles repeat the same inputs).
# Two passes of 4 + 22 x 4 runs, every traced run covering oracle-small too,
# make at most about 1,100 tests, so a false failure has probability ~1e-3.
CHI_SQUARE_ALPHA = 1e-6
# Records z-test limit for the CLI height samples, in exact standard errors.
RECORDS_Z_LIMIT = 6.0
ORACLE_THETAS = (0.5, 1.0, 2.0)
DOMINANCE_J = ",".join(str(j) for j in range(21))


class CheckFailed(Exception):
    """A job's output broke one of the laws it is checked against."""


@dataclass
class Context:
    """Per-process job state: the program seed and the bytes seen per argv."""

    seed: int
    scale: float = 1.0
    tracer: object = None
    outputs: dict = field(default_factory=dict)

    def trials(self, count: int) -> int:
        return max(2, int(count * self.scale))


def _no_warmup() -> None:
    pass


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[tuple[str, Callable[[Context], int]], ...]
    # Lazy caches a CLI user pays on every invocation; part of set-up time.
    warmup: Callable[[], None] = _no_warmup
    # Jobs that use the process pool; they also take a worker count, and a
    # traced run replays them with 1 and 2 workers.
    pool_jobs: tuple[Callable[[Context, int], int], ...] = ()


def run_cli(ctx: Context, argv: list[str]) -> str:
    """Run the CLI in this process and return what it printed.

    Repeating an argv within one process must reproduce the earlier bytes.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    if code != 0:
        raise CheckFailed(f"exit {code} from {' '.join(argv)}: {err.getvalue().strip()[-300:]}")
    text = out.getvalue()
    if ctx.outputs.setdefault(tuple(argv), text) != text:
        raise CheckFailed(f"bytes differ between identical runs of {' '.join(argv)}")
    if ctx.tracer is not None:
        ctx.tracer.record("cli.emit.bytes", len(text.encode()))
    return text


def _rows(ctx: Context, argv: list[str]) -> list[dict]:
    return json.loads(run_cli(ctx, argv + ["--seed", str(ctx.seed), "--format", "json"]))["rows"]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _height_argv(spec: str, n_values, trials: int, threads: int) -> list[str]:
    return [
        "experiment", "height-ratio", "--theta-spec", spec,
        "--n-values", ",".join(str(n) for n in n_values),
        "--trials", str(trials), "--threads", str(threads),
    ]


# height-uniform -----------------------------------------------------------

def _check_uniform(rows: list[dict]) -> int:
    top = rows[-1]
    ratio = top["ratio_height_norm"]
    _check(0.78 <= ratio <= 1.05, f"ratio_height_norm {ratio} outside [0.78, 1.05] at n={top['n']}")
    return sum(row["trials"] for row in rows)


def uniform_small(ctx: Context, threads: int = 2) -> int:
    return _check_uniform(_rows(ctx, _height_argv("constant:1", (1000, 10000, 100000), ctx.trials(200), threads)))


def uniform_large(ctx: Context, threads: int = 2) -> int:
    return _check_uniform(_rows(ctx, _height_argv("constant:1", (1000000,), ctx.trials(6), threads)))


def uniform_determinism(ctx: Context) -> int:
    """1 and 2 workers must print the same bytes; both kernels run (n >= 4096 is BFS)."""
    trials = ctx.trials(16)
    serial = run_cli(ctx, _height_argv("constant:1", (1000, 5000), trials, 1) + ["--seed", str(ctx.seed)])
    pooled = run_cli(ctx, _height_argv("constant:1", (1000, 5000), trials, 2) + ["--seed", str(ctx.seed)])
    _check(serial == pooled, "1 and 2 workers print different bytes")
    return 4 * trials


# height-biased ------------------------------------------------------------

def _check_mu_band(rows: list[dict]) -> int:
    for row in rows:
        ratio = row["mean_height"] / analytics.mu(row["n"], row["theta"])
        _check(0.9 <= ratio <= 1.1, f"mean_h / mu = {ratio} outside [0.9, 1.1] at n={row['n']}")
    return sum(row["trials"] for row in rows)


def biased_linear(ctx: Context) -> int:
    return _check_mu_band(_rows(ctx, _height_argv("linear:1", (2000, 10000), ctx.trials(10), 1)))


def biased_power(ctx: Context) -> int:
    return _check_mu_band(_rows(ctx, _height_argv("power:0.5", (100000,), ctx.trials(12), 1)))


# bounds-audit -------------------------------------------------------------

def record_concentration(ctx: Context) -> int:
    argv = [
        "experiment", "record-concentration", "--n-values", "10000",
        "--theta-spec", "constant:5", "--epsilon", "0.5", "--trials", str(ctx.trials(2000)),
    ]
    rows = _rows(ctx, argv)
    for row in rows:
        _check(row["passed"], f"record concentration failed: freq {row['freq_beyond']} > {row['bound_total']}")
    return sum(row["trials"] for row in rows)


def dominance(ctx: Context) -> int:
    argv = [
        "experiment", "dominance", "--n-values", "10000", "--theta-spec", "2",
        "--j-values", DOMINANCE_J, "--trials", str(ctx.trials(20000)),
    ]
    rows = _rows(ctx, argv)
    for row in rows:
        _check(row["passed"], f"dominance failed at j={row['j']}: excess {row['max_excess']}")
    return rows[0]["trials"]


def chernoff(ctx: Context) -> int:
    rows = _rows(ctx, ["bound", "chernoff", "--n", "10000", "--theta", "5", "--epsilon", "0.5"])
    value = {row["side"]: row["value"] for row in rows}
    _check(all(0.0 < v <= 1.0 for v in value.values()), f"chernoff bound outside (0, 1]: {value}")
    total = min(1.0, value["upper"] + value["lower"])
    _check(math.isclose(value["two_sided"], total, rel_tol=1e-12), f"two-sided bound {value}")
    return 0


def profile_tail(ctx: Context) -> int:
    """The profile tail bound must dominate the sampled event frequency."""
    n, theta, epsilon, k = 10**4, 2.0, 0.1, 5
    M = 2.0 * math.log(math.log(n))
    argv = [
        "bound", "profile-tail", "--n", str(n), "--theta", repr(theta),
        "--epsilon", repr(epsilon), "--M", repr(M), "--k", str(k),
    ]
    bound = _rows(ctx, argv)[0]["value"]
    params = RbParams(n, theta)
    trials = ctx.trials(20000)
    matrix = samplers.sample_left_profile_matrix(params, trials, k, samplers.RandomSource(ctx.seed, 1))
    thresholds = np.array(analytics.profile_exceedance_thresholds(params, epsilon, M, k))
    freq = float((matrix > thresholds[None, :]).any(axis=1).mean())
    se = math.sqrt(max(freq, 1.0 / trials) * (1.0 - min(freq, 1.0)) / trials)
    _check(bound >= freq - 3 * se, f"profile tail bound {bound} below freq {freq} - 3se")
    return trials


# oracle-small ---------------------------------------------------------------

def tree_invariants_hold(tree, perm=None) -> bool:
    """The model invariants of the structural acceptance criterion."""
    if not model.is_valid_bst(tree):
        return False
    if tree.is_empty:
        return True
    h = model.height(tree)
    prof = model.left_profile(tree)
    return (
        model.height_via_profile(tree) == h
        and prof.record_count + sum(prof.sizes) == tree.size
        and h >= prof.record_count - 1
        and (perm is None or model.record_count_perm(perm) == model.record_count_tree(tree))
    )


def _oracle_job(theta: float, stream: int):
    def job(ctx: Context) -> int:
        params = RbParams(6, theta)
        expected = analytics.enumerate_exact(params).height_record_first
        rng = samplers.RandomSource(ctx.seed, stream)
        trials = ctx.trials(6000)
        seq, rec = Counter(), Counter()
        violations = 0
        for _ in range(trials):
            perm = samplers.sample_sequential(params, rng)
            tree = model.build_bst(perm)
            violations += not tree_invariants_hold(tree, perm)
            seq[(model.height(tree), model.record_count_perm(perm), perm.values[0])] += 1
        for _ in range(trials):
            tree = samplers.sample_tree_recursive(params, rng)
            violations += not tree_invariants_hold(tree)
            rec[(model.height(tree), model.record_count_tree(tree), tree.labels[tree.root])] += 1
        _check(violations == 0, f"{violations} model invariant violations at theta={theta}")
        for name, counts in (("sequential", seq), ("recursive", rec)):
            p = experiments.chi_square_gof(counts, expected).p_value
            _check(p > CHI_SQUARE_ALPHA, f"{name} chi-square p={p} <= {CHI_SQUARE_ALPHA} at theta={theta}")
        return 2 * trials

    return job


def _sequential_heights(n: int, trials: int):
    def job(ctx: Context) -> int:
        argv = ["sample", "height", "--method", "sequential", "--n", str(n), "--trials", str(ctx.trials(trials))]
        row = _rows(ctx, argv)[0]
        probs = 1.0 / (1.0 + np.arange(n))  # theta = 1: p_i = 1 / (1 + i)
        se = math.sqrt(float((probs * (1.0 - probs)).sum()) / row["trials"])
        z = abs(row["mean_records"] - analytics.mu(n, 1.0)) / se
        _check(z <= RECORDS_Z_LIMIT, f"mean records {z:.1f} standard errors from mu at n={n}")
        return row["trials"]

    return job


def _warm_oracle() -> None:
    for theta in ORACLE_THETAS:
        analytics.enumerate_exact(RbParams(6, theta))


WORKLOADS = {
    "height-uniform": Workload(
        "height-uniform",
        (("uniform-small", uniform_small), ("uniform-large", uniform_large), ("determinism", uniform_determinism)),
        pool_jobs=(uniform_small, uniform_large),
    ),
    "height-biased": Workload(
        "height-biased",
        (("linear", biased_linear), ("power", biased_power)),
    ),
    "bounds-audit": Workload(
        "bounds-audit",
        (
            ("record-concentration", record_concentration),
            ("dominance", dominance),
            ("chernoff", chernoff),
            ("profile-tail", profile_tail),
        ),
    ),
    "oracle-small": Workload(
        "oracle-small",
        (
            *((f"oracle-theta{theta:g}", _oracle_job(theta, i)) for i, theta in enumerate(ORACLE_THETAS)),
            ("sequential-n100", _sequential_heights(100, 200)),
            ("sequential-n1000", _sequential_heights(1000, 40)),
        ),
        _warm_oracle,
    ),
}
