"""One fresh interpreter of the benchmark: set up, then run jobs in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed PROGRAM_SEED --seconds S
        [--setup-only] [--trace SPANS_FILE] [--scale F]

Prints ``ready`` once imports and the workload's lazy caches are done, then,
unless ``--setup-only``, one JSON line of results. The loop is a single
closed-loop client: a job starts only when the previous one has finished,
and whole cycles of the workload's jobs run until ``--seconds`` have passed.
Every cycle uses the same program seed, so a cycle repeats the same work.
With ``--trace`` the first half of the time runs untraced and the second
half traced, followed by the layer replays and one cycle of every other
workload, so that every per-layer metric is measured in every traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import clock
from catalogue import HEIGHT_CELLS
from rbtrees import experiments, samplers
from rbtrees.model import RbParams
from tracing import CountingRandomSource, Tracer
from workloads import WORKLOADS, CheckFailed, Context

# Trials per cell for the counted sampler replay, about 0.1 s each.
COUNTED_TRIALS = {
    "uniform_n1000": 50,
    "uniform_n10000": 50,
    "uniform_n100000": 10,
    "uniform_n1000000": 2,
    "linear_n2000": 20,
    "linear_n10000": 4,
    "power_n100000": 4,
}


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Runner:
    """Runs jobs, counting attempts and failures; a failure never stops the loop."""

    def __init__(self, ctx: Context, probe: clock.SpeedProbe):
        self.ctx = ctx
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def job(self, label: str, fn, *args) -> int:
        self.attempted += 1
        if self.ctx.tracer is not None:
            self.ctx.tracer.job_id = self.attempted
        try:
            return fn(self.ctx, *args)
        except CheckFailed as exc:
            print(f"perfbench: {label} failed: {exc}", file=sys.stderr)
        except Exception:
            print(f"perfbench: {label} raised:", file=sys.stderr)
            traceback.print_exc()
        self.failed += 1
        return 0

    def cycle(self, workload) -> dict:
        """One pass over the workload's jobs, timed per job at reference speed."""
        out = {"trials": 0, "wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0, "raw_cpu_s": 0.0}
        for name, fn in workload.jobs:
            with self.probe:
                wall0, cpu0 = time.perf_counter(), cpu_seconds()
                out["trials"] += self.job(f"{workload.name}/{name}", fn)
                wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            spent = self.probe.spent_s()
            factor = self.probe.factor()
            out["raw_wall_s"] += wall - spent
            out["raw_cpu_s"] += cpu - spent
            out["wall_s"] += (wall - spent) * factor
            out["cpu_s"] += (cpu - spent) * factor
        return out

    def phase(self, workload, seconds: float) -> list[dict]:
        end = time.perf_counter() + seconds
        cycles = [self.cycle(workload)]
        while time.perf_counter() < end:
            cycles.append(self.cycle(workload))
        return cycles


def summarize(cycles: list[dict]) -> dict:
    """Medians over cycles, at reference speed and raw; every cycle does the same work."""
    out = {"cycles": len(cycles)}
    for prefix in ("", "raw_"):
        out[f"{prefix}trials_per_s"] = statistics.median(c["trials"] / c[f"{prefix}wall_s"] for c in cycles)
        out[f"{prefix}cpu_ms_per_trial"] = statistics.median(
            1e3 * c[f"{prefix}cpu_s"] / max(c["trials"], 1) for c in cycles
        )
    return out


def replay_pool_jobs(runner: Runner, tracer: Tracer) -> None:
    """Pool jobs with 1 and then 2 workers: parallel efficiency and CPU cost.

    The 1-worker replay runs in this process, so it also gives the sampler
    spans that the pool hides.
    """
    wall, cpu = {}, {}
    for threads in (1, 2):
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for fn in WORKLOADS["height-uniform"].pool_jobs:
            runner.job(f"height-uniform/{fn.__name__}[threads={threads}]", fn, threads)
        wall[threads] = time.perf_counter() - wall0
        cpu[threads] = cpu_seconds() - cpu0
    tracer.record("experiments.parallel_efficiency", wall[1] / (2 * wall[2]))
    tracer.record("experiments.pool_cpu_ratio", cpu[2] / cpu[1])


def count_sampler_work(ctx: Context, tracer: Tracer) -> None:
    """Exact uniforms, spine nodes and subtree nodes per sample_height_only trial."""
    for cell, (spec, n) in HEIGHT_CELLS.items():
        params = RbParams(n, experiments.resolve_theta(spec, n))
        for trial in range(ctx.trials(COUNTED_TRIALS[cell])):
            rng = CountingRandomSource(ctx.seed, trial)
            sample = samplers.sample_height_only(params, rng)
            tracer.record(f"samplers.uniforms_per_trial.{cell}", rng.drawn)
            tracer.record(f"samplers.spine_nodes_per_trial.{cell}", sample.records)
            tracer.record(f"samplers.subtree_nodes_per_trial.{cell}", n - sample.records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace is not None else None
    if tracer is not None:
        tracer.install()  # so the cold enumeration in the warm-up is timed
    workload.warmup()
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ctx = Context(seed=args.seed, scale=args.scale)
    runner = Runner(ctx, clock.SpeedProbe(sample=tracer is None))
    if tracer is None:
        cycles = runner.phase(workload, args.seconds)
        result = {"summary": summarize(cycles)}
    else:
        untraced = summarize(runner.phase(workload, args.seconds / 2))
        tracer.install()
        ctx.tracer = tracer
        try:
            traced = summarize(runner.phase(workload, args.seconds / 2))
            replay_pool_jobs(runner, tracer)
            for other in WORKLOADS.values():
                if other is not workload:
                    other.warmup()
                    runner.cycle(other)
        finally:
            tracer.uninstall()
            ctx.tracer = None
        count_sampler_work(ctx, tracer)
        for name in ("trials_per_s", "cpu_ms_per_trial"):
            tracer.record(f"trace.overhead.{name}", traced[name] - untraced[name])
        layers = tracer.layer_metrics()
        tracer.dump(args.trace)
        result = {"summary": untraced, "traced": traced, "layers": layers}
    result["summary"]["peak_rss_mb"] = peak_rss_mb()
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
