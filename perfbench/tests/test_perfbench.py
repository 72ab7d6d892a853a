"""The benchmark's own tests: output contract, correctness gate, counters.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalogue
from clock import SpeedProbe
import workloads
from rbtrees import experiments, model, samplers
from rbtrees.model import Permutation
from run import program_seed
from tracing import Tracer
from worker import Runner, count_sampler_work
from workloads import WORKLOADS, Context

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = ["--seconds", "0.5", "--scale", "0.02"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = result_line(run_bench("--workload", workload, "--seed", "3", "--trace", "0", *TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (name, unit) for name, unit, _ in catalogue.END_TO_END
    ]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric():
    result = result_line(run_bench("--workload", "bounds-audit", "--seed", "3", "--trace", "1", *TINY))
    assert result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (name, unit) for name, unit, _ in catalogue.per_layer()
    ]
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert all(count >= 1 for count in calls.values()), calls
    assert (ROOT / ".perfbench_out" / "spans-bounds-audit.npz").is_file()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "oracle-small", "--seed", "1", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(catalogue.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(catalogue.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == catalogue.per_layer()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_program_seeds_differ_beyond_the_low_32_bits():
    seeds = [program_seed("height-uniform", s) for s in range(64)]
    high = {s >> 32 for s in seeds}
    assert len(high) == len(seeds)


def _failures(workload):
    runner = Runner(Context(seed=11, scale=0.05), SpeedProbe())
    runner.cycle(WORKLOADS[workload])
    return runner


def test_wrong_counts_fail_the_chi_square_gate(monkeypatch):
    fixed = model.build_bst(Permutation((3, 1, 2, 5, 4, 6)))
    monkeypatch.setattr(samplers, "sample_tree_recursive", lambda params, rng: fixed)
    runner = _failures("oracle-small")
    assert runner.failed == 3  # one oracle job per theta
    assert 1.0 - runner.failed / runner.attempted < 1.0


def test_out_of_band_ratio_fails_the_height_gate(monkeypatch):
    original = experiments.height_normalizer
    monkeypatch.setattr(experiments, "height_normalizer", lambda n, theta: 2.0 * original(n, theta))
    runner = _failures("height-uniform")
    assert runner.failed == 2  # both ratio-checked jobs; the determinism job has no band
    assert 1.0 - runner.failed / runner.attempted < 1.0


def test_changed_bytes_fail_the_determinism_gate():
    ctx = Context(seed=5, scale=0.05)
    argv = ["bound", "chernoff", "--n", "100", "--theta", "1", "--epsilon", "0.5"]
    workloads.run_cli(ctx, argv)
    ctx.outputs[tuple(argv)] += " "
    with pytest.raises(workloads.CheckFailed):
        workloads.run_cli(ctx, argv)


def test_uniform_counts_repeat_exactly_for_a_fixed_seed():
    def counts(seed):
        tracer = Tracer()
        count_sampler_work(Context(seed=seed, scale=0.05), tracer)
        return tracer.values

    first = counts(9)
    assert counts(9) == first
    assert counts(10) != first
    assert all(v > 0 for v in first["samplers.uniforms_per_trial.uniform_n1000"])


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.finish(inner)
    tracer.finish(outer)
    _, parent, dur, self_time = tracer.durations()
    assert list(parent) == [-1, 0]
    assert self_time[0] == dur[0] - dur[1]
    assert self_time[1] == dur[1]


def test_instrumentation_is_removed_afterwards():
    originals = (samplers.RandomSource, samplers.sample_height_only, experiments.sample_height_only)
    tracer = Tracer()
    tracer.install()
    assert samplers.sample_height_only is not originals[1]
    assert experiments.sample_height_only is samplers.sample_height_only
    tracer.uninstall()
    assert (samplers.RandomSource, samplers.sample_height_only, experiments.sample_height_only) == originals
