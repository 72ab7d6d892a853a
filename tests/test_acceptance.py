"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Every tolerance below is pinned; the Monte Carlo criteria use
fixed seeds, so the whole suite is deterministic.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from rbtrees.analytics import (
    c_star,
    conditional_height_tail_bound,
    enumerate_exact,
    left_profile_tail_bound,
    mu,
    profile_exceedance_thresholds,
    records_mgf,
    root_split_pmf,
)
from rbtrees.cli import main
from rbtrees.experiments import (
    ExperimentConfig,
    run_dominance_check,
    run_height_ratio,
    run_record_concentration,
)
from rbtrees.model import (
    LeftProfile,
    RbParams,
    build_bst,
    height,
    height_via_profile,
    is_valid_bst,
    left_profile,
    record_count_perm,
    record_count_tree,
)
from rbtrees.samplers import (
    RandomSource,
    sample_height_only,
    sample_left_profile_matrix,
    sample_sequential,
    sample_tree_recursive,
)
from rbtrees.experiments import chi_square_gof

from reference import poisson_binomial_pmf

LOG_2E = math.log(2.0 * math.e)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} {detail}".rstrip(), flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_criterion_1_oracle_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 8):
        for theta in (0.5, 1.0, 2.0, 5.0):
            params = RbParams(n, theta)
            laws = enumerate_exact(params)
            assert laws.first_value.support == laws.record.support == tuple(range(1, n + 1))
            for k, p in zip(laws.first_value.support, laws.first_value.probs):
                worst = max(worst, rel_err(p, root_split_pmf(params, k)))
            probs = [theta / (theta + (n - i)) for i in range(1, n + 1)]
            pb = poisson_binomial_pmf(probs)
            for rec, p in zip(laws.record.support, laws.record.probs):
                worst = max(worst, rel_err(p, pb[rec]))
            for t in (-1.0, 0.5, 1.0):
                from_law = math.fsum(
                    p * math.exp(t * rec)
                    for rec, p in zip(laws.record.support, laws.record.probs)
                )
                worst = max(worst, rel_err(from_law, records_mgf(params, t)))
    elapsed = time.perf_counter() - start
    report(
        1,
        "oracle exactness",
        worst < 1e-10 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_sampler_correctness():
    start = time.perf_counter()
    n, trials, significance = 6, 2 * 10**5, 1e-3
    worst_p = 1.0
    for theta in (0.5, 1.0, 2.0):
        params = RbParams(n, theta)
        expected = enumerate_exact(params).height_record_first
        rng = RandomSource(20240, 0)
        seq_counts = Counter()
        for _ in range(trials):
            perm = sample_sequential(params, rng)
            tree = build_bst(perm)
            seq_counts[(height(tree), record_count_perm(perm), perm.values[0])] += 1
        rec_counts = Counter()
        for _ in range(trials):
            tree = sample_tree_recursive(params, rng)
            rec_counts[(height(tree), record_count_tree(tree), tree.labels[tree.root])] += 1
        for counts in (seq_counts, rec_counts):
            worst_p = min(worst_p, chi_square_gof(counts, expected).p_value)
    elapsed = time.perf_counter() - start
    report(
        2,
        "sampler correctness",
        worst_p > significance and elapsed < 60.0,
        f"min chi-square p {worst_p:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_uniform_height_regression():
    start = time.perf_counter()
    config = ExperimentConfig(
        n_values=(10**3, 10**4, 10**5), theta_spec=1.0, trials=10**3, seed=0
    )
    rows = run_height_ratio(config)
    top = rows[-1]
    per_log_n = top.mean_height / math.log(top.n)
    in_log_band = 3.4 <= per_log_n <= 4.6
    in_norm_band = 0.78 <= top.ratio_height_norm <= 1.05
    monotone = True
    for a, b in zip(rows, rows[1:]):
        se_a = a.sd_height / math.sqrt(a.trials) / (c_star() * math.log(a.n))
        se_b = b.sd_height / math.sqrt(b.trials) / (c_star() * math.log(b.n))
        if b.ratio_height_norm < a.ratio_height_norm - (se_a + se_b):
            monotone = False
    elapsed = time.perf_counter() - start
    report(
        3,
        "uniform-case height bands",
        in_log_band and in_norm_band and monotone and elapsed < 300.0,
        f"h/log n={per_log_n:.3f}, h/(c* log n)={top.ratio_height_norm:.3f}, "
        f"ratios={[round(r.ratio_height_norm, 4) for r in rows]}, {elapsed:.1f}s",
    )


def test_criterion_4_diverging_theta_regime():
    start = time.perf_counter()
    config = ExperimentConfig(n_values=(2000,), theta_spec="linear:1", trials=200, seed=0)
    # run_height_ratio hard-asserts height >= records - 1 on every sample
    row = run_height_ratio(config)[0]
    ratio = row.mean_height / mu(2000, 2000.0)
    elapsed = time.perf_counter() - start
    report(
        4,
        "theta_n = n regime",
        0.9 <= ratio <= 1.1 and elapsed < 120.0,
        f"mean h / mu = {ratio:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_record_concentration():
    start = time.perf_counter()
    config = ExperimentConfig(n_values=(10**4,), theta_spec=5.0, trials=10**4, seed=0, epsilon=0.5)
    row = run_record_concentration(config)[0]
    mean_se = row.sd_records / math.sqrt(row.trials)
    mean_ok = abs(row.mean_records - row.mu) <= 3 * mean_se
    elapsed = time.perf_counter() - start
    report(
        5,
        "record concentration",
        row.passed and mean_ok and elapsed < 60.0,
        f"freq {row.freq_beyond:.2e} <= bound {row.bound_total:.2e} + 3se, "
        f"mean {row.mean_records:.2f} vs mu {row.mu:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_stochastic_dominance():
    start = time.perf_counter()
    config = ExperimentConfig(
        n_values=(10**4,), theta_spec=2.0, trials=10**5, seed=0, j_values=range(21)
    )
    rows = run_dominance_check(config)
    all_pass = all(row.passed for row in rows)
    worst = max(row.max_excess for row in rows)
    elapsed = time.perf_counter() - start
    report(
        6,
        "stochastic dominance",
        all_pass and elapsed < 120.0,
        f"max excess {worst:.5f} vs band {2 * rows[0].dkw_band:.5f}, {elapsed:.1f}s",
    )


def test_criterion_7_bounds_dominate_truth():
    start = time.perf_counter()
    # conditional height tail bound vs exact conditional tails on all
    # positive-probability profiles
    cond_ok = True
    for n in range(2, 8):
        for theta in (0.5, 1.0, 2.0, 5.0):
            laws = enumerate_exact(RbParams(n, theta))
            by_profile: dict[tuple, dict[int, float]] = {}
            for (sizes, h), p in zip(laws.profile_height.support, laws.profile_height.probs):
                by_profile.setdefault(sizes, {})[h] = p
            for sizes, height_law in by_profile.items():
                total = math.fsum(height_law.values())
                profile = LeftProfile(sizes)
                for eta in range(0, n + 1):
                    exact_tail = (
                        math.fsum(p for h, p in height_law.items() if h >= eta) / total
                    )
                    for t in (LOG_2E, math.log(c_star())):
                        if conditional_height_tail_bound(profile, eta, t) < exact_tail - 1e-12:
                            cond_ok = False
    # profile tail bound vs empirical event frequency
    n, theta, eps, k = 10**4, 2.0, 0.1, 5
    M = 2.0 * math.log(math.log(n))
    params = RbParams(n, theta)
    bound = left_profile_tail_bound(params, eps, M, k)
    trials = 10**5
    matrix = sample_left_profile_matrix(params, trials, k, RandomSource(0, 0))
    thresholds = np.array(profile_exceedance_thresholds(params, eps, M, k))
    freq = float((matrix > thresholds[None, :]).any(axis=1).mean())
    se = math.sqrt(max(freq, 1.0 / trials) * (1.0 - min(freq, 1.0)) / trials)
    profile_ok = bound >= freq - 3 * se
    elapsed = time.perf_counter() - start
    report(
        7,
        "bounds dominate truth",
        cond_ok and profile_ok and elapsed < 120.0,
        f"conditional ok={cond_ok}, event freq {freq:.2e} vs bound {bound:.2f}, {elapsed:.1f}s",
    )


def _check_tree_invariants(tree, perm=None):
    if not is_valid_bst(tree):
        return False
    if tree.is_empty:
        return True
    h = height(tree)
    prof = left_profile(tree)
    if height_via_profile(tree) != h:
        return False
    if prof.record_count + sum(prof.sizes) != tree.size:
        return False
    if h < prof.record_count - 1:
        return False
    if perm is not None and record_count_perm(perm) != record_count_tree(tree):
        return False
    return True


def test_criterion_8_structural_invariants_bulk():
    start = time.perf_counter()
    thetas = (0.0, 0.5, 1.0, 2.0, 5.0, 50.0)
    small_ns = (0, 1, 2, 3, 5, 8)
    per_cell = 9260
    height_only_plan = ((16, 30000), (64, 20000), (256, 5650))
    checked = 0
    violations = 0
    for theta_index, theta in enumerate(thetas):
        for n in small_ns:
            params = RbParams(n, theta)
            rng = RandomSource(1000 + theta_index, n)
            for _ in range(per_cell):
                perm = sample_sequential(params, rng)
                if not _check_tree_invariants(build_bst(perm), perm):
                    violations += 1
                checked += 1
            for _ in range(per_cell):
                if not _check_tree_invariants(sample_tree_recursive(params, rng)):
                    violations += 1
                checked += 1
        for n, count in height_only_plan:
            params = RbParams(n, theta)
            rng = RandomSource(2000 + theta_index, n)
            for _ in range(count):
                sample = sample_height_only(params, rng)
                ok = (
                    len(sample.sizes) == sample.records
                    and sample.records + sample.sizes.sum() == n
                    and sample.height >= sample.records - 1
                    and (sample.sizes >= 0).all()
                )
                if not ok:
                    violations += 1
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        "structural invariants",
        checked >= 10**6 and violations == 0,
        f"{checked} samples, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    invocations = [
        ["sample", "tree", "--n", "6", "--theta", "1/2", "--trials", "2000", "--seed", "17"],
        ["exact", "split-pmf", "--n", "50", "--theta", "2"],
        [
            "experiment", "height-ratio", "--n-values", "40,80",
            "--theta-spec", "constant:1", "--trials", "50", "--seed", "3",
            "--threads", "2",
        ],
    ]
    identical = True
    for index, argv in enumerate(invocations):
        for fmt in ("csv", "json"):
            a = tmp_path / f"{index}-a.{fmt}"
            b = tmp_path / f"{index}-b.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(a)]) == 0
            assert main(argv + ["--format", fmt, "--out", str(b)]) == 0
            if a.read_bytes() != b.read_bytes():
                identical = False
            if fmt == "json":
                payload = json.loads(a.read_text())
                if "seed" not in payload or "command" not in payload:
                    identical = False
    elapsed = time.perf_counter() - start
    report(9, "CLI determinism", identical, f"{len(invocations)} invocations x2 formats, {elapsed:.1f}s")
