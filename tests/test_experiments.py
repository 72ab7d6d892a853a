"""Experiment drivers: determinism, sanity bands, and the chi-square helper."""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaincc

from rbtrees import experiments, samplers
from rbtrees.analytics import (
    ExactDistribution,
    beta_product_survival,
    enumerate_exact,
    left_profile_tail_bound,
    mu,
    profile_exceedance_thresholds,
)
from rbtrees.experiments import (
    ExperimentConfig,
    chi_square_gof,
    dkw_epsilon,
    height_normalizer,
    resolve_theta,
    run_dominance_check,
    run_height_ratio,
    run_record_concentration,
    summarize,
)
from rbtrees.model import RbParams, build_bst, height, record_count_tree
from rbtrees.samplers import (
    RandomSource,
    sample_height_only,
    sample_left_profile_matrix,
    sample_record_count,
    sample_sequential,
    sample_tree_recursive,
)

from reference import ref_bst, ref_from_arena, ref_shape


class TestThetaSpec:
    def test_plain_values(self):
        assert resolve_theta(2.5, 100) == 2.5
        assert resolve_theta("2.5", 100) == 2.5
        assert resolve_theta("1/2", 100) == 0.5

    def test_tags(self):
        assert resolve_theta("constant:3", 100) == 3.0
        assert resolve_theta("linear:2", 100) == 200.0
        assert resolve_theta("power:0.5", 100) == 10.0

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            resolve_theta("cubic:1", 100)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_values=(), theta_spec=1.0, trials=10)
        with pytest.raises(ValueError):
            ExperimentConfig(n_values=(10, 10), theta_spec=1.0, trials=10)
        with pytest.raises(ValueError):
            ExperimentConfig(n_values=(20, 10), theta_spec=1.0, trials=10)
        with pytest.raises(ValueError):
            ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=0)

    def test_rejects_trials_past_the_stream_index(self):
        # a trial takes the low 32 bits of its stream index; 2**32 trials would collide
        # with the first trials of the next n
        assert ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=2**32 - 1).trials == 2**32 - 1
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=2**32)

    @pytest.mark.parametrize("n_values", (5, "10", (10, 2.5), None, (0,), (-3, 10)))
    def test_rejects_non_integer_n_values(self, n_values):
        with pytest.raises(ValueError, match="n_values"):
            ExperimentConfig(n_values=n_values, theta_spec=1.0, trials=10)

    @pytest.mark.parametrize("trials", (2.5, 10.0, "10", True, None))
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=trials)

    def test_thetas(self):
        config = ExperimentConfig(n_values=(10, 100), theta_spec="linear:1", trials=1)
        assert config.thetas == (10.0, 100.0)
        with pytest.raises(TypeError):  # derived from theta_spec, never passed in
            ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=1, thetas=(2.0,))

    @pytest.mark.parametrize("theta_spec", (True, [1], None))
    def test_rejects_theta_spec_of_another_type(self, theta_spec):
        with pytest.raises(ValueError, match="theta_spec"):
            ExperimentConfig(n_values=(10,), theta_spec=theta_spec, trials=1)

    @pytest.mark.parametrize("seed", (-1, 2**64, True, 1.5))
    def test_rejects_seed_outside_u64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=1, seed=seed)

    def test_rejects_a_negative_theta_naming_spec_and_n(self):
        with pytest.raises(ValueError, match=r"'linear:-1' at n = 10: theta must be finite"):
            ExperimentConfig(n_values=(10,), theta_spec="linear:-1", trials=1)

    @pytest.mark.parametrize(
        "field,value",
        (
            *(("epsilon", v) for v in (0, -1, math.nan, math.inf, "0.5", True, [0.5])),
            *(("j_values", v) for v in ([], [1.9], [-0.5], [True], 3, [-1])),
        ),
    )
    def test_rejects_bad_epsilon_and_j_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=1, **{field: value})

    @pytest.mark.parametrize("field", ("epsilon", "theta_spec"))
    def test_rejects_integers_past_the_float_range(self, field):
        settings = {"n_values": (10,), "theta_spec": 1.0, "trials": 1, field: 10**400}
        with pytest.raises(ValueError, match=f"^{field} is too large for a float$"):
            ExperimentConfig(**settings)

    def test_epsilon_and_j_values(self):
        config = ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=1)
        assert (config.epsilon, config.j_values) == (None, None)
        # j_values keeps the given order and repeats: the artifact's params echo them
        config = ExperimentConfig(
            n_values=(10,), theta_spec=1.0, trials=1, epsilon=1,
            j_values=iter([4, np.int64(0), 2, 2]),
        )
        assert config.epsilon == 1.0 and type(config.epsilon) is float
        assert config.j_values == (4, 0, 2, 2) and all(type(j) is int for j in config.j_values)

    def test_resolves_every_n_at_construction(self):
        # power:-70 is a positive theta at n = 10 and 1000 but underflows to 0 at n = 100000
        with pytest.raises(ValueError, match=r"'power:-70' underflows to 0 at n = 100000"):
            ExperimentConfig(n_values=(10, 1000, 100000), theta_spec="power:-70", trials=20000)


class TestChiSquare:
    def test_worked_example(self):
        expected = ExactDistribution(support=(0, 1), probs=(0.5, 0.5))
        result = chi_square_gof({0: 60, 1: 40}, expected)
        assert result.statistic == pytest.approx(4.0, abs=1e-12)
        assert result.dof == 1
        assert result.p_value == pytest.approx(0.0455, abs=1e-3)

    def test_exact_match_gives_p_one(self):
        expected = ExactDistribution(support=(0, 1, 2), probs=(0.25, 0.5, 0.25))
        result = chi_square_gof({0: 25, 1: 50, 2: 25}, expected)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    @pytest.mark.parametrize("parity", ("even", "odd"))
    def test_p_value_matches_gammaincc(self, parity):
        # scipy's regularized upper incomplete gamma Q(dof/2, stat/2) is the independent
        # reference, from a statistic of 0 (an exact match, p = 1) and far below dof to one
        # several times above it
        rng = np.random.default_rng(29)
        checked = 0
        for dof in range(2 if parity == "even" else 1, 201, 2):
            cells = dof + 1
            expected = ExactDistribution(support=tuple(range(cells)), probs=(1.0 / cells,) * cells)
            for spread in (0, 1, 2, 5, 8, 12, 19):
                counts = 20 + rng.integers(-spread, spread + 1, size=cells)
                result = chi_square_gof(dict(enumerate(counts.tolist())), expected)
                assert result.dof == dof
                assert result.p_value == 1.0 or spread > 0
                reference = float(gammaincc(dof / 2.0, result.statistic / 2.0))
                assert abs(result.p_value - reference) <= 1e-12
                checked += reference > 1e-6
        assert checked > 300

    def test_pooling_small_cells(self):
        expected = ExactDistribution(support=(0, 1, 2), probs=(0.02, 0.49, 0.49))
        result = chi_square_gof({0: 2, 1: 49, 2: 49}, expected)
        assert result.cells == 2
        assert result.dof == 1

    def test_degenerate_single_cell(self):
        expected = ExactDistribution(support=(0, 1), probs=(0.98, 0.02))
        with pytest.raises(ValueError):
            chi_square_gof({0: 5, 1: 0}, expected)

    def test_empty_support(self):
        expected = ExactDistribution(support=(), probs=())
        with pytest.raises(ValueError):
            chi_square_gof({}, expected)

    def test_unknown_outcome(self):
        expected = ExactDistribution(support=(0, 1), probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            chi_square_gof({2: 10}, expected)


def test_dkw_band_formula():
    assert dkw_epsilon(10**5) == pytest.approx(
        math.sqrt(math.log(2000.0) / (2 * 10**5)), rel=1e-12
    )


def test_height_normalizer():
    from rbtrees.analytics import c_star

    assert height_normalizer(1, 2.0) == pytest.approx(mu(1, 2.0))
    n = 10**5
    assert height_normalizer(n, 1.0) == pytest.approx(c_star() * math.log(n))
    assert height_normalizer(2000, 2000.0) == pytest.approx(mu(2000, 2000.0))


class TestHeightRatio:
    def test_deterministic(self):
        config = ExperimentConfig(n_values=(50, 120), theta_spec=2.0, trials=200, seed=9)
        assert run_height_ratio(config) == run_height_ratio(config)

    @pytest.mark.parametrize("method", ("recursive", "sequential"))
    def test_height_below_records_fails(self, monkeypatch, method):
        monkeypatch.setattr(
            experiments, f"_{method}_heights", lambda params, rng, count: [(0, 5)] * count
        )
        config = ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=3, seed=0)
        with pytest.raises(AssertionError, match=r"n=10, theta=1\.0, trial=0"):
            run_height_ratio(config, method=method)

    def test_sequential_matches_sequential_trees(self):
        # the sequential method summarizes BSTs built from sample_sequential, in blocks of
        # 256 trials, block b drawn one tree after another from stream b
        config = ExperimentConfig(n_values=(30,), theta_spec=2.0, trials=260, seed=6)
        streams = [RandomSource(6, 0)] * 256 + [RandomSource(6, 1)] * 4
        trees = [build_bst(sample_sequential(RbParams(30, 2.0), rng)) for rng in streams]
        row = summarize(30, 2.0, [height(t) for t in trees], [record_count_tree(t) for t in trees], 6)
        assert run_height_ratio(config, method="sequential") == [row]

    def test_rejects_unknown_method(self):
        config = ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=3, seed=0)
        with pytest.raises(ValueError, match="method.*'bogus'"):
            run_height_ratio(config, method="bogus")

    def test_progress_and_method_are_keyword_only(self):
        config = ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=3, seed=0)
        with pytest.raises(TypeError):
            run_height_ratio(config, 2)

    def test_mean_height_monotone_in_n(self):
        config = ExperimentConfig(n_values=(50, 100, 200, 400), theta_spec=1.0, trials=400, seed=1)
        rows = run_height_ratio(config)
        for a, b in zip(rows, rows[1:]):
            slack = a.sd_height / math.sqrt(a.trials) + b.sd_height / math.sqrt(b.trials)
            assert b.mean_height >= a.mean_height - slack

    def test_summary_fields(self):
        config = ExperimentConfig(n_values=(30,), theta_spec="1/2", trials=50, seed=2)
        row = run_height_ratio(config)[0]
        assert row.n == 30
        assert row.theta == 0.5
        assert row.trials == 50
        assert row.sd_height >= 0.0
        assert row.sd_records >= 0.0
        assert math.isfinite(row.ratio_height_norm)
        assert math.isfinite(row.ratio_records_mu)
        assert row.seed == 2

    def test_single_trial_has_zero_sd(self):
        config = ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=1, seed=0)
        row = run_height_ratio(config)[0]
        assert row.sd_height == 0.0

    def test_degenerate_single_node_row(self):
        # n=1: the normalizer is mu(1, theta) = 1, the height is 0
        config = ExperimentConfig(n_values=(1,), theta_spec=2.0, trials=20, seed=0)
        row = run_height_ratio(config)[0]
        assert row.mean_height == 0.0
        assert row.ratio_height_norm == 0.0
        assert row.mean_records == 1.0


class TestSummarize:
    def test_worked_example(self):
        row = summarize(10, 1.0, [1, 2, 3], [1, 1, 4], seed=7)
        assert (row.n, row.theta, row.trials, row.seed) == (10, 1.0, 3, 7)
        assert (row.mean_height, row.sd_height) == (2.0, 1.0)
        assert (row.mean_records, row.sd_records) == (2.0, math.sqrt(3.0))
        assert row.ratio_height_norm == 2.0 / height_normalizer(10, 1.0)
        assert row.ratio_records_mu == 2.0 / mu(10, 1.0)

    def test_matches_run_height_ratio(self):
        # block b of the i-th n is one sample_height_only call on stream (i << 32) | b; a
        # block holds 256 trials, or 2**19 // ceil(mu + n / 1024) where that is fewer: 23 at
        # n = 2**15, theta = n, where mu is about 22713
        layouts = {
            3.0: {40: (256, 4), 2**15: (256, 4)},
            "linear:1": {40: (256, 4), 2**15: (23,) * 11 + (7,)},
        }
        for spec, blocks in layouts.items():
            config = ExperimentConfig(n_values=(40, 2**15), theta_spec=spec, trials=260, seed=5)
            rows = []
            for i, (n, theta) in enumerate(zip(config.n_values, config.thetas)):
                params = RbParams(n, theta)
                samples = [
                    sample
                    for b, count in enumerate(blocks[n])
                    for sample in sample_height_only(params, RandomSource(5, (i << 32) | b), count)
                ]
                heights, records = [s.height for s in samples], [s.records for s in samples]
                rows.append(summarize(n, theta, heights, records, 5))
            assert run_height_ratio(config) == rows, spec


class TestBlockTrials:
    @pytest.mark.parametrize("theta", (0.0, 1.0))
    def test_constant_theta_fills_blocks(self, theta):
        # up to n = 10**6; at 10**7 a tree holds about 9766 frontier nodes, and 53 trees fill
        # the node budget
        for n in (1, 2, 1000, 2**15, 10**5, 10**6):
            assert experiments._block_trials(n, theta) == 256
        assert experiments._block_trials(10**7, theta) == 53

    def test_block_holds_at_most_2_to_the_19_nodes(self):
        # a tree holds about mu(n, theta) spine records and n / 1024 frontier nodes; a block
        # of one tree is the least, however many that tree holds
        for n in (1, 1000, 2**15, 10**5, 10**6, 10**7):
            for spec in (0.0, 1.0, 316.0, "power:0.5", "linear:0.1", "linear:1", "linear:3"):
                theta = resolve_theta(spec, n)
                count = experiments._block_trials(n, theta)
                held = mu(n, theta) + n / samplers._EXACT_MAX
                assert 1 <= count <= 256, (n, spec)
                assert count == 1 or count * held <= 2**19, (n, spec)
                assert count == 256 or (count + 1) * math.ceil(held) > 2**19, (n, spec)
        assert experiments._block_trials(2**15, 2.0**15) == 23
        assert experiments._block_trials(10**5, 1e5) == 7
        assert experiments._block_trials(10**6, 1e6) == 1


class TestRecordConcentration:
    def test_bound_holds_at_moderate_scale(self):
        config = ExperimentConfig(n_values=(500,), theta_spec=2.0, trials=2000, seed=3, epsilon=0.5)
        row = run_record_concentration(config)[0]
        assert row.passed
        assert row.freq_beyond <= row.bound_total + 3 * row.binom_se
        assert row.mu == pytest.approx(mu(500, 2.0))

    def test_huge_epsilon_gives_zero_frequency(self):
        config = ExperimentConfig(n_values=(100,), theta_spec=1.0, trials=500, seed=5, epsilon=50.0)
        row = run_record_concentration(config)[0]
        assert row.freq_beyond == 0.0
        assert row.passed

    def test_small_n_cross_check_against_oracle(self):
        # empirical deviation frequency vs the exact enumerated probability
        n, theta, eps, trials = 7, 2.0, 0.4, 20000
        config = ExperimentConfig(
            n_values=(n,), theta_spec=theta, trials=trials, seed=8, epsilon=eps
        )
        row = run_record_concentration(config)[0]
        law = enumerate_exact(RbParams(n, theta)).record
        m = mu(n, theta)
        exact = math.fsum(
            p for rec, p in zip(law.support, law.probs) if abs(rec / m - 1.0) > eps
        )
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(row.freq_beyond - exact) <= 4 * se

    def test_counts_come_in_blocks_like_heights(self):
        config = ExperimentConfig(n_values=(100,), theta_spec=2.0, trials=260, seed=4, epsilon=0.5)
        params = RbParams(100, 2.0)
        counts = sample_record_count(params, RandomSource(4, 0), 256)
        counts += sample_record_count(params, RandomSource(4, 1), 4)
        row = run_record_concentration(config)[0]
        assert (row.mean_records, row.sd_records) == experiments._mean_sd(np.array(counts))

    def test_rejects_bad_epsilon(self):
        config = ExperimentConfig(n_values=(10,), theta_spec=1.0, trials=10, seed=0)
        with pytest.raises(ValueError, match="epsilon"):
            run_record_concentration(config)
        with pytest.raises(ValueError, match="epsilon"):
            dataclasses.replace(config, epsilon=0.0)


class TestDominance:
    def test_no_violations_moderate_scale(self):
        config = ExperimentConfig(
            n_values=(300,), theta_spec=2.0, trials=20000, seed=6, j_values=range(6)
        )
        rows = run_dominance_check(config)
        assert all(row.passed for row in rows)
        assert [row.j for row in rows] == list(range(6))

    def test_j_zero_trivial(self):
        config = ExperimentConfig(
            n_values=(100,), theta_spec=1.0, trials=5000, seed=1, j_values=[0]
        )
        row = run_dominance_check(config)[0]
        # k_0 <= n-1 < n while the dominating variable is the constant n
        assert row.max_excess <= 0.0
        assert row.passed

    def test_deterministic(self):
        config = ExperimentConfig(
            n_values=(200,), theta_spec=1.5, trials=3000, seed=12, j_values=[0, 2, 4]
        )
        assert run_dominance_check(config) == run_dominance_check(config)

    def test_rows_n_by_n_in_j_order(self):
        config = ExperimentConfig(
            n_values=(100, 1000), theta_spec=2.0, trials=2000, seed=3, j_values=[4, 0, 2]
        )
        rows = run_dominance_check(config)
        assert [(row.n, row.j) for row in rows] == [
            (100, 0), (100, 2), (100, 4), (1000, 0), (1000, 2), (1000, 4)
        ]
        assert all(row.grid_size == experiments.DOMINANCE_GRID_SIZE for row in rows)

    def test_first_n_matches_a_one_n_run(self):
        config = ExperimentConfig(
            n_values=(100, 1000), theta_spec=2.0, trials=2000, seed=3, j_values=[0, 2, 4]
        )
        single = dataclasses.replace(config, n_values=(100,))
        assert run_dominance_check(config)[:3] == run_dominance_check(single)

    def test_max_excess_matches_direct_count(self):
        # the survival read from sorted columns against counting entries above each threshold
        # of the grid's points below c = 1
        config = ExperimentConfig(
            n_values=(50,), theta_spec=0.7, trials=3000, seed=2, j_values=[0, 1, 3]
        )
        profile = sample_left_profile_matrix(RbParams(50, 0.7), 3000, 3, RandomSource(2, 0))
        cs = np.logspace(-6.0, 0.0, experiments.DOMINANCE_GRID_SIZE)[:-1]
        for row in run_dominance_check(config):
            thresholds = row.j + 50 * cs
            empirical = (profile[:, row.j][None, :] > thresholds[:, None]).mean(axis=1)
            dominating = [beta_product_survival(0.7, row.j, c) for c in cs]
            assert row.max_excess == float(np.max(empirical - dominating))

    def test_max_excess_reads_the_draws(self):
        # at c = 1 both survivals are 0, so a grid that kept it would read 0.0 for every
        # sample under the bound, whatever was drawn. From j = 2 on, 200 trees at n = 100 put
        # no entry above the grid's last threshold below 1, where the largest excess then
        # falls, so it is the bound's alone there
        first, second = (
            run_dominance_check(
                ExperimentConfig(
                    n_values=(100,), theta_spec=2.0, trials=200, seed=seed, j_values=[0, 1]
                )
            )
            for seed in (0, 1)
        )
        for a, b in zip(first, second):
            assert a.max_excess < 0.0 and b.max_excess < 0.0
            assert a.max_excess != b.max_excess

    def test_default_j_values(self):
        config = ExperimentConfig(n_values=(100,), theta_spec=2.0, trials=200, seed=3)
        rows = run_dominance_check(config)
        assert rows == run_dominance_check(dataclasses.replace(config, j_values=range(21)))
        assert [row.j for row in rows] == list(range(21))

    def test_requires_positive_theta(self, monkeypatch):
        # checked at every n before the first stream is built
        monkeypatch.setattr(experiments, "RandomSource", None)
        for n_values in ((10,), (100, 1000)):
            config = ExperimentConfig(n_values=n_values, theta_spec=0.0, trials=10, seed=0)
            with pytest.raises(ValueError, match="theta must be positive"):
                run_dominance_check(config)



def test_bounds_audit_of_one_instance():
    # record concentration, profile dominance and the left-profile exceedance bound all hold
    # on fresh draws at one small (n, theta)
    n, theta, trials, k = 100, 2.0, 200, 2
    config = ExperimentConfig(
        n_values=(n,), theta_spec=theta, trials=trials, seed=0, epsilon=0.5, j_values=range(4)
    )
    assert run_record_concentration(config)[0].passed
    assert all(row.passed for row in run_dominance_check(config))
    params = RbParams(n, theta)
    M = 2.0 * math.log(math.log(n))
    bound = left_profile_tail_bound(params, 0.1, M, k)
    thresholds = np.array(profile_exceedance_thresholds(params, 0.1, M, k))
    matrix = sample_left_profile_matrix(params, trials, k, RandomSource(0, 1))
    freq = float((matrix > thresholds[None, :]).any(axis=1).mean())
    # a binomial standard error that stays positive at freq = 0, as in the acceptance check
    se = math.sqrt(max(freq, 1.0 / trials) * (1.0 - min(freq, 1.0)) / trials)
    assert bound >= freq - 3.0 * se

class TestUniformShapeLaw:
    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_theta_one_tree_shapes(self, n):
        # expected shape law by direct enumeration of uniform permutations
        shape_weights: dict = {}
        total = math.factorial(n)
        for values in itertools.permutations(range(1, n + 1)):
            key = ref_shape(ref_bst(values))
            shape_weights[key] = shape_weights.get(key, 0.0) + 1.0 / total
        expected = ExactDistribution.from_weights(shape_weights)
        params = RbParams(n, 1.0)
        rng = RandomSource(444, 0)
        trials = 20000
        counts = Counter(
            ref_shape(ref_from_arena(sample_tree_recursive(params, rng))) for _ in range(trials)
        )
        assert chi_square_gof(counts, expected).p_value > 1e-3
