"""Sampler laws against the enumeration oracle and analytic survivals."""

import bisect
import hashlib
import itertools
import math
import platform
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

import rbtrees.samplers as samplers
from rbtrees.analytics import (
    ExactDistribution,
    enumerate_exact,
    left_root_tail,
    mu,
    root_split_distribution,
    split_survival_table,
    uniform_height_table,
)
from rbtrees.experiments import chi_square_gof, dkw_epsilon, resolve_theta
from rbtrees.model import (
    Permutation,
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
    HeightSample,
    RandomSource,
    sample_height_only,
    sample_left_profile_matrix,
    sample_record_count,
    sample_sequential,
    sample_tree_recursive,
)

from reference import (
    poisson_binomial_pmf,
    ref_enumerate_weighted,
    ref_from_arena,
    ref_height,
    ref_log_survival_prefixes,
    ref_near_record_keys,
    ref_spine_join,
    ref_spine_sizes,
    ref_uniform_height_cdf,
)

ALPHA = 1e-3
# trials per sample_height_only call on the block path of the law tests
BLOCK = 64


class TestRandomSource:
    def test_reproducible(self):
        a = RandomSource(42, 3)
        b = RandomSource(42, 3)
        assert a.randoms(20).tolist() == b.randoms(20).tolist()
        assert np.array_equal(a.randoms(1000), b.randoms(1000))
        lam = np.array([0.0, 0.5, 3.0, 200.0])
        assert np.array_equal(a.poisson(lam, (3, 4)), b.poisson(lam, (3, 4)))
        assert a.randoms(1).tolist() == b.randoms(1).tolist()

    def test_streams_differ(self):
        a = RandomSource(42, 0)
        b = RandomSource(42, 1)
        assert a.randoms(8).tolist() != b.randoms(8).tolist()

    @pytest.mark.parametrize(
        "a,b",
        (
            ((0, 0), (1, 1)),
            ((0, 5), (5, 0)),
            ((7, 1), (7 ^ (1 << 20), 1 ^ (1 << 20))),
            ((1 << 32, 3), (0, 1 + (3 << 32))),
        ),
        ids=("xor-equal", "swapped", "low-bits", "word-carry"),
    )
    def test_distinct_pairs_give_distinct_streams(self, a, b):
        # a key mixed from seed ^ stream_index, or from [seed, stream_index] as integers of
        # any width, sends at least one of these pairs to the same stream
        assert RandomSource(*a).randoms(8).tolist() != RandomSource(*b).randoms(8).tolist()

    def test_mixed_draw_patterns_consistent(self):
        a = RandomSource(1, 1)
        b = RandomSource(1, 1)
        got_a = [*a.randoms(1).tolist(), *a.randoms(5000).tolist(), *a.randoms(1).tolist()]
        assert got_a == b.randoms(5002).tolist()

    @pytest.mark.parametrize("a,b", ((0, 7), (1, 4095), (4095, 1), (4096, 5000)))
    def test_split_draws_equal_one_draw(self, a, b):
        split, one = RandomSource(3, 8), RandomSource(3, 8)
        got = [*split.randoms(a).tolist(), *split.randoms(b).tolist()]
        assert got == one.randoms(a + b).tolist()
        assert split.randoms(1).tolist() == one.randoms(1).tolist()

    @pytest.mark.parametrize("count", (1, 4095, 4096, 10000, 3 * 4096 + 100))
    def test_block_draw_equals_scalar_draws(self, count):
        # a vector of `count` uniforms equals `count` draws of one each
        a, b = RandomSource(3, 8), RandomSource(3, 8)
        assert a.randoms(1).tolist() == b.randoms(1).tolist()
        assert a.randoms(count).tolist() == [b.randoms(1)[0] for _ in range(count)]
        assert a.randoms(1).tolist() == b.randoms(1).tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(1 << 64)
        with pytest.raises(ValueError):
            RandomSource(0, -2)


class ScriptedSource:
    """Serves ``randoms(count)`` from a fixed variate sequence; raises when it runs dry."""

    def __init__(self, values):
        self._values = list(values)

    def randoms(self, count):
        if count > len(self._values):
            raise IndexError("the script ran dry")
        out, self._values = self._values[:count], self._values[count:]
        return np.array(out)


class TestSequentialStepLaw:
    def test_min_taken_iff_variate_below_threshold(self):
        # n=3, theta=1: step thresholds are 1/3, 1/2, then forced; the feed holds one
        # (u, v) pair per step, and v is read only when u does not take the leftmost
        params = RbParams(3, 1.0)
        # step1: u < 1/3 takes the leftmost open position
        perm = sample_sequential(params, ScriptedSource([0.32, 0.99, 0.51, 0.0, 0.99, 0.99]))
        # value 1 -> position 1; value 2: u=0.51 >= 1/2 so the single
        # non-min position 3; value 3 forced into position 2
        assert perm.values == (1, 3, 2)

    def test_boundary_is_strict(self):
        params = RbParams(3, 1.0)
        # u exactly at the threshold must NOT select the min
        perm = sample_sequential(params, ScriptedSource([1 / 3, 0.0, 0.49, 0.99, 0.9, 0.99]))
        # step1: 1/3 not < 1/3 -> other slot from [2, 3] with v=0 -> position 2
        # step2: 0.49 < 1/2 -> min position 1; step3 forced -> position 3
        assert perm.values == (2, 1, 3)

    def test_variate_budget(self):
        # exactly 2n variates are drawn, whichever of them the steps read
        params = RbParams(4, 2.0)
        feed = [0.9, 0.0] * 5
        src = ScriptedSource(feed)
        sample_sequential(params, src)
        assert len(feed) - len(src._values) == 8


class TestSequential:
    def test_empty(self):
        assert sample_sequential(RbParams(0, 1.0), RandomSource(0)).values == ()

    def test_theta_zero_single_record(self):
        for n in (1, 2, 5, 40, 300, 60_000):
            perm = sample_sequential(RbParams(n, 0.0), RandomSource(3, n))
            assert perm.values[0] == n
            assert record_count_perm(perm) == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 6, 33, 1000])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 5.0, "n"])
    def test_values_are_exact_ints_of_a_permutation(self, n, theta):
        # sample_sequential skips the Permutation constructor's check, so its values must be
        # what that check would pass, and compare and hash as the checked object does
        theta = float(n) if theta == "n" else theta
        for stream in range(5):
            perm = sample_sequential(RbParams(n, theta), RandomSource(37, stream))
            assert type(perm.values) is tuple
            assert all(type(v) is int for v in perm.values)
            assert sorted(perm.values) == list(range(1, n + 1))
            checked = Permutation(perm.values)
            assert perm == checked and hash(perm) == hash(checked)

    def test_valid_and_seeded(self):
        perm1 = sample_sequential(RbParams(500, 2.0), RandomSource(11, 4))
        perm2 = sample_sequential(RbParams(500, 2.0), RandomSource(11, 4))
        assert perm1.values == perm2.values
        assert perm1.n == 500

    def test_s2_frequency(self):
        params = RbParams(2, 2.0)
        rng = RandomSource(7, 0)
        trials = 10**5
        hits = sum(sample_sequential(params, rng).values == (1, 2) for _ in range(trials))
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * se

    def test_left_size_law(self):
        params = RbParams(300, 2.0)
        rng = RandomSource(5, 0)
        trials = 4000
        firsts = np.array(
            [sample_sequential(params, rng).values[0] for _ in range(trials)]
        )
        band = dkw_epsilon(trials)
        for k in (1, 30, 100, 200, 299):
            emp = float((firsts - 1 >= k).mean())
            assert abs(emp - left_root_tail(params, k)) <= 2 * band

    @pytest.mark.parametrize("theta", (0.5, 3.0))
    def test_s5_law(self, theta):
        n, trials = 5, 10**5
        expected = ExactDistribution.from_weights(ref_enumerate_weighted(n, theta))
        rng = RandomSource(31, 0)
        counts = Counter(sample_sequential(RbParams(n, theta), rng).values for _ in range(trials))
        assert chi_square_gof(counts, expected).p_value > ALPHA

    def test_s5_law_theta_zero(self):
        # sigma(1) = n, and the other values fill the open positions uniformly
        n, trials = 5, 10**5
        expected = ExactDistribution.from_weights(
            {(n, *p): 1.0 for p in itertools.permutations(range(1, n))}
        )
        rng = RandomSource(31, 1)
        counts = Counter(sample_sequential(RbParams(n, 0.0), rng).values for _ in range(trials))
        assert chi_square_gof(counts, expected).p_value > ALPHA


def _height_samples(params, rng, trials, block=None):
    """``trials`` height samples from one stream, one call each or ``block`` per call."""
    if block is None:
        return [sample_height_only(params, rng) for _ in range(trials)]
    return [
        sample
        for lo in range(0, trials, block)
        for sample in sample_height_only(params, rng, min(block, trials - lo))
    ]


def _split_law(m, theta):
    return ExactDistribution(range(m), root_split_distribution(RbParams(m, theta)))


def _split_path(path, monkeypatch):
    # the profile matrix inverts a table up to samplers._SPLIT_TABLE_MAX nodes and thins past it
    if path == "thinned":
        monkeypatch.setattr(samplers, "_SPLIT_TABLE_MAX", 0)


class TestSplitLaw:
    # the profile matrix's inverted split survival against the exact root split law
    @pytest.mark.parametrize("theta", (0.5, 3.0))
    def test_scalar_draw(self, theta):
        m, trials = 200, 50000
        matrix = sample_left_profile_matrix(RbParams(m, theta), trials, 0, RandomSource(21, 0))
        counts = Counter(matrix[:, 0].tolist())
        assert chi_square_gof(counts, _split_law(m, theta)).p_value > ALPHA

    @pytest.mark.parametrize("theta", (0.01, 1.0, 1e6))
    def test_profile_matrix_first_column(self, theta):
        n, trials = 1000, 10**5
        matrix = sample_left_profile_matrix(RbParams(n, theta), trials, 0, RandomSource(22, 0))
        counts = Counter(matrix[:, 0].tolist())
        assert chi_square_gof(counts, _split_law(n, theta)).p_value > ALPHA

    def test_scalar_draw_at_a_million_nodes(self):
        params, trials = RbParams(10**6, 1.0), 20000
        sizes = sample_left_profile_matrix(params, trials, 0, RandomSource(23, 0))[:, 0]
        band = dkw_epsilon(trials)
        for k in (1, 10, 1000, 10**5, 5 * 10**5, 9 * 10**5, 999_999):
            assert abs(float((sizes >= k).mean()) - left_root_tail(params, k)) <= band

    @pytest.mark.parametrize("theta", (0.3, 2.0, 50.0))
    def test_thinned_draw_past_the_table_cap(self, theta):
        # past samplers._SPLIT_TABLE_MAX nodes the splits are thinned, with no table
        n, trials = samplers._SPLIT_TABLE_MAX + 51_424, 20000
        params = RbParams(n, theta)
        sizes = sample_left_profile_matrix(params, trials, 0, RandomSource(24, 0))[:, 0]
        band = dkw_epsilon(trials)
        for k in (1, 10, 1000, 10**5, 5 * 10**5, 10**6, n - 1):
            assert abs(float((sizes >= k).mean()) - left_root_tail(params, k)) <= band


def _hrf_key_from_perm(perm):
    tree = build_bst(perm)
    return (height(tree), record_count_perm(perm), perm.values[0])


def _hrf_key_from_tree(tree):
    return (height(tree), record_count_tree(tree), tree.labels[tree.root])


class TestRecursiveSampler:
    def test_single_node(self):
        tree = sample_tree_recursive(RbParams(1, 2.0), RandomSource(0))
        assert tree.size == 1
        assert height(tree) == 0

    def test_empty(self):
        assert sample_tree_recursive(RbParams(0, 1.0), RandomSource(0)).is_empty

    def test_validity_across_regimes(self):
        for theta in (0.0, 0.3, 1.0, 7.0):
            for n in (2, 17, 150):
                tree = sample_tree_recursive(RbParams(n, theta), RandomSource(2, n))
                assert is_valid_bst(tree)

    def test_theta_zero_structure(self):
        tree = sample_tree_recursive(RbParams(9, 0.0), RandomSource(1))
        assert record_count_tree(tree) == 1
        assert tree.labels[tree.root] == 9

    def test_height_matches_reference(self):
        # nodes are numbered path first, not in insertion order, so the breadth-first walk
        # meets a level's nodes out of index order
        rng = RandomSource(37, 1)
        for t in range(2000):
            n, theta = 1 + t % 80, (0.0, 0.5, 1.0, 5.0)[t // 80 % 4]
            tree = sample_tree_recursive(RbParams(n, theta), rng)
            expected = ref_height(ref_from_arena(tree))
            assert height(tree) == height_via_profile(tree) == expected, tree

    @pytest.mark.parametrize(
        "n,spec",
        [
            pytest.param(n, spec, id=f"{spec}-{n}")
            for n in (1, 6, 32, 33, 1000, 1024, 1025, 2000, 20000)
            for spec in (0.0, 1e-3, 0.5, 2.0, 5.5, 316.0, "linear:1", "linear:3")
        ],
    )
    def test_spine_equals_spine_profile(self, n, spec):
        # the tree draws its rightmost path first, through _record_keys or, for a tiny tree,
        # through a loop that makes the same draws, so the sizes agree byte for byte
        theta = resolve_theta(spec, n)
        for stream in range(3):
            tree = sample_tree_recursive(RbParams(n, theta), RandomSource(8, stream))
            spine = sample_height_only(RbParams(n, theta), RandomSource(8, stream)).sizes
            assert left_profile(tree).sizes == tuple(spine.tolist())

    @pytest.mark.parametrize("spec", (0.5, 2.0, "linear:1"))
    def test_spine_records_match_record_keys(self, spec):
        # the trees' record counts, past _record_keys's near steps, against the exact
        # Poisson-binomial law of records: step k before the last is one with chance
        # theta / (theta + k), independently
        n, tree_trials = 2000, 600
        theta = resolve_theta(spec, n)
        tree_rng = RandomSource(8, 0)
        counts = Counter(
            record_count_tree(sample_tree_recursive(RbParams(n, theta), tree_rng))
            for _ in range(tree_trials)
        )
        expected = _poisson_binomial(theta / (theta + np.arange(n, dtype=float)))
        assert chi_square_gof(counts, expected).p_value > ALPHA

    @pytest.mark.parametrize("theta", (0.5, 5.0))
    def test_joint_law_matches_enumeration(self, theta):
        n, trials = 7, 30000
        expected = enumerate_exact(RbParams(n, theta)).height_record_first
        rng = RandomSource(2024, 0)
        counts = Counter(
            _hrf_key_from_tree(sample_tree_recursive(RbParams(n, theta), rng))
            for _ in range(trials)
        )
        result = chi_square_gof(counts, expected)
        assert result.p_value > ALPHA


class TestSmallSamplerBytes:
    # (n, theta) -> ((trees, next), (perms, next)): sha256 prefixes of 50 draws' lines from
    # RandomSource(65, n), a tree's "labels left right root" or a permutation's values, and of
    # the 4 uniforms after them. n = 32 and 33 sit on either side of _TINY_TREE
    PINS = {
        (1, 0.0): (("f311f7ac2676dbad73b1", "a457398beb2b26e71fac"),
                   ("0847465c6e6371902d8d", "0e01eaef46e123a5b28d")),
        (1, 0.5): (("f311f7ac2676dbad73b1", "a1ce30936b9175dbad09"),
                   ("0847465c6e6371902d8d", "0e01eaef46e123a5b28d")),
        (1, 5.0): (("f311f7ac2676dbad73b1", "a1ce30936b9175dbad09"),
                   ("0847465c6e6371902d8d", "0e01eaef46e123a5b28d")),
        (6, 0.0): (("fdd73c4bd4ac1cab7ab7", "b8193e6fa2a302059ca1"),
                   ("ec3734682bc41730e09b", "30340bb6407636d2a6bd")),
        (6, 0.5): (("fd2f85f2d902c72d22cb", "b219b8b243923b746f44"),
                   ("c74b6243721d9c6b4297", "30340bb6407636d2a6bd")),
        (6, 5.0): (("1ccfc25a79ac3ce0b576", "a0dfacdbd098e98c34b6"),
                   ("d2fcf4d96e7458923656", "30340bb6407636d2a6bd")),
        (32, 0.0): (("e219f507e6e852f2351c", "7dc99d2951b88795c178"),
                    ("eb7c13fe95d2c74945d6", "6348c26d121871dc528c")),
        (32, 0.5): (("a074f7059acc3271dec3", "7549de4c325c5047bff6"),
                    ("34bd8d6e1a27713550ca", "6348c26d121871dc528c")),
        (32, 5.0): (("6eb9dd78c731351b7e44", "f0b997896184a420f276"),
                    ("d7fae1fcdaf03429714b", "6348c26d121871dc528c")),
        (33, 0.0): (("caf67e92b3c1adcb86d9", "ea3a75327fb9c675ab7b"),
                    ("3dd7e894a689a2afdca5", "216b7fdc2de358bf4b10")),
        (33, 0.5): (("ea846343a4087c967f6c", "e7a9debc3bf6e7875440"),
                    ("47f91d81c3ca7f60be3f", "216b7fdc2de358bf4b10")),
        (33, 5.0): (("4bf50a741dc21d6c93c3", "1273dc334e3fb5881cb9"),
                    ("3a51c470a1e98b0847ee", "216b7fdc2de358bf4b10")),
        (100, 0.0): (("75e3efe420ac3deb7bcf", "484ec8299992f5b97ea4"),
                     ("c2eac751cca7987ff6d5", "d73d108ec41d78ac9d0e")),
        (100, 0.5): (("eea293e31d4c2d49d2f3", "7b8b3937ddf42e829fb5"),
                     ("59d439942d30e643c675", "d73d108ec41d78ac9d0e")),
        (100, 5.0): (("5daa27a9c13185ff9c3a", "52ef947d021b12ad54a6"),
                     ("eaea0aca28b66b6896d3", "d73d108ec41d78ac9d0e")),
    }

    @staticmethod
    def _digests(draw_line, n):
        rng = RandomSource(65, n)
        lines = hashlib.sha256()
        for _ in range(50):
            lines.update(f"{draw_line(rng)}\n".encode())
        return lines.hexdigest()[:20], hashlib.sha256(rng.randoms(4).tobytes()).hexdigest()[:20]

    @pytest.mark.parametrize("n,theta", PINS, ids=str)
    def test_draws_keep_their_bytes(self, n, theta):
        # the raw trees and permutations, not only their statistics, and the stream's position
        # after them; a numpy upgrade that moves these bytes fails this test too
        params = RbParams(n, theta)

        def tree_line(rng):
            tree = sample_tree_recursive(params, rng)
            return f"{tree.labels} {tree.left} {tree.right} {tree.root}"

        got = (self._digests(tree_line, n),
               self._digests(lambda rng: sample_sequential(params, rng).values, n))
        assert got == self.PINS[n, theta], (
            f"recorded under python 3.11.7, numpy 2.4.6; "
            f"running python {platform.python_version()}, numpy {np.__version__}"
        )


class TestTwoSamplerAgreement:
    @pytest.mark.parametrize("theta", (0.5, 1.0, 2.0, 5.0))
    def test_joint_laws_agree_with_oracle(self, theta):
        n, trials = 5, 20000
        expected = enumerate_exact(RbParams(n, theta)).height_record_first
        params = RbParams(n, theta)
        rng = RandomSource(99, 0)
        seq_counts = Counter(
            _hrf_key_from_perm(sample_sequential(params, rng)) for _ in range(trials)
        )
        rec_counts = Counter(
            _hrf_key_from_tree(sample_tree_recursive(params, rng)) for _ in range(trials)
        )
        assert chi_square_gof(seq_counts, expected).p_value > ALPHA
        assert chi_square_gof(rec_counts, expected).p_value > ALPHA


class TestHeightOnly:
    def test_conventions(self):
        empty = sample_height_only(RbParams(0, 1.0), RandomSource(0))
        assert (empty.height, empty.records) == (-1, 0)
        assert empty.sizes.tolist() == []
        single = sample_height_only(RbParams(1, 3.0), RandomSource(0))
        assert single.height == 0
        assert single.records == 1
        assert single.sizes.tolist() == [0]

    def test_profile_identity_and_lower_bound(self):
        for theta in (0.0, 0.5, 2.0):
            for n in (1, 6, 64, 1000):
                sample = sample_height_only(RbParams(n, theta), RandomSource(8, n))
                assert len(sample.sizes) == sample.records
                assert sample.records + sample.sizes.sum() == n
                assert (sample.sizes >= 0).all()
                assert sample.height >= sample.records - 1

    @pytest.mark.parametrize(
        "theta,block",
        (
            pytest.param(0.5, None, id="0.5"),
            pytest.param(2.0, None, id="2.0"),
            pytest.param(0.5, BLOCK, id="0.5-block"),
            pytest.param(2.0, BLOCK, id="2.0-block"),
        ),
    )
    def test_matches_recursive_sampler_law(self, theta, block):
        n, trials = 7, 30000
        joint = enumerate_exact(RbParams(n, theta)).height_record_first
        marg: dict[tuple, float] = {}
        for (h, rec, _first), p in zip(joint.support, joint.probs):
            marg[(h, rec)] = marg.get((h, rec), 0.0) + p
        expected = ExactDistribution.from_weights(marg)
        samples = _height_samples(RbParams(n, theta), RandomSource(31, 0), trials, block)
        counts = Counter((sample.height, sample.records) for sample in samples)
        assert chi_square_gof(counts, expected).p_value > ALPHA

    @pytest.mark.parametrize(
        "path,block",
        (
            pytest.param("table", None, id="table"),
            pytest.param("split", None, id="split"),
            pytest.param("table", BLOCK, id="table-block"),
            pytest.param("split", BLOCK, id="split-block"),
        ),
    )
    def test_sweep_law(self, path, block, monkeypatch):
        # "table" keeps the default cutoff, so every subtree at these sizes
        # takes its height from the exact table; "split" sets the cutoff to
        # one node, so every larger subtree is split node by node
        if path == "split":
            monkeypatch.setattr(samplers, "_EXACT_MAX", 1)
        rng = RandomSource(17, 0)
        for n, theta in ((7, 0.5), (7, 2.0), (8, 0.5), (8, 2.0)):
            joint = enumerate_exact(RbParams(n, theta)).height_record_first
            marg: dict[tuple, float] = {}
            for (h, rec, _first), p in zip(joint.support, joint.probs):
                marg[(h, rec)] = marg.get((h, rec), 0.0) + p
            expected = ExactDistribution.from_weights(marg)
            samples = _height_samples(RbParams(n, theta), rng, 20000, block)
            counts = Counter((sample.height, sample.records) for sample in samples)
            assert chi_square_gof(counts, expected).p_value > ALPHA, (n, theta)

    @pytest.mark.parametrize(
        "n,theta",
        (
            pytest.param(200, 1.0, id="1.0"),
            pytest.param(200, 2.0, id="2.0"),
            pytest.param(5000, 1.0, id="5000-1.0"),
            pytest.param(5000, 2.0, id="5000-2.0"),
        ),
    )
    def test_block_heights_follow_the_uniform_law(self, n, theta):
        # theta = 2 has the height law of theta = 1 at every n: the right-subtree size j has
        # weight j + 1, and averaged with its mirror m - 1 - j that weight is constant. At
        # n = 200 the table ends every subtree; at n = 5000 every subtree over
        # _EXACT_MAX nodes is split before the table ends it, and the spine's records come
        # from _record_keys: one uniform per step below 16 in blocks of 64, thinned Poisson
        # steps beyond.
        cdf = uniform_height_table(n)[n]
        expected = ExactDistribution(support=tuple(range(len(cdf) - 1)), probs=tuple(np.diff(cdf)))
        samples = _height_samples(RbParams(n, theta), RandomSource(41, 0), 20000, BLOCK)
        counts = Counter(sample.height for sample in samples)
        assert chi_square_gof(counts, expected).p_value > ALPHA

    def test_sweep_splits_follow_the_uniform_law(self):
        # 10**5 uniform BSTs of 4096 nodes, each swept from best -1 and floor 0: every subtree
        # of more than _EXACT_MAX nodes is split by the sweep's own draw, two levels of them on
        # the way down, before the table ends it. A split drawn as u ** 1.05 raised E[H] by 0.25
        # at n = 10**6 and passed every other test; at this seed it reads p = 8.1e-8, against
        # 0.13 for the uniform split.
        trials, m = 10**5, 4096
        heights = samplers._sweep_heights(
            np.full(trials, m),
            np.zeros(trials, np.int64),
            np.arange(trials),
            np.full(trials, -1),
            RandomSource(43, 0),
        )
        cdf = uniform_height_table(m)[m]
        expected = ExactDistribution(support=tuple(range(len(cdf) - 1)), probs=tuple(np.diff(cdf)))
        assert chi_square_gof(Counter(heights.tolist()), expected).p_value > ALPHA

    @pytest.mark.parametrize("m", (2048, 2049, 4097))
    def test_sweep_follows_the_uniform_law_across_the_cutoff(self, m):
        # 10**5 uniform BSTs on each side of _EXACT_MAX = 2048 nodes: 2048 reads the table's
        # last row at once, 2049 is split once before the table ends both halves, 4097 once or
        # twice; the law is row m of a table built past all three
        assert samplers._EXACT_MAX == 2048
        trials = 10**5
        heights = samplers._sweep_heights(
            np.full(trials, m),
            np.zeros(trials, np.int64),
            np.arange(trials),
            np.full(trials, -1),
            RandomSource(47, m),
        )
        cdf = uniform_height_table(5000)[m]
        expected = ExactDistribution(support=tuple(range(len(cdf) - 1)), probs=tuple(np.diff(cdf)))
        assert chi_square_gof(Counter(heights.tolist()), expected).p_value > ALPHA

    @pytest.mark.parametrize(
        "n,spec", ((0, "1"), (1, "3"), (7, "0.5"), (1000, "1"), (1000, "linear:1"), (10**5, "1"))
    )
    def test_block_of_one_matches_one_sample(self, n, spec):
        # the same draws in the same order: the sample, and where the stream stands after it
        params = RbParams(n, resolve_theta(spec, n))
        rng, rng2 = RandomSource(19, 3), RandomSource(19, 3)
        (block,) = sample_height_only(params, rng, 1)
        single = sample_height_only(params, rng2)
        assert block.height == single.height
        assert block.sizes.dtype == single.sizes.dtype and np.array_equal(block.sizes, single.sizes)
        assert rng.randoms(1).tolist() == rng2.randoms(1).tolist()

    @pytest.mark.parametrize("trials", (0, -1, 2.0, True, "3"))
    def test_rejects_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            sample_height_only(RbParams(10, 1.0), RandomSource(0), trials)

    def test_split_path_matches_recursive_sampler(self, monkeypatch):
        # two-sample chi-square on heights; at n = 200 the default cutoff ends every
        # subtree with one table draw, and a cutoff of 64 splits the subtrees above it.
        # The seeds differ above bit 32 so no trial shares a stream.
        n, theta, trials = 200, 1.0, 3000
        fast_rng, tree_rng = RandomSource(1 << 40, 0), RandomSource(2 << 40, 0)
        for cutoff in (samplers._EXACT_MAX, 64):
            monkeypatch.setattr(samplers, "_EXACT_MAX", cutoff)
            params = RbParams(n, theta)
            fast = [sample_height_only(params, fast_rng).height for _ in range(trials)]
            slow = [height(sample_tree_recursive(params, tree_rng)) for _ in range(trials)]
            bins = np.arange(min(fast + slow), max(fast + slow) + 2)
            table = np.array([np.histogram(fast, bins)[0], np.histogram(slow, bins)[0]])
            table = table[:, table.sum(axis=0) > 0]
            assert chi2_contingency(table).pvalue > ALPHA, cutoff

    @pytest.mark.parametrize("trials", (None, 1, 3, 256), ids=repr)
    @pytest.mark.parametrize("n", (0, 1, 7, 1000, 10**5))
    def test_join_matches_the_per_spine_join(self, n, trials):
        # joined as whole arrays or spine by spine, the sweep starts from the same nodes, so it
        # makes the same draws; at n = theta = 10**5, 7 trees stand in for 256, which would
        # hold about 18M records: 7 is the block `_run_trials` draws there
        for theta in sorted({0.0, 0.5, 1.0, float(n)}):
            count = 7 if n == theta == 10**5 and trials == 256 else trials
            rng, ref_rng = RandomSource(n, 5), RandomSource(n, 5)
            got = sample_height_only(RbParams(n, theta), rng, count)
            got = [got] if count is None else got
            keys = samplers._record_keys(n, theta, ref_rng, len(got))
            spines = ref_spine_sizes(keys, n, len(got))
            size, top, tree, best = ref_spine_join(spines)
            heights = samplers._sweep_heights(size, best[tree] - top, tree, best, ref_rng)
            assert [s.height for s in got] == heights.tolist(), theta
            for sample, spine in zip(got, spines):
                assert sample.sizes.dtype == spine.dtype and np.array_equal(sample.sizes, spine)
            assert rng.randoms(4).tobytes() == ref_rng.randoms(4).tobytes(), theta

    # (n, theta, trials) -> sha256 prefixes of each tree's "height dtype sha256(sizes)" line,
    # in order, and of the 4 uniforms after the block, from RandomSource(64, trials); recorded
    # before sample_height_only returned its block as arrays. At n = theta = 10**5, 7 trees
    # stand in for 256, as in test_join_matches_the_per_spine_join
    BLOCK_PINS = {
    (0, 0.0, 1): ("2dcbd5bd2fd1a080c06a", "93884d952d1050f20ac3"),
    (0, 0.0, 3): ("13d002857f91959b2d46", "111928ff50925dfc9aae"),
    (0, 0.0, 256): ("54bd22da1956fda4b5ff", "17fc6ca8eb6d11408922"),
    (0, 0.5, 1): ("2dcbd5bd2fd1a080c06a", "93884d952d1050f20ac3"),
    (0, 0.5, 3): ("13d002857f91959b2d46", "111928ff50925dfc9aae"),
    (0, 0.5, 256): ("54bd22da1956fda4b5ff", "17fc6ca8eb6d11408922"),
    (0, 1.0, 1): ("2dcbd5bd2fd1a080c06a", "93884d952d1050f20ac3"),
    (0, 1.0, 3): ("13d002857f91959b2d46", "111928ff50925dfc9aae"),
    (0, 1.0, 256): ("54bd22da1956fda4b5ff", "17fc6ca8eb6d11408922"),
    (1, 0.0, 1): ("c4457cf1b4e40059d915", "93884d952d1050f20ac3"),
    (1, 0.0, 3): ("90f391fb91d557897d1b", "111928ff50925dfc9aae"),
    (1, 0.0, 256): ("a0fd1f409c4897bc9c12", "17fc6ca8eb6d11408922"),
    (1, 0.5, 1): ("c4457cf1b4e40059d915", "49db8106c646e5341b3a"),
    (1, 0.5, 3): ("90f391fb91d557897d1b", "bb90de90d6d28bba160a"),
    (1, 0.5, 256): ("a0fd1f409c4897bc9c12", "d6426a1decdf65b3b2d0"),
    (1, 1.0, 1): ("c4457cf1b4e40059d915", "49db8106c646e5341b3a"),
    (1, 1.0, 3): ("90f391fb91d557897d1b", "bb90de90d6d28bba160a"),
    (1, 1.0, 256): ("a0fd1f409c4897bc9c12", "d6426a1decdf65b3b2d0"),
    (7, 0.0, 1): ("19b75e7114f83b18a574", "49db8106c646e5341b3a"),
    (7, 0.0, 3): ("c5c3123b185ffe81dc9f", "bb90de90d6d28bba160a"),
    (7, 0.0, 256): ("36bc4c13792affa98c49", "d6426a1decdf65b3b2d0"),
    (7, 0.5, 1): ("0a0dbfa1fc362ee9d44b", "94659aee551a78bc2f25"),
    (7, 0.5, 3): ("a9b8dd688d227d385741", "74eb8481e1fc7d86f844"),
    (7, 0.5, 256): ("111d8fbbe81b4ed97ba2", "86fbeb5167815100ee7c"),
    (7, 1.0, 1): ("0a0dbfa1fc362ee9d44b", "94659aee551a78bc2f25"),
    (7, 1.0, 3): ("ac4d1f64bae0a2dd8a4d", "74eb8481e1fc7d86f844"),
    (7, 1.0, 256): ("ff363e5ae846f4dc6171", "aca9e2fa87dce2d047e4"),
    (7, 7.0, 1): ("c6fc464e154c988bc79a", "04f56a5d25c1a158835d"),
    (7, 7.0, 3): ("42284bdc53e51a1606a5", "8984b9173bb633470f35"),
    (7, 7.0, 256): ("75496570659060f5f894", "a00549490b862043193f"),
    (1000, 0.0, 1): ("ea4285cc6e310bc13498", "49db8106c646e5341b3a"),
    (1000, 0.0, 3): ("7a4d36cd1d729e547ed9", "bb90de90d6d28bba160a"),
    (1000, 0.0, 256): ("8a0e8a86bd7460e6b4dc", "d6426a1decdf65b3b2d0"),
    (1000, 0.5, 1): ("3ee1db70b631d6c895c6", "c033a73e327f3d1a5e36"),
    (1000, 0.5, 3): ("d02008116fadcd89e25f", "60933f9077839f37ccef"),
    (1000, 0.5, 256): ("8820b44f283986ecb7a0", "fdb36607c9c28b0c7857"),
    (1000, 1.0, 1): ("c520b49ea75aea7d449d", "61eb3e07678d6b9f3877"),
    (1000, 1.0, 3): ("94d0db94fed17ffe10ef", "7d8852af490601a27d46"),
    (1000, 1.0, 256): ("be9d24cf8dbdca7efd6d", "e7759d64adf9c304bb70"),
    (1000, 1000.0, 1): ("191216ecf901ade1730b", "cfdbb6039a2ba5f37ad1"),
    (1000, 1000.0, 3): ("1782b86a879c0f398d77", "5665b810fd578427740e"),
    (1000, 1000.0, 256): ("b88bec6bb7b0195fbc88", "000bd87aa0e3516ce999"),
    (10**5, 0.0, 1): ("dc9346baeb1c0008181d", "322edf85633344d03f3d"),
    (10**5, 0.0, 3): ("5a199449f85a3a2003f5", "384e188ef08f76e0dc0d"),
    (10**5, 0.0, 256): ("73b9913226bf01a46566", "51a5bb155af5588dc0db"),
    (10**5, 0.5, 1): ("aa7de00ef8b69341c446", "7f07662bc4f84d0568e3"),
    (10**5, 0.5, 3): ("1a6126820d933c336905", "40ae1ab3e50641965f97"),
    (10**5, 0.5, 256): ("ca4df1e49df2c53e8f76", "f4342e22003fd202e45f"),
    (10**5, 1.0, 1): ("688e37a7903df2b8e752", "2102182339273592e133"),
    (10**5, 1.0, 3): ("fe0f6788b283e00a9a2f", "bcebf6c96caa43856a8a"),
    (10**5, 1.0, 256): ("b1b8ef838ce173cb9214", "d9d445f1063175e94ae5"),
    (10**5, 1e5, 1): ("1addf9e39cedec6d3cb6", "b0ff3e69d30a23420aae"),
    (10**5, 1e5, 3): ("61c6cbc0e83a56bd7285", "f6452c2d61a12173c98d"),
    (10**5, 1e5, 7): ("7c736cc03de1ac8a12e9", "80d6c48d800325f5d803"),
    }

    @staticmethod
    def _item_line(sample):
        digest = hashlib.sha256(sample.sizes.tobytes()).hexdigest()
        return f"{sample.height} {sample.sizes.dtype} {digest}\n".encode()

    @pytest.mark.parametrize("n,theta,trials", BLOCK_PINS, ids=str)
    def test_block_keeps_its_bytes(self, n, theta, trials):
        rng = RandomSource(64, trials)
        block = sample_height_only(RbParams(n, theta), rng, trials)
        items = hashlib.sha256()
        for sample in block:
            items.update(self._item_line(sample))
        got = (items.hexdigest()[:20], hashlib.sha256(rng.randoms(4).tobytes()).hexdigest()[:20])
        assert got == self.BLOCK_PINS[n, theta, trials], (
            f"recorded under python 3.11.7, numpy 2.4.6; "
            f"running python {platform.python_version()}, numpy {np.__version__}"
        )

    @pytest.mark.parametrize("n,theta,trials", BLOCK_PINS, ids=str)
    def test_block_reads_as_its_samples(self, n, theta, trials):
        # len, indexing from either end, iteration and unpacking give the same HeightSamples,
        # and the block's arrays hold their heights and record counts
        block = sample_height_only(RbParams(n, theta), RandomSource(64, trials), trials)
        items = list(block)
        assert len(block) == len(items) == trials
        assert all(isinstance(s, HeightSample) for s in items)
        for i, sample in enumerate(items):
            for got in (block[i], block[i - trials]):
                assert type(got) is HeightSample and got.height == sample.height
                assert got.sizes.dtype == np.int64 and np.array_equal(got.sizes, sample.sizes)
        with pytest.raises(IndexError):
            block[trials]
        if trials == 1:
            (one,) = block
            assert self._item_line(one) == self._item_line(items[0])
        for name, values in (("heights", [s.height for s in items]),
                             ("records", [s.records for s in items])):
            array = getattr(block, name)
            assert array.dtype == np.int64 and array.tolist() == values
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_reproducible(self):
        a = sample_height_only(RbParams(5000, 1.5), RandomSource(123, 9))
        b = sample_height_only(RbParams(5000, 1.5), RandomSource(123, 9))
        assert (a.height, a.records) == (b.height, b.records)
        assert np.array_equal(a.sizes, b.sizes)

    @pytest.mark.parametrize("k_max", (0, 5, 100, 2048))
    def test_flat_table_read_is_a_view(self, k_max, monkeypatch):
        # the sweep reads the table through ravel(), which copies (0.86 MiB at 2048 rows, every
        # round) unless the table is C-contiguous
        monkeypatch.setattr(samplers, "_HEIGHT_TABLE", uniform_height_table(0))
        table = samplers._height_table(k_max)
        assert np.shares_memory(table.ravel(), table)

    def test_small_sweeps_build_a_small_table(self, monkeypatch):
        # a sweep of subtrees of at most 100 nodes builds a table of 128 rows, not 2048, and
        # draws the heights that the full table gives; a process that holds a larger table
        # builds none
        params, trials = RbParams(100, 1.0), 200
        built = []

        def recorded(k_max):
            built.append(k_max)
            return uniform_height_table(k_max)

        monkeypatch.setattr(samplers, "uniform_height_table", recorded)
        monkeypatch.setattr(samplers, "_HEIGHT_TABLE", uniform_height_table(0))
        small = [s.height for s in sample_height_only(params, RandomSource(5, 0), trials)]
        assert built == [128] and len(samplers._HEIGHT_TABLE) == 129
        monkeypatch.setattr(samplers, "_HEIGHT_TABLE", uniform_height_table(samplers._EXACT_MAX))
        full = [s.height for s in sample_height_only(params, RandomSource(5, 0), trials)]
        assert built == [128] and len(samplers._HEIGHT_TABLE) == samplers._EXACT_MAX + 1
        assert small == full


class TestExactHeightTable:
    def test_rows_match_enumeration(self):
        table = uniform_height_table(samplers._EXACT_MAX)
        width = table.shape[1]
        for m in range(1, 9):
            counts = Counter(
                height(build_bst(Permutation(values)))
                for values in itertools.permutations(range(1, m + 1))
            )
            total = math.factorial(m)
            cdf = np.cumsum([counts[h] for h in range(-1, width - 1)]) / total
            assert np.abs(table[m] - cdf).max() <= 1e-15, m

    def test_matches_row_wise_reference(self):
        # 16 ulps of 1.0: the float64 level-wise table was 1.7e-15 from the extended-precision
        # rows at worst (m = 1023), and the same row-wise recursion in float64 9.5e-15
        table = uniform_height_table(samplers._EXACT_MAX)
        width = table.shape[1]
        assert table.shape == (samplers._EXACT_MAX + 1, width)
        assert (table[:, -1] == 1.0).all()
        ref = ref_uniform_height_cdf(samplers._EXACT_MAX, width)
        assert np.abs(table - ref).max() <= 16 * np.finfo(float).eps

    def test_smaller_tables_are_leading_rows_of_larger_ones(self):
        # so rows of any size up to the largest table built so far may be read from it
        for big in (uniform_height_table(1024), uniform_height_table(5000)):
            for k in (1, 2, 7, 64, 100, 300, 513, 777, 1023):
                table = uniform_height_table(k)
                width = table.shape[1]
                assert big[: k + 1, :width].tobytes() == table.tobytes(), k
                assert (big[: k + 1, width:] == 1.0).all(), k

    @pytest.mark.parametrize("k_max", (0, 1, 2, 8))
    def test_small_tables_end_where_heights_do(self, k_max):
        # H_m <= m - 1, reached with chance 2^(m - 1) / m! > 2^-54 for m <= 8
        table = uniform_height_table(k_max)
        assert table.shape == (k_max + 1, k_max + 1)
        assert np.abs(table - ref_uniform_height_cdf(k_max)).max() <= 1e-15
        assert (table[:, -1] == 1.0).all()
        with pytest.raises(ValueError, match="k_max"):
            uniform_height_table(-1)

    def test_shape_of_rows(self):
        table = uniform_height_table(samplers._EXACT_MAX)
        width = table.shape[1]
        assert (np.diff(table, axis=1) >= 0).all()
        for m in range(1, samplers._EXACT_MAX + 1):
            assert table[m, min(m, width - 1)] == 1.0  # P(H_m <= m - 1)
        # E[H_3] = sum over h >= 0 of P(H_3 > h) = 5/3
        assert (1.0 - table[3, 1:]).sum() == pytest.approx(5 / 3, abs=1e-15)


def _record_counts(params, rng, trials):
    """``trials`` record counts from one stream, BLOCK per call."""
    return [
        count
        for lo in range(0, trials, BLOCK)
        for count in sample_record_count(params, rng, min(BLOCK, trials - lo))
    ]


def _record_steps(n, theta, rng, trials, block=BLOCK):
    """The record steps of ``trials`` rightmost paths of n nodes as (trial, step) arrays."""
    keys = np.concatenate([
        lo * n + samplers._record_keys(n, theta, rng, min(block, trials - lo))
        for lo in range(0, trials, block)
    ])
    return keys // n, keys % n


def _poisson_binomial(probs):
    """The law of a sum of independent Bernoulli(probs), cut 15 sds above its mean."""
    mean, var = probs.sum(), (probs * (1.0 - probs)).sum()
    pmf = np.zeros(min(len(probs), int(mean + 15.0 * math.sqrt(var) + 20.0)) + 1)
    pmf[0] = 1.0
    for p in probs:
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return ExactDistribution(range(len(pmf)), pmf / math.fsum(pmf))


class TestSpineRecords:
    # a _record_keys call of `count` paths reads one uniform for each step
    # k < K = min(n, max(ceil(theta), ceil(1024 / count))) before the last, and thins a
    # Poisson process over the ranges [K 2**i, K 2**(i+1))
    @pytest.mark.parametrize("n,theta", ((10**5, 316.0), (2000, 0.5)))
    def test_first_split_law(self, n, theta):
        # the first record's step is the root's left size; at (10**5, 316) it falls in the
        # far ranges, at (2000, 0.5) on both sides of K
        trial, step = _record_steps(n, theta, RandomSource(61, 0), 10000)
        first = step[np.flatnonzero(np.diff(trial, prepend=-1))]
        assert chi_square_gof(Counter(first.tolist()), _split_law(n, theta)).p_value > ALPHA

    @pytest.mark.parametrize(
        "n,theta,block",
        (
            pytest.param(10**4, 5.0, BLOCK, id="10000-5.0"),
            pytest.param(10**4, 1.0, BLOCK, id="10000-1.0"),
            pytest.param(10**4, 1500.5, BLOCK, id="10000-1500.5"),
            pytest.param(10**4, 5.0, 1, id="10000-5.0-single"),
            pytest.param(10**4, 5.0, 2000, id="10000-5.0-2000"),
        ),
    )
    def test_hits_per_step_range(self, n, theta, block):
        # records summed over bins of steps k that straddle K and every doubling edge K 2**i,
        # against their Poisson-binomial mean and variance; the bins are disjoint, so the
        # squared z-scores sum to a chi-square with one degree of freedom per bin. K is 16
        # for blocks of 64 at theta <= 16, 1024 for one path, and ceil(theta) past 1024 paths.
        trials = 4000
        big = min(n, max(math.ceil(theta), -(-1024 // block)))
        trial, step = _record_steps(n, theta, RandomSource(62, 0), trials, block)
        k = n - 1 - step
        edges = big << np.arange(((n - 1) // big).bit_length())
        bins = [(0, big // 2)]
        bins += [(e - max(1, e // 8), min(e + max(1, e // 8), n)) for e in edges.tolist()]
        stat = 0.0
        for lo, hi in bins:
            p = theta / (theta + np.arange(lo, hi, dtype=float))
            hits = np.count_nonzero((k >= lo) & (k < hi))
            stat += (hits - trials * p.sum()) ** 2 / (trials * (p * (1.0 - p)).sum())
        assert chi2.sf(stat, len(bins)) > ALPHA

    @pytest.mark.parametrize(
        "n,theta,count",
        (
            (10, 1.0, 64),
            (300, 2.0, 3),
            (2000, 2000.0, 10),
            (10**4, 1e4, 2),
            (9000, 20000.0, 1),
            (10**4, 5.0, 64),
            (10**5, 1.0, 1),
        ),
    )
    def test_near_steps_match_reference_scan(self, n, theta, count):
        # the K = near steps before each path's end read the call's first count * K uniforms,
        # path after path, one per step; K = n in the first five cases, and the last two also
        # have far steps, so only their keys at steps >= n - K are checked
        near = min(n, max(math.ceil(theta), -(-1024 // count)))
        for stream in range(3):
            keys = samplers._record_keys(n, theta, RandomSource(63, stream), count)
            uniforms = RandomSource(63, stream).randoms(count * near).tolist()
            got = keys[keys % n >= n - near].tolist()
            assert got == ref_near_record_keys(count, n, theta, near, uniforms)

    @pytest.mark.parametrize(
        "n,theta,count,keys_digest,next_digest",
        (
            (10**5, (10**5) ** 0.5, 12,
             "93fe839a41d3bfd88e10093c74100e0ed6c65cee5751733c84052e23887ce481",
             "1799b5ca039723a80a33a0d3bc8f9425de3d34a2a2a18b5df15a7465efd318b6"),
            (10**4, 5.0, 256,
             "189f29bf6fb8862939924573c1938fd7f13056ccc81e2f66ea4ca93d862bd615",
             "4414b35d010fa361482f662011e3b5ba74a8acc8fa925b0bac771fa89ef8b1a2"),
            (10**5, 1.0, 200,
             "ce2a130ebe1e0932b84b4be969f2c39e05a51041235496cad9a28d9f3b5ce588",
             "a9e465d04d6f526be2dfe75e8cc9b3e4cc33dea807282794b61ec3a9e5b2ed7b"),
            (10**6, 1.0, 6,
             "5e64964f3f55ff8260411a149defa61151c11819ae60aeb4c56c397ca6dd5c34",
             "8d1b13b3b41d557cfac12be667a6d77a85a075c9982fea35611d7327fac29bea"),
            (10**4, 5.0, 1,
             "91ba252c428f0a72973c5a9593647c774c46018122aca992fadfb988d89546b0",
             "17b9501bd96d83ed466e23dff023683e329003c5b1d5ed0a4873a4175bb9a562"),
            (10**17, 3.0, 2,
             "eb3d5d2f0e722bfc116b285e934ba20c5b48b95c04c2d5971bfa8bbe6dcdb1f7",
             "631865b933e26404ac0609f3d6622cc42de183335b33d7a50f47cd96a760182d"),
            (10**12, 1e-300, 3,
             "118710132ab1e8518f620107226a59585ea708a63dd8f498a401a70516748d4e",
             "b69cb0d73ca66aff06d2129f1ad7c7fb2a5dec6f030ac76338fc9c3791df478c"),
            (10**9, 10**4 + 0.5, 1,
             "d991907ba35ab1d095bff175ca7e16d3c21c395c80c651efa10fd3bb53a5f6f9",
             "d0cf2b2ab7c348f10f6fd36ff32b2017a6ed5782a24167a062a7d7ca09e93fa3"),
        ),
        ids=("power", "block", "uniform", "uniform-6", "single", "huge-n", "tiny-theta", "wide"),
    )
    def test_far_steps_keep_their_bytes(self, n, theta, count, keys_digest, next_digest):
        # the keys, far steps included, and the stream's position after the call: the law
        # tests above see the far steps only through counts per range and the first split.
        # As for tests/artifacts.txt, a numpy upgrade that moves these bytes fails this test too.
        rng = RandomSource(64, 0)
        keys = samplers._record_keys(n, theta, rng, count)
        got = (hashlib.sha256(keys.tobytes()).hexdigest(),
               hashlib.sha256(rng.randoms(4).tobytes()).hexdigest())
        assert keys.dtype == np.int64
        assert got == (keys_digest, next_digest), (
            f"recorded under python 3.11.7, numpy 2.4.6; "
            f"running python {platform.python_version()}, numpy {np.__version__}"
        )


class TestRecordCountSampler:
    def test_theta_zero(self):
        assert sample_record_count(RbParams(10, 0.0), RandomSource(0)) == 1
        assert sample_record_count(RbParams(0, 1.0), RandomSource(0)) == 0

    def test_law_matches_enumeration(self):
        n, theta, trials = 7, 2.0, 30000
        expected = enumerate_exact(RbParams(n, theta)).record
        rng = RandomSource(55, 0)
        counts = Counter(
            sample_record_count(RbParams(n, theta), rng) for _ in range(trials)
        )
        assert chi_square_gof(counts, expected).p_value > ALPHA

    @pytest.mark.parametrize(
        "n,theta",
        (
            pytest.param(2000, 0.01, id="0.01"),
            pytest.param(2000, 0.5, id="0.5"),
            pytest.param(2000, 1.0, id="1.0"),
            pytest.param(2000, 5.0, id="2000-5"),
            pytest.param(2000, 2000.0, id="2000-2000"),
            pytest.param(20000, 20000**0.5, id="20000-sqrt"),
            pytest.param(10**5, 1.0, id="100000-1"),
        ),
    )
    def test_law_matches_poisson_binomial(self, n, theta):
        # records are independent steps with chances p_k = theta / (theta + k), so the law has
        # generating function prod(1 - p_k + p_k z); in blocks of 64, every n here but
        # (2000, 2000) reads steps k < max(16, ceil(theta)) one uniform each and thins a
        # Poisson process over the rest
        expected = _poisson_binomial(theta / (theta + np.arange(n, dtype=float)))
        counts = Counter(_record_counts(RbParams(n, theta), RandomSource(56, 0), 20000))
        assert chi_square_gof(counts, expected).p_value > ALPHA

    def test_poisson_binomial_helper_matches_reference(self):
        # the numpy law above against the pure-Python convolution it cuts and renormalizes
        for n, theta in ((300, 2.0), (300, 0.05), (200, 200.0)):
            probs = theta / (theta + np.arange(n, dtype=float))
            law = _poisson_binomial(probs)
            ref = poisson_binomial_pmf(probs.tolist())
            assert list(law.support) == list(range(len(law.probs)))
            assert math.fsum(ref[len(law.probs) :]) < 1e-30
            assert np.allclose(law.probs, ref[: len(law.probs)], rtol=1e-12, atol=1e-300)

    def test_block_of_one_matches_one_count(self):
        params = RbParams(10**4, 5.0)
        rng, rng2 = RandomSource(19, 4), RandomSource(19, 4)
        assert sample_record_count(params, rng, 1) == [sample_record_count(params, rng2)]
        assert rng.randoms(1).tolist() == rng2.randoms(1).tolist()

    @pytest.mark.parametrize("trials", (0, -1, 2.0, True, "3"))
    def test_rejects_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            sample_record_count(RbParams(10, 1.0), RandomSource(0), trials)

    def test_mean_matches_mu_at_scale(self):
        # 1e5 draws at (n=1e4, theta=5): sample mean within 3 SE of mu
        params = RbParams(10**4, 5.0)
        trials = 10**5
        rng = RandomSource(77, 0)
        counts = np.array(_record_counts(params, rng, trials))
        m = mu(params.n, params.theta)
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - m) <= 3 * se


class TestProfileMatrix:
    def test_first_column_law(self):
        # the vectorized inversion of the split survival against the enumerated left size
        n, theta, trials = 7, 2.0, 30000
        expected = enumerate_exact(RbParams(n, theta)).left_subtree_size
        matrix = sample_left_profile_matrix(RbParams(n, theta), trials, 0, RandomSource(6, 0))
        counts = Counter(int(k) for k in matrix[:, 0])
        assert chi_square_gof(counts, expected).p_value > ALPHA

    def test_rows_are_valid_profiles(self):
        # with max_j = n every spine fits, so r + sum(k_j) = n exactly
        n = 500
        matrix = sample_left_profile_matrix(RbParams(n, 1.0), 200, n, RandomSource(9, 0))
        assert (matrix >= 0).all()
        spine_lengths = n - matrix.sum(axis=1)
        assert (spine_lengths >= 1).all()
        assert (spine_lengths <= n).all()

    def test_first_right_subtree_dominated(self):
        # size of the right subtree of the root is dominated by n*B + 1
        n, theta, trials = 10**4, 2.0, 10**5
        matrix = sample_left_profile_matrix(RbParams(n, theta), trials, 0, RandomSource(4, 0))
        right_sizes = n - matrix[:, 0] - 1
        band = dkw_epsilon(trials)
        for t in np.linspace(1.0, n, 60):
            emp = float((right_sizes > t).mean())
            ratio = (t - 1.0) / n
            dom = 1.0 - ratio**theta if 0.0 < ratio < 1.0 else (1.0 if ratio <= 0.0 else 0.0)
            assert emp <= dom + band

    @pytest.mark.parametrize("n", (10**4, 10**7))
    def test_columns_are_contiguous(self, n):
        # the matrix is drawn and read column by column, so each column is one contiguous
        # row of its transpose; n = 10**7 is past the table's cap, where splits are thinned
        matrix = sample_left_profile_matrix(RbParams(n, 2.0), 300, 20, RandomSource(3, 0))
        assert matrix.shape == (300, 21) and matrix.dtype == np.int64
        assert matrix.T.flags.c_contiguous

    @pytest.mark.parametrize("max_j", (-1, -2))
    def test_rejects_negative_max_j(self, max_j):
        with pytest.raises(ValueError, match="max_j"):
            sample_left_profile_matrix(RbParams(10, 1.0), 5, max_j, RandomSource(0))

    @pytest.mark.parametrize("trials", (0, -1, True, 2.5, "4"))
    def test_rejects_bad_trials(self, trials):
        # the rule and message of sample_height_only and sample_record_count
        with pytest.raises(ValueError, match="trials"):
            sample_left_profile_matrix(RbParams(10, 1.0), trials, 3, RandomSource(0))

    @pytest.mark.parametrize("theta", (0.5, 2.0, 7.0))
    @pytest.mark.parametrize("path", ("inverted", "thinned"))
    def test_rows_match_the_exact_profile_law(self, path, theta, monkeypatch):
        # whole rows, not column 0 alone: row r's spine is its first n - sum(r) entries
        _split_path(path, monkeypatch)
        n, trials = 7, 10**5
        weights = {}
        laws = enumerate_exact(RbParams(n, theta))
        for (sizes, _h), p in zip(laws.profile_height.support, laws.profile_height.probs):
            weights[sizes] = weights.get(sizes, 0.0) + p
        matrix = sample_left_profile_matrix(RbParams(n, theta), trials, n, RandomSource(31, 0))
        counts = Counter(tuple(row[: n - sum(row)]) for row in matrix.tolist())
        result = chi_square_gof(counts, ExactDistribution.from_weights(weights))
        assert result.dof >= 60
        assert result.p_value > ALPHA

    @pytest.mark.parametrize(
        "n,theta",
        [(n, theta) for n in (0, 1, 2) for theta in (0.0, 0.5, 2.0, 1e300)]
        + [(1000, 0.0), (1000, 1e-300), (1000, 2.0), (1000, 1e300)],
    )
    @pytest.mark.parametrize("path", ("inverted", "thinned"))
    def test_edges_and_extremes_give_valid_profiles(self, path, n, theta, monkeypatch):
        _split_path(path, monkeypatch)
        matrix = sample_left_profile_matrix(RbParams(n, theta), 400, n, RandomSource(5, 0))
        assert matrix.dtype == np.int64 and matrix.shape == (400, n + 1)
        assert (matrix >= 0).all()
        spine = n - matrix.sum(axis=1)
        assert (spine >= min(n, 1)).all()
        # past a tree's spine every entry is 0
        assert all(not row[r:].any() for row, r in zip(matrix, spine))
        if n <= 1 or theta == 1e300:
            assert not matrix.any()
        elif theta <= 1e-300:
            assert (matrix[:, 0] == n - 1).all() and not matrix[:, 1:].any()
        elif n == 2:
            assert {tuple(row) for row in matrix.tolist()} == {(0, 0, 0), (1, 0, 0)}

    @pytest.mark.parametrize("theta", (1e-300, 2.0, 1e300))
    def test_no_table_past_the_cap(self, theta):
        # a table of 10**15 + 1 floats could not be allocated, so these rows are thinned
        n = 10**15
        matrix = sample_left_profile_matrix(RbParams(n, theta), 300, 20, RandomSource(7, 0))
        assert (matrix >= 0).all() and (matrix.sum(axis=1) <= n - 1).all()
        if theta == 1e300:
            assert not matrix.any()
        elif theta == 1e-300:
            assert (matrix[:, 0] == n - 1).all() and not matrix[:, 1:].any()
        else:
            # k_0 / n is about Beta(1, theta): the 300 means of k_0 / n sit near 1 / 3
            assert abs(float(matrix[:, 0].mean()) / n - 1 / 3) < 0.07

    @pytest.mark.parametrize("theta", (0.5, 2.0, 1e300))
    @pytest.mark.parametrize("u", (0.0, 1.0 - 2.0**-53))
    def test_extreme_uniforms(self, u, theta):
        # u = 0 takes the whole tree, k_0 = n - 1; the largest u takes no node at every
        # split, also where theta >> n rounds A[d] - log(u) to A[d]
        class Constant(RandomSource):
            def randoms(self, count):
                return np.full(count, u)

        n = 1000
        matrix = sample_left_profile_matrix(RbParams(n, theta), 3, 20, Constant(0))
        expected = np.zeros((3, 21), dtype=np.int64)
        if u == 0.0:
            expected[:, 0] = n - 1
        assert np.array_equal(matrix, expected)

    @pytest.mark.parametrize("n,theta", ((300, 0.3), (300, 2.0), (300, 1e4), (5, 1e15)))
    def test_guess_and_bisection_agree(self, n, theta):
        # the vectorized guess, mended by searchsorted where it misses, against a plain
        # bisection of the same table for each tree's uniform, tree by tree
        got = sample_left_profile_matrix(RbParams(n, theta), 500, 30, RandomSource(8, 0))
        table = split_survival_table(n, theta).tolist()
        rng = RandomSource(8, 0)
        used = [0] * len(got)
        expected = np.zeros_like(got)
        for j in range(got.shape[1]):
            live = [r for r in range(len(got)) if used[r] < n]
            for r, u in zip(live, rng.randoms(len(live)).tolist()):
                d = used[r]
                i = max(bisect.bisect_left(table, table[d] - math.log(u)), d + 1)
                expected[r, j] = i - d - 1
                used[r] = i
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "theta,n",
        [(theta, n) for theta in (1e-3, 2.0, 1e4, 1e15) for n in (10, 10**4)]
        + [(theta, n) for theta in (100.0, 1e3, 1e6) for n in (10**4, 10**5)]
        + [(1e-3, 10**5), (2.0, 10**5), (2.0, 10**6), (100.0, 10**6)],
    )
    def test_split_table_is_the_log_survival(self, theta, n):
        # against the per-step compensated sum: a plain cumsum is 6.8e-13 off at n = 10**4,
        # theta = 1e3 and 2.4e-11 at 10**6, theta = 100. Only A <= 700 is checked: past it
        # exp(-A) is below 1e-304, and an ulp of A is at least 1.1e-13
        table = split_survival_table(n, theta)
        expected = -np.array(list(ref_log_survival_prefixes(n, theta, n - 1)))
        assert len(table) == n + 1 and table[n] == np.inf
        # ascending, as searchsorted and bisection need
        assert np.all(np.diff(table) >= 0.0)
        readable = expected <= 700.0
        assert np.max(np.abs(table[:n] - expected)[readable]) <= 5e-13

    @pytest.mark.parametrize(
        "n,expected",
        (
            (1000, "57c018cab1dd7aafc2ca9cdd7a1e9a74d23603d603c6e3c410d6bbccdc2ad3ad"),
            (10**7, "7ce6247801c9f6b8cdf7bbb0d1135b7bd74cd5b822081f99b2eceb24dea40abc"),
        ),
    )
    def test_draws_keep_their_bytes(self, n, expected):
        # the dominance artifacts see the matrix's draws only through max_excess, which for
        # j >= 2 often reads the bound alone. As for tests/artifacts.txt, a numpy upgrade that
        # moves these bytes fails this test too. n = 10**7 is past the table's cap.
        matrix = sample_left_profile_matrix(RbParams(n, 2.0), 256, 20, RandomSource(9, 0))
        digest = hashlib.sha256(matrix.tobytes()).hexdigest()
        assert digest == expected, (
            f"recorded under python 3.11.7, numpy 2.4.6; "
            f"running python {platform.python_version()}, numpy {np.__version__}"
        )

    def test_rejection_heavy_draws_keep_their_bytes(self):
        # theta = n past the table's cap, where the thinned splits reject most candidates
        n = 10**7
        matrix = sample_left_profile_matrix(RbParams(n, float(n)), 256, 20, RandomSource(9, 0))
        digest = hashlib.sha256(matrix.tobytes()).hexdigest()
        assert digest == "965b19fe82f8fc758f6fe3b7d0cf95e378899a7641b6d0246b642a52a63be14a", (
            f"recorded under python 3.11.7, numpy 2.4.6; "
            f"running python {platform.python_version()}, numpy {np.__version__}"
        )
