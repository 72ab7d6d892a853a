"""One rule for every integer argument: any int or numpy integer but a bool, in range.

Anything else is refused with one ValueError whose message starts with the argument's name.
"""

import warnings

import numpy as np
import pytest

from rbtrees.analytics import (
    beta_product_survival,
    conditional_height_tail_bound,
    enumerate_exact,
    left_profile_tail_bound,
    left_root_tail,
    mu,
    profile_exceedance_thresholds,
    root_split_pmf,
    uniform_height_table,
)
from rbtrees.experiments import (
    ExperimentConfig,
    dkw_epsilon,
    height_normalizer,
    run_dominance_check,
    run_height_ratio,
    run_record_concentration,
)
from rbtrees.model import LeftProfile, Permutation, RbParams
from rbtrees.samplers import (
    HeightSample,
    RandomSource,
    sample_height_only,
    sample_left_profile_matrix,
    sample_record_count,
)

P = RbParams(10, 2.0)
BAD_VALUES = (True, 2.5, "3", None, -1)


def _config(**settings):
    return ExperimentConfig(**{"n_values": (10,), "theta_spec": 1.0, "trials": 2, **settings})


# (the name the message starts with, a call that passes the value as that argument)
ARGUMENTS = {
    "RbParams.n": ("n", lambda v: RbParams(v, 1.0)),
    "RandomSource.seed": ("seed", lambda v: RandomSource(v)),
    "RandomSource.stream_index": ("stream_index", lambda v: RandomSource(0, v)),
    "sample_height_only.trials": ("trials", lambda v: sample_height_only(P, RandomSource(0), v)),
    "sample_record_count.trials": ("trials", lambda v: sample_record_count(P, RandomSource(0), v)),
    "sample_left_profile_matrix.trials": (
        "trials",
        lambda v: sample_left_profile_matrix(P, v, 2, RandomSource(0)),
    ),
    "sample_left_profile_matrix.max_j": (
        "max_j",
        lambda v: sample_left_profile_matrix(P, 3, v, RandomSource(0)),
    ),
    "ExperimentConfig.trials": ("trials", lambda v: _config(trials=v)),
    "ExperimentConfig.seed": ("seed", lambda v: _config(seed=v)),
    "ExperimentConfig.n_values": ("n_values[0]", lambda v: _config(n_values=(v,))),
    "ExperimentConfig.j_values": ("j_values[0]", lambda v: _config(j_values=(v,))),
    "mu.n": ("n", lambda v: mu(v, 1.0)),
    "uniform_height_table.k_max": ("k_max", uniform_height_table),
    "root_split_pmf.k": ("k", lambda v: root_split_pmf(P, v)),
    "left_root_tail.k": ("k", lambda v: left_root_tail(P, v)),
    "beta_product_survival.j": ("j", lambda v: beta_product_survival(2.0, v, 0.5)),
    "left_profile_tail_bound.k": (
        "k",
        lambda v: left_profile_tail_bound(RbParams(10**4, 2.0), 0.1, 4.0, v),
    ),
    "profile_exceedance_thresholds.k": (
        "k",
        lambda v: profile_exceedance_thresholds(P, 0.1, 1.0, v),
    ),
    "conditional_height_tail_bound.eta": (
        "eta",
        lambda v: conditional_height_tail_bound(LeftProfile((1, 2)), v, 1.0),
    ),
    "height_normalizer.n": ("n", lambda v: height_normalizer(v, 1.0)),
    "dkw_epsilon.trials": ("trials", dkw_epsilon),
}
# None asks a sampler for one sample, not for a list of them
NONE_IS_ONE = {
    "sample_height_only.trials": lambda sample: isinstance(sample, HeightSample),
    "sample_record_count.trials": lambda count: type(count) is int,
    "sample_left_profile_matrix.trials": lambda matrix: matrix.shape == (1, 3),
}


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_every_integer_argument_refuses_non_integers(argument, value):
    name, call = ARGUMENTS[argument]
    if value is None and argument in NONE_IS_ONE:
        assert NONE_IS_ONE[argument](call(value))
        return
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value).startswith(f"{name} must be "), str(excinfo.value)


@pytest.mark.parametrize(
    "call",
    (
        lambda: RbParams(True, 1.0),
        lambda: sample_left_profile_matrix(P, 3, True, RandomSource(0)),
        lambda: beta_product_survival(2.0, 2.5, 0.1),
        lambda: conditional_height_tail_bound(LeftProfile((1, 2)), 2.5, 1.0),
        lambda: left_profile_tail_bound(RbParams(10**4, 2.0), 0.1, 4.0, 2.5),
        lambda: profile_exceedance_thresholds(P, 0.1, 1.0, -1),
        lambda: uniform_height_table(True),
        lambda: enumerate_exact(RbParams(9, 1.0)),
    ),
    ids=(
        "RbParams-True",
        "max_j-True",
        "j-2.5",
        "eta-2.5",
        "k-2.5",
        "thresholds-k--1",
        "k_max-True",
        "enumerate-n-9",
    ),
)
def test_bools_fractions_and_negatives_do_not_pass_as_integers(call):
    # each of these once returned a result, or numpy's or its own error, instead of this one
    with pytest.raises(ValueError, match=r"^\w+ must be "):
        call()


@pytest.mark.parametrize(
    "call,name",
    ((lambda: mu([10], 1.0), "n"), (lambda: uniform_height_table([4]), "k_max")),
    ids=("mu-n-list", "k_max-list"),
)
def test_memoized_laws_check_before_hashing(call, name):
    # a list once reached the cache first and ended in "unhashable type"
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value).startswith(f"{name} must be "), str(excinfo.value)


def test_numpy_integers_act_as_ints():
    params = RbParams(np.int64(100), 2.0)
    assert params == RbParams(100, 2.0) and type(params.n) is int
    rng = RandomSource(np.uint64(7), np.int64(3))
    assert repr(rng) == repr(RandomSource(7, 3))
    assert rng.randoms(10).tobytes() == RandomSource(7, 3).randoms(10).tobytes()
    assert mu(np.int64(50), 2.0) == mu(50, 2.0)
    assert np.array_equal(uniform_height_table(np.int32(8)), uniform_height_table(8))


@pytest.mark.parametrize(
    "call,name",
    (
        (lambda: Permutation((True,)), "values[0]"),
        (lambda: Permutation((1.0,)), "values[0]"),
        (lambda: Permutation((2, True)), "values[1]"),
        (lambda: LeftProfile((2.5, 0.5)), "sizes[0]"),
        (lambda: LeftProfile((True, 2.5)), "sizes[0]"),
        (lambda: LeftProfile(("3",)), "sizes[0]"),
        (lambda: LeftProfile((1, 2.5)), "sizes[1]"),
        (lambda: LeftProfile((0, -1)), "sizes[1]"),
    ),
    ids=(
        "values-True",
        "values-1.0",
        "values-2-True",
        "sizes-2.5",
        "sizes-True",
        "sizes-str",
        "sizes-1-2.5",
        "sizes-0--1",
    ),
)
def test_permutation_values_and_profile_sizes_take_the_rule(call, name):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value).startswith(f"{name} must be "), str(excinfo.value)


def test_numpy_integer_values_and_sizes_are_stored_as_ints():
    perm = Permutation((np.int64(1),))
    assert perm == Permutation((1,)) and type(perm.values[0]) is int
    perm = Permutation((np.int32(2), 1))
    assert perm.values == (2, 1) and all(type(v) is int for v in perm.values)
    profile = LeftProfile((np.int64(3), np.uint8(0), 2))
    assert profile.sizes == (3, 0, 2) and all(type(k) is int for k in profile.sizes)


@pytest.mark.parametrize("seed", (np.uint64(3), np.int64(3), 2**64 - 1), ids=repr)
def test_a_seed_the_config_takes_runs_every_driver(seed):
    config = _config(seed=seed, epsilon=0.5, j_values=(0, 1))
    assert config.seed == int(seed) and type(config.seed) is int
    for run in (run_height_ratio, run_record_concentration, run_dominance_check):
        rows = run(config)
        assert rows and all(row.seed == int(seed) for row in rows)


@pytest.mark.parametrize("seed", (True, -1, 2**64, 3.0), ids=repr)
def test_a_seed_the_config_refuses_the_source_refuses(seed):
    for make in (lambda: _config(seed=seed), lambda: RandomSource(seed)):
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer"):
            make()


@pytest.mark.parametrize("theta", (5e-324, 0.0))
def test_profile_matrix_at_vanishing_theta_warns_nothing(theta):
    n = 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = sample_left_profile_matrix(RbParams(n, theta), 200, 2, RandomSource(1))
    assert (matrix[:, 0] == n - 1).all()
    assert not matrix[:, 1:].any()
