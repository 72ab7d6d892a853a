"""One rule for every real argument: any real number but a bool, finite and in range.

Anything else is refused with one ValueError whose message starts with the argument's name.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rbtrees.analytics import (
    ExactDistribution,
    beta_product_survival,
    chernoff_record_tail,
    conditional_height_tail_bound,
    left_profile_tail_bound,
    mu,
    profile_exceedance_thresholds,
    profile_tail_constants,
    records_mgf,
    root_split_distribution,
    root_split_pmf,
)
from rbtrees.cli import main
from rbtrees.experiments import ExperimentConfig, height_normalizer, resolve_theta
from rbtrees.model import LeftProfile, RbParams, check_real

P = RbParams(10, 2.0)
BAD_VALUES = (True, "0.5", None, math.nan, math.inf)


def _config(**settings):
    return ExperimentConfig(**{"n_values": (10,), "theta_spec": 1.0, "trials": 2, **settings})


# (the name the message starts with, a call that passes the value as that argument, a value
# out of the argument's range)
ARGUMENTS = {
    "RbParams.theta": ("theta", lambda v: RbParams(5, v), -0.5),
    "mu.theta": ("theta", lambda v: mu(10, v), -0.5),
    "height_normalizer.theta": ("theta", lambda v: height_normalizer(10, v), -0.5),
    "chernoff_record_tail.epsilon": ("epsilon", lambda v: chernoff_record_tail(P, v), 0.0),
    "beta_product_survival.theta": ("theta", lambda v: beta_product_survival(v, 2, 0.1), 0.0),
    "beta_product_survival.c": ("c", lambda v: beta_product_survival(2.0, 2, v), 1.0),
    "profile_tail_constants.theta": ("theta", lambda v: profile_tail_constants(v, 0.1), 0.0),
    "profile_tail_constants.epsilon": ("epsilon", lambda v: profile_tail_constants(2.0, v), -0.1),
    "left_profile_tail_bound.epsilon": (
        "epsilon",
        lambda v: left_profile_tail_bound(RbParams(10**4, 2.0), v, 4.0, 2),
        0.0,
    ),
    "left_profile_tail_bound.M": (
        "M",
        lambda v: left_profile_tail_bound(RbParams(10**4, 2.0), 0.1, v, 2),
        -1.0,
    ),
    "profile_exceedance_thresholds.epsilon": (
        "epsilon",
        lambda v: profile_exceedance_thresholds(P, v, 1.0, 2),
        0.0,
    ),
    "profile_exceedance_thresholds.M": (
        "M",
        lambda v: profile_exceedance_thresholds(P, 0.1, v, 2),
        -1.0,
    ),
    "conditional_height_tail_bound.t": (
        "t",
        lambda v: conditional_height_tail_bound(LeftProfile((1, 2)), 3, v),
        0.0,
    ),
    "records_mgf.t": ("t", lambda v: records_mgf(P, v), -math.inf),
    "ExperimentConfig.epsilon": ("epsilon", lambda v: _config(epsilon=v), 0.0),
    "ExperimentConfig.theta_spec": ("theta_spec", lambda v: _config(theta_spec=v), -math.inf),
    "resolve_theta.theta_spec": ("theta_spec", lambda v: resolve_theta(v, 10), -math.inf),
}
# a string is a theta spec, not a number given as text
STRING_IS_SPEC = {"ExperimentConfig.theta_spec", "resolve_theta.theta_spec"}
# an epsilon of None is no epsilon: record concentration asks for one, other drivers do not
NONE_IS_ABSENT = {"ExperimentConfig.epsilon"}


@pytest.mark.parametrize("value", (*BAD_VALUES, "out of range"), ids=repr)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_every_real_argument_refuses_what_is_not_a_real_in_range(argument, value):
    name, call, out_of_range = ARGUMENTS[argument]
    if value == "out of range":
        value = out_of_range
    elif value == "0.5" and argument in STRING_IS_SPEC:
        call(value)  # the spec theta = 0.5
        return
    elif value is None and argument in NONE_IS_ABSENT:
        assert call(value).epsilon is None
        return
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value).startswith(f"{name} must be "), str(excinfo.value)


@pytest.mark.parametrize(
    "call,name",
    (
        (lambda: mu(10, -0.5), "theta"),
        (lambda: mu(10, -1.0), "theta"),
        (lambda: height_normalizer(10, -0.5), "theta"),
        (lambda: RbParams(5, True), "theta"),
        (lambda: RbParams(5, "2.5"), "theta"),
        (lambda: RbParams(5, None), "theta"),
        (lambda: chernoff_record_tail(P, True), "epsilon"),
        (lambda: beta_product_survival(math.nan, 2, 0.1), "theta"),
        (lambda: profile_exceedance_thresholds(P, math.nan, 1.0, 2), "epsilon"),
        (lambda: records_mgf(P, math.nan), "t"),
        (lambda: mu(10, [0.5]), "theta"),
    ),
    ids=(
        "mu--0.5",
        "mu--1",
        "height_normalizer--0.5",
        "RbParams-True",
        "RbParams-str",
        "RbParams-None",
        "chernoff-True",
        "beta-nan",
        "thresholds-nan",
        "mgf-nan",
        "mu-list",
    ),
)
def test_reals_once_let_through_are_refused_by_name(call, name):
    # each of these once returned a result, or another error than this one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            call()
    assert str(excinfo.value).startswith(f"{name} must be "), str(excinfo.value)


@pytest.mark.parametrize("probs", ((math.nan, math.nan), (1.0, math.nan), (math.nan, 0.0)))
def test_nan_probabilities_make_no_distribution(probs):
    with pytest.raises(ValueError, match="non-negative"):
        ExactDistribution((1, 2), probs)


@pytest.mark.parametrize("theta", (np.float32(0.5), Fraction(1, 2), np.float64(0.5)), ids=repr)
def test_numpy_floats_and_fractions_act_as_floats(theta):
    params = RbParams(5, theta)
    assert params == RbParams(5, 0.5) and type(params.theta) is float
    assert mu(10, theta) == mu(10, 0.5)
    assert beta_product_survival(theta, 3, Fraction(1, 4)) == beta_product_survival(0.5, 3, 0.25)
    assert chernoff_record_tail(P, theta) == chernoff_record_tail(P, 0.5)
    assert _config(epsilon=theta).epsilon == 0.5 and resolve_theta(theta, 10) == 0.5


def test_integers_are_reals_until_past_the_float_range():
    assert RbParams(5, 2) == RbParams(5, 2.0) and type(RbParams(5, 2).theta) is float
    assert check_real("x", np.int64(3)) == 3.0
    for call in (lambda: RbParams(5, 10**400), lambda: check_real("theta", -(10**400), 0.0)):
        with pytest.raises(ValueError, match="^theta is too large for a float$"):
            call()


def test_the_rule_admits_its_least_and_refuses_its_bound():
    assert check_real("x", 0.0, 0.0, 1.0) == 0.0
    assert check_real("x", math.ulp(0.0), math.ulp(0.0)) == math.ulp(0.0)
    with pytest.raises(ValueError, match=r"^x must be a finite number in \[0.0, 1.0\), got 1.0$"):
        check_real("x", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="^x must be positive, got 0.0$"):
        check_real("x", 0.0, math.ulp(0.0), rule="positive")


@pytest.mark.parametrize("theta", ("nan", "inf", "-1", "1/0", "abc"))
def test_cli_theta_takes_the_rule_and_exits_2(capsys, theta):
    with pytest.raises(SystemExit) as excinfo:
        main(["exact", "mu", "--n", "3", "--theta", theta])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --theta: bad theta {theta!r}: " in err and "Traceback" not in err


@pytest.mark.parametrize("n", (1, 2, 5, 100))
def test_split_law_at_theta_zero_puts_the_root_last(n):
    params = RbParams(n, 0.0)
    assert root_split_pmf(params, n) == 1.0
    assert root_split_distribution(params) == [0.0] * (n - 1) + [1.0]
    assert all(root_split_pmf(params, k) == 0.0 for k in range(1, n))
