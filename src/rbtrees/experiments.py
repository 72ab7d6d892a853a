"""Experiment drivers confronting samples with exact laws and bounds.

Every run_* function is a pure function of its config and seed. Monte Carlo
trials go through one driver, :func:`_run_trials`: the trials at the i-th n
come in blocks sized by the nodes a tree holds, which depend on n and theta
alone, block b drawn in one call from the stream
``RandomSource(seed, (i << 32) | b)``. The blocks run one after
another in trial order, so reruns reproduce identical tables. Height rows
from either sampler and record-count rows differ only in the draw function
they pass; a block of recursive heights is one :func:`sample_height_only`
sweep, and a block of record counts one :func:`sample_record_count` call.
The dominance check draws one profile matrix per n instead, the i-th n's
from ``RandomSource(seed, i << 32)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .analytics import (
    ExactDistribution,
    _poisson_tail,
    beta_product_survival,
    c_star,
    chernoff_record_tail,
    mu,
)
from .model import POSITIVE, RbParams, build_bst, check_int, check_real, height, record_count_tree
from .samplers import (
    _EXACT_MAX,
    RandomSource,
    sample_height_only,
    sample_left_profile_matrix,
    sample_record_count,
    sample_sequential,
)

CHI_SQUARE_MIN_EXPECTED = 5.0
DKW_ALPHA = 1e-3
DOMINANCE_GRID_SIZE = 50
# Monte Carlo trials are drawn in blocks of _BLOCK_TRIALS, or of as many as hold at most
# _BLOCK_NODES nodes, as _block_trials counts them. A block pays a RandomSource, one
# _record_keys call and the sweep's rounds of numpy calls once: at theta = 1 a height took
# 4.5, 12 and 25 us in blocks of 64 and 3.0, 6.5 and 17 us in blocks of 256, at n = 10**3,
# 10**4 and 10**5 (timeit minima, shared 2-core Xeon). Each table read gathers one 51-wide
# row per node, about 3 kB a tree, so blocks stay at 256: with no cap on trials, 200,000
# heights at n = 1000 peaked at 252 MiB against 78 MiB. The node cap keeps a block's arrays
# within those of one tree of 5 * 10**5 nodes at theta = n; with 2**20, n = 10**7 took
# blocks of 107 trees and peaked at 92 MiB against 76 MiB, and a tree took 1.2 ms either way.
_BLOCK_TRIALS = 256
_BLOCK_NODES = 1 << 19


def parse_theta_value(text: str) -> float:
    """Parse a theta literal: a decimal string or a rational like '3/2'."""
    text = text.strip()
    if "/" in text:
        try:
            return float(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        except OverflowError:
            raise ValueError(f"{text!r} is too large for a float") from None
    return float(text)


def resolve_theta(theta_spec, n: int) -> float:
    """Resolve a theta specification at size n.

    Accepts a finite number, a numeric string (including 'p/q'), or a tag:
    ``constant:X`` for theta = X, ``linear:A`` for theta = A * n, and
    ``power:P`` for theta = n ** P.
    """
    if not isinstance(theta_spec, str):
        return check_real("theta_spec", theta_spec, rule="a finite number or a string")
    text = theta_spec.strip()
    if ":" in text:
        tag, _, arg = text.partition(":")
        value = parse_theta_value(arg)
        if tag == "constant":
            return value
        if tag == "linear":
            return value * n
        if tag == "power":
            try:
                theta = float(n) ** value
            except (OverflowError, ZeroDivisionError):
                raise ValueError(f"theta spec {text!r} overflows at n = {n}") from None
            if theta == 0.0 and n > 0:
                raise ValueError(f"theta spec {text!r} underflows to 0 at n = {n}")
            return theta
        raise ValueError(f"unknown theta spec tag {tag!r}")
    return parse_theta_value(text)


def _int_tuple(name: str, values, least: int) -> tuple[int, ...]:
    """``values`` as a non-empty int tuple, in order, each at least ``least``."""
    ints = tuple(values) if isinstance(values, Iterable) and not isinstance(values, str) else ()
    if not ints:
        raise ValueError(f"{name} must be a non-empty sequence of integers, got {values!r}")
    return tuple(check_int(f"{name}[{i}]", v, least) for i, v in enumerate(ints))


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment input, checked before any draw; ``thetas`` is theta_spec at each n."""

    n_values: tuple[int, ...]
    theta_spec: object
    trials: int
    seed: int = 0
    epsilon: float | None = None
    j_values: tuple[int, ...] | None = None  # in the given order, which artifacts echo
    thetas: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        n_values = _int_tuple("n_values", self.n_values, 1)
        object.__setattr__(self, "n_values", n_values)
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        # _stream_index packs a block index, which is below trials, into the low 32 bits
        trials = check_int("trials", self.trials, 1, 1 << 32, "in [1, 2**32)")
        object.__setattr__(self, "trials", trials)
        # the rule RandomSource applies to the seed
        seed = check_int("seed", self.seed, 0, 1 << 64, "an unsigned 64-bit integer")
        object.__setattr__(self, "seed", seed)
        if self.epsilon is not None:
            epsilon = check_real("epsilon", self.epsilon, POSITIVE, rule="a finite positive number")
            object.__setattr__(self, "epsilon", epsilon)
        if self.j_values is not None:
            object.__setattr__(self, "j_values", _int_tuple("j_values", self.j_values, 0))
        thetas = tuple(resolve_theta(self.theta_spec, n) for n in n_values)
        for n, theta in zip(n_values, thetas):
            try:
                RbParams(n, theta)
            except ValueError as exc:
                raise ValueError(f"theta spec {self.theta_spec!r} at n = {n}: {exc}") from None
        object.__setattr__(self, "thetas", thetas)


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated height/record statistics for one (n, theta) cell."""

    n: int
    theta: float
    trials: int
    mean_height: float
    sd_height: float
    mean_records: float
    sd_records: float
    ratio_height_norm: float
    ratio_records_mu: float
    seed: int


@dataclass(frozen=True)
class RecordConcentrationRow:
    n: int
    theta: float
    trials: int
    epsilon: float
    mu: float
    mean_records: float
    sd_records: float
    freq_beyond: float
    bound_upper: float
    bound_lower: float
    bound_total: float
    binom_se: float
    passed: bool
    seed: int


@dataclass(frozen=True)
class DominanceRow:
    j: int
    n: int
    theta: float
    trials: int
    grid_size: int
    max_excess: float
    dkw_band: float
    passed: bool
    seed: int


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    cells: int


def dkw_epsilon(trials: int) -> float:
    """Uniform empirical-CDF deviation with failure probability DKW_ALPHA."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * check_int("trials", trials, 1)))


def height_normalizer(n: int, theta: float) -> float:
    """The height scale max(c_star * log n, mu(n, theta))."""
    n = check_int("n", n, 1)
    return max(c_star() * math.log(n), mu(n, theta))


def _stream_index(n_index: int, block: int) -> int:
    return (n_index << 32) | block


def _block_trials(n: int, theta: float) -> int:
    """Trials per block at (n, theta): _BLOCK_TRIALS, or fewer to hold at most _BLOCK_NODES nodes.

    A tree holds about mu(n, theta) spine records and at most about n / _EXACT_MAX frontier
    nodes, the subtrees its sweep splits; the rest of its n nodes are never materialized.
    """
    held = math.ceil(mu(n, theta) + n / _EXACT_MAX)
    return min(_BLOCK_TRIALS, max(1, _BLOCK_NODES // held))


def _recursive_heights(params: RbParams, rng: RandomSource, count: int) -> list:
    return [(s.height, s.records) for s in sample_height_only(params, rng, count)]


def _sequential_heights(params: RbParams, rng: RandomSource, count: int) -> list:
    trees = (build_bst(sample_sequential(params, rng)) for _ in range(count))
    return [(height(tree), record_count_tree(tree)) for tree in trees]


def _run_trials(draw, config: ExperimentConfig):
    """Yield ``(n, theta, draws)`` for each n of ``config`` in turn, the draws in trial order.

    The trials of the i-th n come in blocks of :func:`_block_trials` (n, theta), block b drawn by
    ``draw(params, rng, count)`` from ``RandomSource(seed, (i << 32) | b)``.
    """
    for n_index, (n, theta) in enumerate(zip(config.n_values, config.thetas)):
        params = RbParams(n, theta)
        size = _block_trials(n, theta)
        draws = []
        for b in range(-(-config.trials // size)):
            rng = RandomSource(config.seed, _stream_index(n_index, b))
            draws += draw(params, rng, min(size, config.trials - b * size))
        yield n, theta, draws


def _mean_sd(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, sd


def summarize(n: int, theta: float, heights, records, seed: int) -> TrialSummary:
    """Means, sds and normalized ratios of one (n, theta) cell's heights and records.

    Heights are divided by :func:`height_normalizer` and records by mu(n, theta), which is
    memoized, so it is computed once per row.
    """
    mean_h, sd_h = _mean_sd(np.asarray(heights))
    mean_r, sd_r = _mean_sd(np.asarray(records))
    m = mu(n, theta)
    norm = height_normalizer(n, theta)
    return TrialSummary(
        n=n,
        theta=theta,
        trials=len(heights),
        mean_height=mean_h,
        sd_height=sd_h,
        mean_records=mean_r,
        sd_records=sd_r,
        ratio_height_norm=mean_h / norm,
        ratio_records_mu=mean_r / m,
        seed=seed,
    )


def run_height_ratio(
    config: ExperimentConfig, *, progress=None, method: str = "recursive"
) -> list[TrialSummary]:
    """Sample heights per n and report means, sds, and normalized ratios.

    ``method`` picks the sampler: "recursive" (:func:`sample_height_only`, the
    rightmost-path decomposition) or "sequential" (insert a sequentially placed
    permutation into a BST). The ratio column divides by
    max(c_star * log n, mu(n, theta)); first and second moments of the ratio
    follow from (mean, sd) since the normalizer is a constant for fixed n.
    Every sample is hard-checked against height >= records - 1.
    """
    if method not in ("recursive", "sequential"):
        raise ValueError(f"method must be 'recursive' or 'sequential', got {method!r}")
    draw = {"recursive": _recursive_heights, "sequential": _sequential_heights}[method]
    rows = []
    for n, theta, draws in _run_trials(draw, config):
        heights, records = np.array(draws).T
        below = np.flatnonzero(heights < records - 1)
        if below.size:
            t = int(below[0])
            raise AssertionError(
                f"height {heights[t]} below records - 1 at n={n}, theta={theta}, trial={t}"
            )
        row = summarize(n, theta, heights, records, config.seed)
        rows.append(row)
        if progress is not None:
            progress(
                f"height-ratio n={n} theta={theta:g} mean_h={row.mean_height:.3f} "
                f"ratio={row.ratio_height_norm:.4f}"
            )
    return rows


def run_record_concentration(
    config: ExperimentConfig, progress=None
) -> list[RecordConcentrationRow]:
    """Compare the deviation frequency of record counts with its bound.

    For each n the empirical frequency of |records / mu - 1| > ``config.epsilon`` over
    the trials is put against the sum of the upper and lower exponential
    bounds; a row passes when the frequency is at most bound plus three
    binomial standard errors.
    """
    epsilon = config.epsilon
    if epsilon is None:
        raise ValueError("record concentration requires config.epsilon")
    rows = []
    for n, theta, draws in _run_trials(sample_record_count, config):
        params = RbParams(n, theta)
        m = mu(n, theta)
        counts = np.asarray(draws)
        beyond = np.abs(counts / m - 1.0) > epsilon
        freq = float(np.mean(beyond))
        upper, lower, total = chernoff_record_tail(params, epsilon)
        mean_r, sd_r = _mean_sd(counts)
        se = math.sqrt(freq * (1.0 - freq) / config.trials)
        rows.append(
            RecordConcentrationRow(
                n=n,
                theta=theta,
                trials=config.trials,
                epsilon=epsilon,
                mu=m,
                mean_records=mean_r,
                sd_records=sd_r,
                freq_beyond=freq,
                bound_upper=upper,
                bound_lower=lower,
                bound_total=total,
                binom_se=se,
                passed=bool(freq <= total + 3.0 * se),
                seed=config.seed,
            )
        )
        if progress is not None:
            progress(
                f"record-concentration n={n} theta={theta:g} freq={freq:.5f} "
                f"bound={total:.5f}"
            )
    return rows


def run_dominance_check(config: ExperimentConfig, progress=None) -> list[DominanceRow]:
    """Check that sampled profile entries stay below their dominating law.

    At the i-th n, one profile matrix of ``config.trials`` trees is drawn from stream
    ``RandomSource(seed, i << 32)``. For each j of ``config.j_values`` (0..20 when None), the
    empirical survival of the j-th left-subtree size is compared with that of j + n * prod(B_i)
    at the grid's thresholds below c = 1, where both can be positive; dominance is asserted up
    to twice the DKW band for the trial count. Rows come n by n, each in increasing j.
    """
    j_values = sorted(set(range(21) if config.j_values is None else config.j_values))
    if min(config.thetas) <= 0.0:
        raise ValueError("theta must be positive")
    band = dkw_epsilon(config.trials)
    # thresholds t = j + n * c with c log-spaced in (0, 1]; both survivals are 0 at c = 1
    cs = np.logspace(-6.0, 0.0, DOMINANCE_GRID_SIZE)[:-1]
    rows = []
    for n_index, (n, theta) in enumerate(zip(config.n_values, config.thetas)):
        rng = RandomSource(config.seed, _stream_index(n_index, 0))
        profile = sample_left_profile_matrix(RbParams(n, theta), config.trials, j_values[-1], rng)
        # with each column sorted, the entries above t are those past t's right insertion point.
        # The matrix is stored column by column, so each column sorts as one contiguous row:
        # 1.8-2.2 ms for 20,000 x 21 entries, against 3.8-4.6 ms stored by row
        columns = profile.T
        columns.sort(axis=1)
        for j in j_values:
            above = config.trials - np.searchsorted(columns[j], j + n * cs, side="right")
            empirical = above / config.trials
            dominating = np.array([beta_product_survival(theta, j, c) for c in cs.tolist()])
            max_excess = float(np.max(empirical - dominating))
            rows.append(
                DominanceRow(
                    j=j,
                    n=n,
                    theta=theta,
                    trials=config.trials,
                    grid_size=DOMINANCE_GRID_SIZE,
                    max_excess=max_excess,
                    dkw_band=band,
                    passed=bool(max_excess <= 2.0 * band),
                    seed=config.seed,
                )
            )
            if progress is not None:
                progress(f"dominance j={j} max_excess={max_excess:.5f} band={band:.5f}")
    return rows


def chi_square_gof(observed: Mapping, expected: ExactDistribution) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against an exact law.

    Cells are pooled in support order until each expected count reaches 5
    (a trailing remainder merges backwards). The p-value is the chi-square
    upper tail at cells - 1 degrees of freedom, Q(dof/2, x) with x = statistic/2, as a finite
    sum: for even dof, P(Poisson(x) < dof/2); for odd dof, erfc(sqrt(x)) plus the terms
    x**(a + 1/2) * exp(-x) / Gamma(a + 3/2) for a < dof // 2 of the recurrence
    Q(s + 1, x) = Q(s, x) + x**s * exp(-x) / Gamma(s + 1), capped at 1.0 against rounding.
    A statistic of 0 gives 1.0.
    """
    if not expected.support:
        raise ValueError("expected distribution has empty support")
    unknown = set(observed) - set(expected.support)
    if unknown:
        raise ValueError(f"observed outcomes outside expected support: {sorted(unknown)!r}")
    total = sum(observed.values())
    if total <= 0:
        raise ValueError("observed counts must be positive")
    cells: list[tuple[float, float]] = []
    acc_obs = 0.0
    acc_prob = 0.0
    for key, prob in zip(expected.support, expected.probs):
        acc_obs += observed.get(key, 0)
        acc_prob += prob
        if acc_prob * total >= CHI_SQUARE_MIN_EXPECTED:
            cells.append((acc_obs, acc_prob))
            acc_obs = 0.0
            acc_prob = 0.0
    if acc_prob > 0.0:
        if cells:
            last_obs, last_prob = cells[-1]
            cells[-1] = (last_obs + acc_obs, last_prob + acc_prob)
        else:
            cells.append((acc_obs, acc_prob))
    if len(cells) < 2:
        raise ValueError("only one cell after pooling; test is degenerate")
    statistic = math.fsum(
        (obs - total * prob) ** 2 / (total * prob) for obs, prob in cells
    )
    dof = len(cells) - 1
    x = statistic / 2.0
    if x == 0.0:
        p_value = 1.0
    elif dof % 2 == 0:
        p_value = 1.0 - _poisson_tail(x, dof // 2)
    else:
        log_x = math.log(x)
        terms = (math.exp((a + 0.5) * log_x - x - math.lgamma(a + 1.5)) for a in range(dof // 2))
        p_value = min(1.0, math.fsum([math.erfc(math.sqrt(x)), *terms]))
    return ChiSquareResult(statistic=statistic, p_value=p_value, dof=dof, cells=len(cells))
