"""Closed-form laws, tail bounds, and a brute-force enumeration oracle.

Everything here is deterministic. The enumeration oracle iterates all n!
permutations (capped at n = 8) and weights each by theta**records, which is
what every closed-form quantity in this module is tested against.

The dominating variables B used by the profile bounds have CDF x**theta on
(0, 1); equivalently -log(B) is exponential with rate theta.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .model import (
    POSITIVE,
    LeftProfile,
    Permutation,
    RbParams,
    _built,
    build_bst,
    check_int,
    check_real,
    height,
    left_profile,
)

ENUMERATION_MAX_N = 8
# mu sums its terms in numpy chunks of this many (64 KiB of float64)
_MU_CHUNK = 8192
# the split survival sums blocks of _BLOCK terms: within 2.3e-13 of a compensated per-step sum
# where A <= 700, against 1.4e-12 for 1024 and 2.4e-11 for one cumsum; chunks of 512 KiB
_BLOCK = 64
_CHUNK = 1 << 16

PROB_SUM_TOL = 1e-12
# the largest x with a finite exp(x)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ExactDistribution:
    """A finite distribution with distinct, sorted outcome keys."""

    support: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        support = tuple(self.support)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if len(support) != len(probs):
            raise ValueError("support and probs must have equal length")
        if len(set(support)) != len(support):
            raise ValueError("support keys must be distinct")
        if not all(p >= 0.0 for p in probs):  # negated, as below, so that NaN fails
            raise ValueError("probabilities must be non-negative")
        if support and not abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def from_weights(cls, weights: dict) -> "ExactDistribution":
        total = math.fsum(weights.values())
        keys = sorted(weights)
        return cls(
            support=tuple(keys),
            probs=tuple(weights[k] / total for k in keys),
        )


@dataclass(frozen=True)
class EnumeratedLaws:
    """Exact laws over all of S_n under the record-biased weighting."""

    n: int
    theta: float
    record: ExactDistribution
    first_value: ExactDistribution
    left_subtree_size: ExactDistribution
    height: ExactDistribution
    profile: ExactDistribution
    profile_height: ExactDistribution
    height_record_first: ExactDistribution


# each law of EnumeratedLaws as a function of a _perm_stats key (records, first, height, sizes)
_LAWS = {
    "record": itemgetter(0),
    "first_value": itemgetter(1),
    "left_subtree_size": lambda key: key[1] - 1,
    "height": itemgetter(2),
    "profile": itemgetter(3),
    "profile_height": itemgetter(3, 2),
    "height_record_first": itemgetter(2, 0, 1),
}


@lru_cache(maxsize=None)
def _perm_stats(n: int):
    """Aggregate (record, first, height, profile sizes) counts over S_n."""
    counts: dict[tuple, int] = {}
    for values in itertools.permutations(range(1, n + 1)):
        tree = build_bst(_built(Permutation, "values", values))
        prof = left_profile(tree)
        key = (prof.record_count, values[0], height(tree), prof.sizes)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def mu(n: int, theta: float) -> float:
    """Expected record count: sum of theta / (theta + i) for 0 <= i < n, and 1 at theta = 0.

    Summed term by term, which stays accurate for theta -> 0 and theta >> n (the digamma
    form theta (psi(theta + n) - psi(theta)) cancels there): numpy sums chunks of at most
    _MU_CHUNK terms, so memory stays small, and ``math.fsum`` adds the chunk sums. Memoized
    on the checked values: a height-ratio row asks for it more than once.
    """
    return _mu(check_int("n", n), check_real("theta", theta, 0.0, rule="finite and >= 0"))


@lru_cache(maxsize=None)
def _mu(n: int, theta: float) -> float:
    if theta == 0.0:
        # only the last step is a record, as it is at every theta
        return float(n > 0)
    return math.fsum(
        float(np.sum(theta / (theta + np.arange(lo, min(lo + _MU_CHUNK, n)))))
        for lo in range(0, n, _MU_CHUNK)
    )


def c_star() -> float:
    """The unique c >= 2 with c * log(2e / c) = 1 (about 4.311).

    This is the growth constant of the height of a binary search tree built
    from a uniform permutation. With c = -1/w the equation is w e^w = -1/(2e), so
    c = -1 / W_0(-1/(2e)) on the principal branch of Lambert's W; the literal is the
    float nearest that root (the 50-digit root is 4.31107040700100503504707609644689).
    """
    return 4.311070407001005


def uniform_height_table(k_max: int) -> np.ndarray:
    """``T[m, h + 1] = P(H_m <= h)`` for uniform BSTs of m <= k_max nodes, h >= -1.

    Devroye's recursion, level by level: ``F_h = (F_{h-1} * F_{h-1})[m - 1] / m`` for
    m >= 1, one convolution per level. The table ends at the first column where row k_max
    is 1.0, so every row's last column is 1.0 and later columns would all be ones. Its rows
    are those of any larger table, bit for bit, cut to its width. Read-only, as the height
    sweep keeps the largest one it has built for the life of the process.
    """
    k_max = check_int("k_max", k_max)
    # row m is exactly 1.0 from column m on, as every input to its convolution is, so the
    # loop ends by column k_max
    sizes = np.arange(1.0, k_max + 1)
    column = np.zeros(k_max + 1)
    column[0] = 1.0
    columns = [column]
    while column[k_max] != 1.0:
        below = column[:k_max]
        column = np.concatenate(([1.0], np.convolve(below, below)[:k_max] / sizes))
        columns.append(column)
    table = np.column_stack(columns)
    table.flags.writeable = False
    return table


def _split_survival_chunks(n: int, theta: float, k: int):
    """Yield A[0..k] of :func:`split_survival_table`, k < n, in consecutive chunks.

    The terms log1p(theta / s), s = n - i, stay well conditioned where theta / (theta + s)
    rounds to 1. ``np.cumsum`` adds them within blocks of _BLOCK, each offset by the running
    sum of the earlier blocks' totals plus the exact rounding error of its steps (TwoSum).
    Chunks of whole blocks carry both, so an entry's bits do not depend on k.
    """
    offset = err = 0.0
    for lo in range(0, k + 1, _CHUNK):
        size = min(_CHUNK, k + 1 - lo)
        # s = n - i for the entries i = lo.., then zeros up to a whole block
        blocks = np.arange(n - lo, n - lo - size - (-size % _BLOCK), -1.0)
        chunk = blocks[:size]
        np.log1p(np.divide(theta, chunk, out=chunk), out=chunk)
        blocks[size:] = 0.0
        if lo == 0:
            chunk[0] = 0.0
        blocks = blocks.reshape(-1, _BLOCK)
        np.cumsum(blocks, axis=1, out=blocks)
        totals = blocks[:, -1]
        sums = np.cumsum(np.concatenate(([offset], totals)))
        back = sums[1:] - sums[:-1]
        errs = (sums[:-1] - (sums[1:] - back)) + (totals - back)
        errs = np.cumsum(np.concatenate(([err], errs)))
        blocks += (sums[:-1] + errs[:-1])[:, None]
        offset, err = sums[-1], errs[-1]
        yield chunk


def split_survival_table(n: int, theta: float) -> np.ndarray:
    """A[i] = -log P(no record in the first i of n steps) for i < n, and A[n] = +inf.

    Of the m = n - d nodes left after d, the left subtree takes at least k with chance
    exp(A[d] - A[d + k]): the law of :func:`root_split_distribution` at m. Its 8 (n + 1)
    bytes take 0.09-0.13 ms to build at n = 10**4 and 8.8-9.8 ms at 10**6 (2-core Xeon).
    """
    table = np.empty(n + 1)
    for lo, chunk in zip(range(0, n, _CHUNK), _split_survival_chunks(n, theta, n - 1)):
        table[lo : lo + len(chunk)] = chunk
    table[n] = np.inf  # at n = 0 this is A[0], which no draw reads
    return table


def root_split_pmf(params: RbParams, k: int) -> float:
    """P(first inserted value equals k) for a record-biased permutation."""
    n, theta = params.n, params.theta
    check_int("n", n, 1)
    k = check_int("k", k, 1, n + 1)
    survival = left_root_tail(params, k - 1)
    # the last step is a record with chance 1 at every theta
    return survival * theta / (theta + (n - k)) if k < n else survival


def root_split_distribution(params: RbParams) -> list[float]:
    """The full first-value law as a length-n list (index k-1 is P(k))."""
    n, theta = params.n, params.theta
    check_int("n", n, 1)
    *survivals, last = map(math.exp, np.negative(split_survival_table(n, theta)[:n]).tolist())
    return [s * theta / (theta + (n - k)) for k, s in enumerate(survivals, 1)] + [last]


def left_root_tail(params: RbParams, k: int) -> float:
    """P(the root's left subtree has at least k nodes): exp(-A[k]), read in O(_CHUNK) memory."""
    n, theta = params.n, params.theta
    k = check_int("k", k, 0, n + 1)
    if k == n:
        return 0.0
    for chunk in _split_survival_chunks(n, theta, k):
        pass
    return math.exp(-chunk[-1])


def _expm1(t: float) -> float:
    try:
        return math.expm1(t)
    except OverflowError:
        raise ValueError(f"t = {t} is too large: e^t - 1 overflows a float") from None


def records_mgf(params: RbParams, t: float) -> float:
    """E[exp(t * records)]: the product over steps of 1 + (e^t - 1) * p.

    A step with k steps after it is a record with probability p = theta / (theta + k). The
    forced final step has p = 1 at every theta, so its factor is exactly e^t; taking it as t in
    log space keeps the product accurate where e^t - 1 rounds to -1.
    """
    n, theta = params.n, params.theta
    t = check_real("t", t, rule="finite")
    if n == 0:
        return 1.0
    em1 = _expm1(t)

    def log_factor(k: int) -> float:
        p = theta / (theta + k)
        # near x = -1, 1 + x keeps few digits of 1 - p (none once p rounds to 1): add the parts
        x = em1 * p
        return math.log1p(x) if x > -0.5 else math.log(k / (theta + k) + p * math.exp(t))

    # fsum is correctly rounded in any order, so a generator keeps the value and O(1) memory
    log_mgf = math.fsum(itertools.chain((t,), map(log_factor, range(1, n))))
    if log_mgf > _LOG_FLOAT_MAX:
        raise ValueError(f"t = {t} is too large: E[exp(t * records)] overflows a float")
    return math.exp(log_mgf)


def chernoff_record_tail(params: RbParams, epsilon: float) -> tuple[float, float, float]:
    """Optimized exponential-moment bounds on the record-count deviation.

    Returns ``(upper, lower, two_sided)``: upper bounds P(records >= (1 + eps) * mu) by
    exp(-mu * ((1+eps) log(1+eps) - eps)); lower bounds P(records <= (1 - eps) * mu) by
    exp(-mu * (eps + (1-eps) log(1-eps))), degenerating to exp(-mu) once eps >= 1;
    two_sided is min(1, upper + lower). All lie in [0, 1] and decrease in mu; 0.0 stands for
    a tail below the smallest float, as at n = 10**5 and theta >= 10**6.
    """
    epsilon = check_real("epsilon", epsilon, POSITIVE, rule="positive and finite")
    m = _mu(check_int("n", params.n, 1), params.theta)
    upper = math.exp(-m * ((1.0 + epsilon) * math.log1p(epsilon) - epsilon))
    if epsilon >= 1.0:
        lower = math.exp(-m)
    else:
        lower = math.exp(-m * (epsilon + (1.0 - epsilon) * math.log1p(-epsilon)))
    return upper, lower, min(1.0, upper + lower)


def _poisson_tail(x: float, j: int) -> float:
    """P(Poisson(x) >= j) for x > 0 and j >= 1.

    Sums the side of j away from the mode x: if x < j, the upper tail from pmf(j) on by
    factors x/k; otherwise the lower sum from pmf(j - 1) down by factors k/x, and returns one
    minus it. Each sum starts at its largest term, so every term is a probability, and it
    stops once a term falls below the float epsilon of the running total; a small upper tail
    keeps its relative precision. The first term's exponent rounds parts of size x, which
    costs about 1e-15 * x absolute.
    """
    if x < j:
        k = j
        term = total = math.exp(j * math.log(x) - x - math.lgamma(j + 1))
        while term > total * 2.2e-17:
            k += 1
            term *= x / k
            total += term
        return total
    k = j - 1
    term = total = math.exp(k * math.log(x) - x - math.lgamma(j))
    while term > total * 2.2e-17:
        term *= k / x
        k -= 1
        total += term
    return 1.0 - total


def beta_product_survival(theta: float, j: int, c: float) -> float:
    """P(product of j independent B-variables exceeds c), B with CDF x**theta.

    -log(B) is exponential with rate theta, so the product exceeds c exactly when fewer than
    j arrivals of a rate-theta Poisson process fall in [0, -log c]: the survival is
    P(Poisson(x) >= j) with x = theta * (-log c), the finite sum of :func:`_poisson_tail`
    (the regularized lower incomplete gamma P(j, x)). An x that underflows to 0 or overflows
    to inf, at the ends of theta's range, gives 0.0 or 1.0.
    """
    theta = check_real("theta", theta, POSITIVE, rule="positive and finite")
    c = check_real("c", c, POSITIVE, 1.0, rule="strictly between 0 and 1")
    j = check_int("j", j)
    if j == 0:
        return 1.0
    x = theta * -math.log(c)
    return _poisson_tail(x, j) if 0.0 < x < math.inf else float(x > 0.0)


def profile_tail_constants(theta: float, epsilon: float) -> tuple[float, float]:
    """The constants ``(C, lam)`` of :func:`left_profile_tail_bound`.

    ``C = 1 / (1 - (1 - epsilon*theta) * exp(epsilon*theta))`` and
    ``lam = epsilon * theta**2 / (1 - epsilon*theta)``; both need 0 < epsilon * theta < 1.
    """
    theta = check_real("theta", theta, POSITIVE, rule="positive and finite")
    epsilon = check_real("epsilon", epsilon, POSITIVE, rule="positive and finite")
    u = epsilon * theta
    if u >= 1.0:
        raise ValueError(f"epsilon * theta must be < 1, got {u}")
    # 1 - (1 - u) e^u as its series: the closed form cancels to u^2 / 2 for small u
    gap = math.fsum((k - 1) * u**k / math.factorial(k) for k in range(2, 42))
    C = 1.0 / gap if gap > 0.0 else math.inf
    if not math.isfinite(C):
        raise ValueError(f"epsilon * theta = {u} is too small: C = 1 / {gap} is not finite")
    return C, epsilon * theta * theta / (1.0 - u)


def left_profile_tail_bound(params: RbParams, epsilon: float, M: float, k: int) -> float:
    """Bound on P(some j <= k has profile entry above n * exp(-(1/theta - eps) j + M)).

    Returns C * exp(-lam * M) * (1 - Xi)**(-lam) with C and lam from
    :func:`profile_tail_constants` and Xi = k * exp((1/theta - eps) k) / (n * exp(M));
    may exceed 1.
    """
    n, theta = params.n, params.theta
    C, lam = profile_tail_constants(theta, epsilon)
    M = check_real("M", M, 0.0, rule="finite and >= 0")
    k = check_int("k", k)
    check_int("n", n, 1)
    if k == 0:
        log_xi = -math.inf
    else:
        log_xi = math.log(k) + (1.0 / theta - epsilon) * k - math.log(n) - M
    if log_xi >= 0.0:
        raise ValueError("precondition violated: k * exp((1/theta - eps) k) >= n * exp(M)")
    xi = math.exp(log_xi)
    return C * math.exp(-lam * M) * (1.0 - xi) ** (-lam)


def profile_exceedance_thresholds(params: RbParams, epsilon: float, M: float, k: int) -> list[float]:
    """Thresholds n * exp(-(1/theta - epsilon) j + M) for j = 0..k.

    A profile triggers the event bounded by :func:`left_profile_tail_bound`
    when some entry j <= k strictly exceeds its threshold.
    """
    n, theta = params.n, params.theta
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    epsilon = check_real("epsilon", epsilon, POSITIVE, rule="positive and finite")
    M = check_real("M", M, 0.0, rule="finite and >= 0")
    rate = 1.0 / theta - epsilon
    return [n * math.exp(-rate * j + M) for j in range(check_int("k", k) + 1)]


def conditional_height_tail_bound(profile: LeftProfile, eta: int, t: float) -> float:
    """Bound on P(height >= eta) given the left-subtree size profile.

    Sums (2 e^{-t})^(eta - j) * (k_j + 1)^(e^t - 1) over spine positions
    j = 0..r, where k_j = 0 beyond the profile's end. The terms are added in log space,
    shifted by the largest, since a factor can overflow where the sum does not.
    """
    eta = check_int("eta", eta)
    t = check_real("t", t, POSITIVE, rule="positive and finite")
    log_base = math.log(2.0) - t
    power = _expm1(t)
    r = profile.record_count
    logs = [
        (eta - j) * log_base + power * math.log1p(profile.sizes[j] if j < r else 0)
        for j in range(r + 1)
    ]
    top = max(logs)
    log_bound = top + math.log(math.fsum(math.exp(x - top) for x in logs))
    # the negated test also rejects the NaN left by a term beyond the float range
    if not log_bound <= _LOG_FLOAT_MAX:
        raise ValueError(f"the bound at eta = {eta}, t = {t} exceeds the float range")
    return math.exp(log_bound)


def enumerate_exact(params: RbParams) -> EnumeratedLaws:
    """Exact laws of records, first value, left size, height, and profile.

    Iterates all n! permutations of S_n weighted by theta**records, so n is
    capped at 8 and theta = 0 is rejected (the weighting is degenerate
    there; the theta -> 0 limit lives in the samplers).
    """
    rule = f"an integer with 1 <= n <= {ENUMERATION_MAX_N}, as all n! permutations are iterated"
    n, theta = check_int("n", params.n, 1, ENUMERATION_MAX_N + 1, rule=rule), params.theta
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    keys = [key for key, _ in _perm_stats(n)]
    # theta**records relative to the heaviest record count (n for theta > 1, else 1), so no
    # weight exceeds its count and none overflows
    heaviest = n if theta > 1.0 else 1
    weights = [count * theta ** (key[0] - heaviest) for key, count in _perm_stats(n)]
    laws = {}
    for name, outcome in _LAWS.items():
        law_w: dict = {}
        for value, w in zip(map(outcome, keys), weights):
            law_w[value] = law_w.get(value, 0.0) + w
        laws[name] = ExactDistribution.from_weights(law_w)
    return EnumeratedLaws(n=n, theta=theta, **laws)
