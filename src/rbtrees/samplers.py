"""Seeded random generation of record-biased permutations and trees.

Two mechanisms draw the same law. The sequential generator places values one
at a time, each at the leftmost open position with probability
theta / (theta + remaining) and at a uniform other one otherwise. The
recursive generator splits top-down along the paper's decomposition: all of
theta sits on the rightmost path (the records), split by one rule (a scan of
the per-step record chances, or one Beta-binomial variate for large splits),
and every subtree off it is a uniform BST with uniform splits. The height and
record-count samplers draw that path the same way.

Randomness contract: a (seed, stream_index) pair of unsigned 64-bit integers
identifies a stream, a PCG64 engine keyed by a SeedSequence of the pair's four
32-bit words: distinct pairs give independent streams, identical pairs
identical draws within this implementation. The stream yields uniform
variates and, for closed-form splits, binomial variates from the same engine.
Cross-platform bit-exactness is not promised.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .model import NO_CHILD, BstTree, Permutation, RbParams

# A rightmost-path split of m nodes scans the per-step record chances when theta > 0 and
# m <= _SPINE_SCAN_PER_THETA * theta (see _scans), and otherwise draws a Beta-binomial
# variate; uniform subtrees of at most _EXACT_MAX nodes draw their height from a table.
# Below the bound a tail of m nodes holds about theta log(1 + m / theta) splits (7 theta at
# m = 1024 theta), which cost about as much drawn one by one (~3 us each) as its m uniforms
# scanned in numpy (~10 ns each), at any theta. _spine_profile reads at most
# _SPINE_SCAN_BLOCK uniforms at a time, which only bounds its memory.
_EXACT_MAX = 64
_SPINE_SCAN_PER_THETA = 1024.0
_SPINE_SCAN_BLOCK = 4095


class RandomSource:
    """A reproducible stream of uniform variates, with binomial ones on request.

    Scalar draws are served from an internal block buffer for speed; this is
    an implementation detail and does not affect reproducibility.
    """

    _BLOCK = 4096

    def __init__(self, seed: int, stream_index: int = 0):
        for name, value in (("seed", seed), ("stream_index", stream_index)):
            if not isinstance(value, int) or not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        self.seed = seed
        self.stream_index = stream_index
        # four 32-bit words, so that the key is injective in the pair
        words = (seed & 0xFFFFFFFF, seed >> 32, stream_index & 0xFFFFFFFF, stream_index >> 32)
        key = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        self._gen = np.random.Generator(np.random.PCG64(key))
        self._buf = np.empty(0)
        self._pos = 0

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_index={self.stream_index})"

    def random(self) -> float:
        """One uniform variate in [0, 1)."""
        if self._pos == len(self._buf):
            self._buf = self._gen.random(self._BLOCK)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return float(value)

    def randoms(self, count: int) -> np.ndarray:
        """The next ``count`` uniform variates, the same as ``count`` calls of :meth:`random`."""
        if count < 0:
            raise ValueError("count must be non-negative")
        available = len(self._buf) - self._pos
        if count <= available:
            out = self._buf[self._pos : self._pos + count].copy()
            self._pos += count
            return out
        head = self._buf[self._pos :].copy()
        self._pos = len(self._buf)
        tail = self._gen.random(count - len(head))
        return np.concatenate([head, tail])

    def binomial(self, trials, probs):
        """Binomial(trials, probs) variates from the stream's engine, elementwise for arrays."""
        return self._gen.binomial(trials, probs)


def sample_sequential(params: RbParams, rng: RandomSource) -> Permutation:
    """Draw a record-biased permutation by sequential placement.

    At step i the value i goes to the leftmost open position with
    probability theta / (theta + n - i) and to a uniformly chosen other open
    position otherwise; for theta = 0 the leftmost position is taken only
    when it is the only one left. Consumes between n and 2n uniforms.

    The open positions sit unordered in ``slots[:n - i + 1]`` with ``where``
    mapping each to its index there; a filled one is swap-removed with the
    last open slot (Durstenfeld's shuffle step), so every step is O(1). ``lo``
    only moves right, past filled positions, after the leftmost one is taken.
    """
    n, theta = params.n, params.theta
    values = [0] * n
    slots = list(range(n))
    where = list(range(n))
    lo = 0
    for i in range(1, n + 1):
        others = n - i
        u = rng.random()
        if others == 0 or (theta > 0.0 and u < theta / (theta + others)):
            pos = lo
        else:
            # a uniform index among the others + 1 open slots, skipping lo's
            j = int(rng.random() * others)
            pos = slots[j + (j >= where[lo])]
        values[pos] = i
        last = slots[others]
        slots[where[pos]] = last
        where[last] = where[pos]
        if pos == lo and others:
            while values[lo]:
                lo += 1
    return Permutation(tuple(values))


def _split_sizes(m, theta: float, rng: RandomSource):
    """Left-subtree sizes of record-biased trees of m >= 1 nodes; m is an int or an int64 array.

    The size is Beta-binomial(m - 1, 1, theta): Binomial(m - 1, W) with W = 1 - U**(1/theta)
    of law Beta(1, theta), so P(K = k) = theta (m-1)!/(m-1-k)! Gamma(theta+m-1-k)/Gamma(theta+m).
    """
    if theta == 0.0:
        return m - 1
    if isinstance(m, np.ndarray):
        with np.errstate(divide="ignore"):
            w = -np.expm1(np.log(rng.randoms(len(m))) / theta)
    else:
        u = rng.random()
        w = -math.expm1(math.log(u) / theta) if u > 0.0 else 1.0
    return rng.binomial(m - 1, w)


def _scans(m: int, theta: float) -> bool:
    """Whether a rightmost-path split of m nodes scans rather than draw :func:`_split_sizes`."""
    return theta > 0.0 and m <= _SPINE_SCAN_PER_THETA * theta


def _sample_left_size(m: int, theta: float, rng: RandomSource) -> int:
    """Left-subtree size (first value minus 1) for a record-biased tree of m >= 1 nodes.

    Where :func:`_scans` holds, the per-step record chances are scanned directly, mirroring
    the sequential mechanism, whose last step has chance 1; otherwise the law is drawn in
    closed form.
    """
    if not _scans(m, theta):
        return _split_sizes(m, theta, rng)
    for i in range(1, m + 1):
        if rng.random() < theta / (theta + (m - i)):
            return i - 1


def sample_tree_recursive(params: RbParams, rng: RandomSource) -> BstTree:
    """Generate a record-biased tree top-down from root splits.

    Rightmost-path nodes draw their left size with :func:`_sample_left_size`, every other
    node a uniform split. Right children are popped first, so the rightmost path is drawn
    first and its left sizes equal :func:`_spine_profile`'s for the same stream.
    """
    n, theta = params.n, params.theta
    tree = BstTree()
    if n == 0:
        return tree
    labels, left, right = tree.labels, tree.left, tree.right
    tree.root = 0
    # stack entries: (lo, hi, parent index, is_left_child, on the rightmost path)
    stack = [(1, n, NO_CHILD, False, True)]
    while stack:
        lo, hi, parent, is_left, on_spine = stack.pop()
        m = hi - lo + 1
        label = lo + (_sample_left_size(m, theta, rng) if on_spine else int(rng.random() * m))
        idx = len(labels)
        labels.append(label)
        left.append(NO_CHILD)
        right.append(NO_CHILD)
        if parent != NO_CHILD:
            if is_left:
                left[parent] = idx
            else:
                right[parent] = idx
        if lo <= label - 1:
            stack.append((lo, label - 1, idx, True, False))
        if label + 1 <= hi:
            stack.append((label + 1, hi, idx, False, on_spine))
    return tree


class HeightSample(NamedTuple):
    """A tree's height and the int64 left-subtree sizes along its rightmost path, one per record."""

    height: int
    sizes: np.ndarray

    @property
    def records(self) -> int:
        return len(self.sizes)


def _spine_profile(n: int, theta: float, rng: RandomSource) -> np.ndarray:
    """Left-subtree sizes along the rightmost path, as an int64 array.

    Splits are drawn one by one in closed form until :func:`_scans` holds. All later ones
    scan: step p of the remaining m steps ends a split with chance
    theta / (theta + m - 1 - p), whichever split it falls in, so the tail is read in blocks of
    at most _SPINE_SCAN_BLOCK uniforms, carrying the last hit from block to block. The sizes
    and the stream position equal those of split-by-split scans for a tail of any length.
    """
    head, m = [], n
    while m > 0 and not _scans(m, theta):
        head.append(_split_sizes(m, theta, rng))
        m -= head[-1] + 1
    sizes, last = [np.array(head, dtype=np.int64)], -1
    for lo in range(0, m, _SPINE_SCAN_BLOCK):
        b = min(_SPINE_SCAN_BLOCK, m - lo)
        hits = np.flatnonzero(rng.randoms(b) < theta / (theta + np.arange(m - 1 - lo, m - 1 - lo - b, -1)))
        sizes.append(hits - np.concatenate(([last - lo], hits[:-1])) - 1)
        if len(hits):
            last = lo + int(hits[-1])
    return np.concatenate(sizes)


@functools.cache
def _uniform_height_cdf(k_max: int) -> np.ndarray:
    """``T[m, h + 1] = P(H_m <= h)`` for uniform BSTs of m <= k_max nodes, h >= -1.

    Devroye's recursion: ``F_m(h) = (1/m) sum_k F_k(h - 1) F_{m-1-k}(h - 1)``.
    """
    table = np.zeros((k_max + 1, k_max + 1))
    table[0] = 1.0
    for m in range(1, k_max + 1):
        table[m, 1:] = (table[:m, :-1] * table[m - 1 :: -1, :-1]).sum(axis=0) / m
    table.flags.writeable = False
    return table


def _sweep_heights(spines: list[np.ndarray], rng: RandomSource) -> np.ndarray:
    """Heights of trees whose j-th spine node carries a uniform BST of spines[t][j] nodes.

    The subtrees of every tree start at once, tree t's j-th below depth ``top`` = j, each
    node tagged with its tree. Each round splits all live nodes with one draw and drops
    nodes whose reach, top + size, cannot beat their tree's best depth so far; nodes of at
    most _EXACT_MAX nodes read the draw from the exact height table instead. Each spine is
    pruned against its own records - 1 before the spines are joined, so long spines whose
    subtrees are all too small cost no more joined than one by one. A tree makes the same
    draws swept alone as first in a block.
    """
    table = _uniform_height_cdf(_EXACT_MAX)
    lengths = [len(s) for s in spines]
    best = np.array(lengths, dtype=np.int64) - 1
    # a spine of r nodes keeps its j-th subtree iff size >= r - j
    desc = np.arange(max(lengths), 0, -1)
    tops = [(s >= desc[len(desc) - len(s) :]).nonzero()[0] for s in spines]
    size = np.concatenate([s[top] for s, top in zip(spines, tops)])
    tree = np.repeat(np.arange(len(spines)), [len(top) for top in tops])
    top = np.concatenate(tops)
    # the height read from u beats best exactly when u >= P(H_m <= best - top), and a node
    # lives while its size passes that floor; every node left by the pruning above does
    floor = np.maximum(best[tree] - top, 0)
    while len(size):
        us = rng.randoms(len(size))
        small = size <= _EXACT_MAX
        # row 0 (all ones) keeps nodes over _EXACT_MAX out; a subtree rooted at depth
        # top + 1 reads its height from u as (count of row entries <= u) - 1
        rows = size * small
        over = (us >= table[rows, floor * small]).nonzero()[0]
        if len(over):
            reads = (table[rows[over]] <= us[over, None]).sum(axis=1)
            np.maximum.at(best, tree[over], top[over] + reads)
        big = (~small).nonzero()[0]
        if not len(big):
            break
        size, top, tree, us = size[big], top[big], tree[big], us[big]
        left = np.minimum((us * size).astype(np.int64), size - 1)
        size = np.concatenate((left, size - 1 - left))
        top = np.concatenate((top, top)) + 1
        tree = np.concatenate((tree, tree))
        floor = np.maximum(best[tree] - top, 0)
        live = size > floor
        size, top, tree, floor = size[live], top[live], tree[live], floor[live]
    return best


def sample_height_only(
    params: RbParams, rng: RandomSource, trials: int | None = None
) -> HeightSample | list[HeightSample]:
    """Sample the height and the spine sizes without materializing labels.

    Same joint law as :func:`sample_tree_recursive` followed by the model
    statistics. One pruned sweep over the uniform subtrees off the spine, which
    ends small subtrees with one draw from an exact height table, gives the
    height in O(spine + frontier) memory, so n in the millions is fine.

    With ``trials`` None this returns one :class:`HeightSample`. With an int it returns a
    list of that many independent samples: their spines are drawn one after another, then
    one sweep runs over all their subtrees. ``trials=1`` makes the same draws as None.
    """
    count = 1 if trials is None else trials
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise ValueError(f"trials must be None or an integer >= 1, got {trials!r}")
    spines = [_spine_profile(params.n, params.theta, rng) for _ in range(count)]
    heights = _sweep_heights(spines, rng).tolist()
    samples = [HeightSample(h, s) for h, s in zip(heights, spines)]
    return samples[0] if trials is None else samples


def sample_record_count(params: RbParams, rng: RandomSource) -> int:
    """Record count alone: the length of the rightmost path drawn by :func:`_spine_profile`."""
    return len(_spine_profile(params.n, params.theta, rng))


def sample_left_profile_matrix(
    params: RbParams, trials: int, max_j: int, rng: RandomSource
) -> np.ndarray:
    """Profile entries k_0..k_max_j for many independent trees at once.

    Returns an int64 array of shape (trials, max_j + 1); positions past a
    tree's spine end are 0.
    """
    n, theta = params.n, params.theta
    if trials < 1:
        raise ValueError("trials must be at least 1")
    remaining = np.full(trials, n, dtype=np.int64)
    out = np.zeros((trials, max_j + 1), dtype=np.int64)
    for j in range(max_j + 1):
        active = remaining > 0
        if not active.any():
            break
        ks = _split_sizes(remaining[active], theta, rng)
        out[active, j] = ks
        remaining[active] -= ks + 1
    return out

