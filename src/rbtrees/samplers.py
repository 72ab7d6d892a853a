"""Seeded random generation of record-biased permutations and trees.

Two mechanisms draw the same law. The sequential generator places values one
at a time, each at the leftmost open position with probability
theta / (theta + remaining) and at a uniform other one otherwise. The
recursive generators follow the paper's decomposition: all of theta sits on
the rightmost path, whose nodes are the records, and every subtree off it is a
uniform BST with uniform splits. One sampler draws that path as its set of
records: step k before the last of the n-step scan is a record with chance
theta / (theta + k), independently of every other step, so a block of paths
reads one uniform per near step and a thinned Poisson process over the far
ones. Trees, heights and record counts all take their paths from it, so on
the same stream they share their rightmost path. The profile matrix draws the
same path's left-subtree sizes split by split instead, which is cheaper for its
first few entries: each split is the gap to the scan's next record, drawn from
one uniform by inverting its exact survival, or past _SPLIT_TABLE_MAX nodes
thinned from a power-law survival, two uniforms a candidate.

Randomness contract: a (seed, stream_index) pair of unsigned 64-bit integers
identifies a stream, a PCG64 engine keyed by a SeedSequence of the pair's four
32-bit words: distinct pairs give independent streams, identical pairs
identical draws within this implementation. The stream yields uniform
variates, only in vectors, and, for far spine steps, Poisson variates from the
same engine; no binomial variate is drawn. Cross-platform bit-exactness is not
promised.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import NamedTuple

import numpy as np

from .analytics import split_survival_table, uniform_height_table
from .model import NO_CHILD, BstTree, Permutation, RbParams, _built, check_int

# A _record_keys call of c paths reads one uniform for each step k < max(theta, _DENSE_MIN / c)
# of each path: a budget of _DENSE_MIN near uniforms per call, not per path. So one path of at
# most _DENSE_MIN nodes costs one numpy compare and none of the thinning's fixed cost (a Poisson
# draw and a dozen numpy calls, about 50 us), and a block of 256 paths reads 4 steps of each and
# pays that fixed cost once. It draws all its near uniforms at once: at n = theta = 10**4 one
# path took 43-57 us and 64 took 2.7-2.8 ms, against 66-90 us and 4.2-5.9 ms in 64 KiB chunks.
# Their chances are computed on every call, not cached: a cache keyed by (theta, K) held one
# array of up to n floats per key for the life of the process, 23 MiB after one path at
# n = theta = 3 * 10**6, while computing them costs one path of K = 1024 steps 3-6 us.
# Its far steps run as straight array passes: each (path, range) cell's length, start and rate
# are repeated once per point the cell holds, k is cast to float once, and near and far keys are
# sorted together once, as they never share a step. At n = 10**5, theta = n**0.5, 12 paths (28k
# far points) a call took 0.95 ms against 1.40 ms when each point gathered its range's values
# through a uint8 index, divided theta by an int64 k and sorted its far keys apart before a
# stable merge; one path took 64 against 71 us at n = 10**4, theta = 5 and 64 against 76 us at
# n = 10**6, theta = 1 (timeit minima, shared 2-core Xeon).
# It frees each large array before it makes the next: holding more at once, near glibc's heap
# trim threshold, made some processes fault 1.3 MB back in per 10 trees at n = theta = 10**4 and
# others none. A tree of at most _TINY_TREE nodes draws its path in a plain loop instead, with the
# same draws (timeit minima over 5 processes, theta = 0.5, 1 and 5, shared 2-core Xeon): a path
# took 2.1-2.2 us by the loop and 7.3-7.5 us through _record_keys at n = 6, 4.3-4.5 and 7.4-7.8 us
# at 32, 7.0-7.3 and 7.7 us at 64. Such a tree then fills lists made at full size and is wrapped
# once: at n = 6 a whole tree took 5.4-6.1 us, against 7.1-7.5 us growing three lists node by node.
# The profile matrix's splits, each one uniform inverted through one table of n + 1 floats,
# drew k_0..k_5 of 20,000 trees at n = 10**4, theta = 2 in 2.4-2.9 ms and k_0..k_20 in 8.0-9.3 ms,
# against 12-13 and 45-49 ms as Binomial(m - 1, W) draws, and 40-56 ms for their paths from
# _record_keys in calls of 1024 paths. The matrix is stored column by column, as it is drawn and
# read: stored by row, a column of 20,000 took 255 us to store against 54 us (timeit minima), and
# the calls took 3.5-6.2 and 12-18 ms. The table is built per call, 8.8-9.8 ms at n = 10**6, and
# at 10**7 k_0..k_20 of 20,000 trees took 118-129 ms and 116 MiB peak RSS with it. Thinned, with
# no table, they took 19-32 ms and 41 MiB at every n from 2**20 to 10**9 (theta = 2), against
# 26-35 ms with the table at 2**20 and 42-64 ms by binomial draws; the thinning's rejections
# cost most at theta = n, 36 ms at 10**7 and 54 ms at 10**9 (binomial 33-37 ms).
# Uniform subtrees of at most _EXACT_MAX nodes draw their height from one row of
# analytics.uniform_height_table. Heights of 200 trees each at n = 10**3, 10**4, 10**5 and 6 at
# 10**6 (theta = 1, one block each, as experiments draws them) took 7.3, 5.3-5.6 and 4.7-4.9 ms
# in all with cutoffs 1024, 2048 and 4096 (medians of 15, shared 2-core Xeon): at n = 10**5 the
# sweep visits 76k nodes in 23 rounds, 39k in 20 and 20k in 17. The table is built once per
# process, in 8, 31 and 150-190 ms, and holds 2049 x 55 floats (0.86 MiB) at 2048. With 4096 a
# cycle of the benchmark's height-uniform jobs ran 3% faster than with 2048 but peaked 1.6 MiB
# higher, which its build time does not repay. A sweep builds only the rows its largest subtree
# reads, rounded up to a power of two (128 rows build in 0.6 ms), so `sample height --n 100
# --trials 10` took 0.22 s against 0.25 s with the whole table (minima of 10 fresh runs).
# The sweep reads single entries through the table's flat view and whole rows by take(axis=0):
# the sweeps of those height-uniform blocks summed 3.0 ms against 3.4 ms by 2-D fancy
# indexing (timeit minima, shared 2-core Xeon).
_EXACT_MAX = 2048
_TINY_TREE = 32
_DENSE_MIN = 1024
_SPLIT_TABLE_MAX = 1 << 20
# the largest uniform height table a sweep has read so far (see _height_table)
_HEIGHT_TABLE = uniform_height_table(0)


class RandomSource:
    """A reproducible stream of uniform variates, with Poisson ones on request.

    Uniforms come only in vectors, straight from the engine: ``randoms(a)`` followed by
    ``randoms(b)`` equals ``randoms(a + b)`` when no Poisson draw comes between.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        rule = "an unsigned 64-bit integer"
        self.seed = seed = check_int("seed", seed, 0, 1 << 64, rule)
        self.stream_index = stream_index = check_int("stream_index", stream_index, 0, 1 << 64, rule)
        # four 32-bit words, so that the key is injective in the pair
        words = (seed & 0xFFFFFFFF, seed >> 32, stream_index & 0xFFFFFFFF, stream_index >> 32)
        key = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        self._gen = np.random.Generator(np.random.PCG64(key))

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, stream_index={self.stream_index})"

    def randoms(self, count: int) -> np.ndarray:
        """The next ``count`` uniform variates in [0, 1)."""
        return self._gen.random(count)

    def poisson(self, lam, size=None):
        """Poisson(lam) variates from the stream's engine, elementwise for arrays, as numpy's."""
        return self._gen.poisson(lam, size)


def sample_sequential(params: RbParams, rng: RandomSource) -> Permutation:
    """Draw a record-biased permutation by sequential placement.

    At step i the value i goes to the leftmost open position with
    probability theta / (theta + n - i) and to a uniformly chosen other open
    position otherwise; for theta = 0 the leftmost position is taken only
    when it is the only one left. Draws 2n uniforms at once: step i tests the
    leftmost position with u[2i - 2] and picks an other one with u[2i - 1].

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
    u = rng.randoms(2 * n).tolist()
    for i in range(1, n + 1):
        others = n - i
        if others == 0 or u[2 * i - 2] < theta / (theta + others):
            pos = lo
        else:
            # a uniform index among the others + 1 open slots, skipping lo's
            j = int(u[2 * i - 1] * others)
            pos = slots[j + (j >= where[lo])]
        values[pos] = i
        last = slots[others]
        slots[where[pos]] = last
        where[last] = where[pos]
        if pos == lo and others:
            while values[lo]:
                lo += 1
    # a permutation by construction, as each step fills one open position, so it skips the
    # constructor's check: a call took 4.3 us at n = 6 and 472 us at n = 1000, against 5.8 and
    # 568 us checked and with u read through a memoryview (timeit minima, shared 2-core Xeon)
    return _built(Permutation, "values", tuple(values))


def sample_tree_recursive(params: RbParams, rng: RandomSource) -> BstTree:
    """Generate a record-biased tree: its rightmost path first, then uniform subtrees off it.

    The path's labels are its records, step p's label p + 1, as :func:`_record_keys` draws
    them; a tree of at most _TINY_TREE nodes with theta > 0 makes the same draws in one plain
    loop. Every node off the path is a uniform split, left subtree of the deepest path node
    first, right children before left ones, each reading the next of one vector of uniforms.
    Nodes are numbered in that order, path first, so a right child is always its parent's
    index + 1.
    """
    n, theta = params.n, params.theta
    if n == 0:
        return BstTree()
    if theta > 0.0 and n <= _TINY_TREE:
        u = rng.randoms(n).tolist()
        spine = [j + 1 for j in range(n) if u[j] < theta / (theta + (n - 1 - j))]
    else:
        spine = (_record_keys(n, theta, rng, 1) + 1).tolist()
    records = len(spine)
    labels = spine + [0] * (n - records)
    left = [NO_CHILD] * n
    # node i's right child is i + 1 until it turns out to have none
    right = list(range(1, n + 1))
    right[records - 1] = NO_CHILD
    # stack entries: (lo, hi, parent of a left child or NO_CHILD); the deepest path node's is
    # on top
    stack = []
    lo = 1
    for idx, label in enumerate(spine):
        if lo < label:
            stack.append((lo, label - 1, idx))
        lo = label + 1
    for idx, x in enumerate(rng.randoms(n - records).tolist(), records):
        lo, hi, parent = stack.pop()
        labels[idx] = label = lo + int(x * (hi - lo + 1))
        if parent != NO_CHILD:
            left[parent] = idx
        if lo < label:
            stack.append((lo, label - 1, idx))
        if label < hi:
            # popped next, as node idx + 1
            stack.append((label + 1, hi, NO_CHILD))
        else:
            right[idx] = NO_CHILD
    return BstTree(labels, left, right, 0)


class HeightSample(NamedTuple):
    """A tree's height and the int64 left-subtree sizes along its rightmost path, one per record."""

    height: int
    sizes: np.ndarray

    @property
    def records(self) -> int:
        return len(self.sizes)


class HeightBlock:
    """The heights and spines of a block of trees, held as read-only int64 arrays.

    ``heights[t]`` and ``records[t]`` are tree t's, and its spine's left-subtree sizes are the
    ``records[t]`` entries of the joined ``sizes`` that end at ``ends[t]``. As a sequence, item
    t is tree t's :class:`HeightSample`, built on access around a view of those sizes; an
    index past the end raises IndexError, which also ends iteration.
    """

    __slots__ = ("heights", "records", "_sizes", "_ends")

    def __init__(
        self, heights: np.ndarray, records: np.ndarray, sizes: np.ndarray, ends: np.ndarray
    ):
        for array in (heights, records, sizes, ends):
            array.flags.writeable = False
        self.heights, self.records, self._sizes, self._ends = heights, records, sizes, ends

    def __len__(self) -> int:
        return len(self.heights)

    def __getitem__(self, t: int) -> HeightSample:
        t = operator.index(t)
        end = int(self._ends[t])
        return HeightSample(int(self.heights[t]), self._sizes[end - int(self.records[t]) : end])


def _record_keys(n: int, theta: float, rng: RandomSource, count: int) -> np.ndarray:
    """Records of ``count`` independent rightmost paths of n nodes, as sorted int64 keys.

    Trial t's record at scan step p (0-based, of n) has key t * n + p; step p = n - 1 - k,
    k steps before the last, is a record with chance theta / (theta + k), independently,
    so the last step always is when theta > 0 and the only one when theta = 0. The steps
    k < K = min(n, max(ceil(theta), ceil(_DENSE_MIN / count))) read one uniform each, trial
    after trial: a call's near steps cost about _DENSE_MIN uniforms unless theta is larger.
    The steps k >= K carry a Poisson process of rate log1p(theta / k) on step k, which puts
    at least one point there with exactly that chance: over each doubling range [a, 2a) it
    is drawn by thinning one of the larger rate log1p(theta / a), which keeps at least half
    its points, so far steps cost O(records + log(n / K)) per path. The K near chances are
    computed afresh on every call.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if theta == 0.0:
        return np.arange(n - 1, count * n, n, dtype=np.int64)
    dense = min(n, max(math.ceil(theta), -(-_DENSE_MIN // count)))
    # near step k = dense - 1, ..., 0 of each path against its chance theta / (theta + k)
    hits = rng.randoms(count * dense).reshape(count, dense) < (
        theta / (theta + np.arange(dense - 1, -1, -1.0))
    )
    keys = np.flatnonzero(hits)
    if dense == n:
        return keys
    # hit t * dense + j is trial t's step n - dense + j
    keys += keys // dense * (n - dense) + (n - dense)
    starts = dense << np.arange(((n - 1) // dense).bit_length(), dtype=np.int64)
    lengths = np.minimum(starts, n - starts)
    rates = np.log1p(theta / starts)
    points = rng.poisson(rates * lengths, (count, len(starts))).ravel()
    total = int(points.sum())
    # trial t's point j steps into the range from s is step k = s + j, key t * n + n - 1 - k;
    # a range's value is repeated once per point that each trial's cell of it holds
    def each(values):
        return values[None].repeat(count, 0).repeat(points)

    u = rng.randoms(total)
    u *= each(lengths.astype(float))
    np.trunc(u, out=u)
    far = u.astype(np.int64)
    ends = np.arange(count, dtype=np.int64) * n + (n - 1)
    np.subtract((ends[:, None] - starts).repeat(points), far, out=far)
    # k as the float that theta / k would cast it to: j is an exact float, and so is s, dense
    # (the ceiling of a float, or at most _DENSE_MIN) times a power of two, so s + j rounds once
    u += each(starts.astype(float))
    np.divide(theta, u, out=u)
    np.log1p(u, out=u)
    # a point is kept with chance log1p(theta / k) / rate, its step's rate over its range's
    accept = rng.randoms(total)
    accept *= each(rates)
    kept = accept < u
    del u, accept  # at most four words per point are held at once, and two from here
    keys = np.concatenate((keys, far.compress(kept)))
    del far, kept
    # near and far keys never share a step, but a far step hit by several kept points is
    # one record
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _height_table(largest: int) -> np.ndarray:
    """A uniform height table with the rows a sweep of subtrees of at most ``largest`` nodes reads.

    Rows are bit-equal in every table that holds them, so the process keeps the largest table
    built so far and builds a larger one only for a larger subtree, with rows up to the next
    power of two, at most _EXACT_MAX.
    """
    global _HEIGHT_TABLE
    if len(_HEIGHT_TABLE) <= min(largest, _EXACT_MAX):
        _HEIGHT_TABLE = uniform_height_table(min(1 << (largest - 1).bit_length(), _EXACT_MAX))
    return _HEIGHT_TABLE


def _sweep_heights(
    size: np.ndarray, floor: np.ndarray, tree: np.ndarray, best: np.ndarray, rng: RandomSource
) -> np.ndarray:
    """Heights of trees from their best depths so far and the spine subtrees that may beat them.

    Node i is a uniform BST of size[i] > floor[i] nodes in tree tree[i], rooted so that a
    height above floor[i] beats best[tree[i]], the tree's best depth so far; the subtrees of
    every tree start at once. Each round splits all live nodes with one draw and drops nodes
    whose reach, top + size, cannot beat their tree's best depth so far; nodes of at most
    _EXACT_MAX nodes read the draw from the exact height table instead. A tree makes the same
    draws swept alone as first in a block. Returns ``best``, updated in place.
    """
    table = _height_table(int(size.max(initial=0)))
    width = table.shape[1]
    # a view, as the table is C-contiguous: entry (row, col) is flat[row * width + col]
    flat = table.ravel()
    # a node's subtree hangs below depth top; the height read from u beats best exactly when
    # u >= P(H_m <= best - top), and a node lives while its size passes that floor
    top = best[tree] - floor
    while len(size):
        us = rng.randoms(len(size))
        small = size <= _EXACT_MAX
        # row 0 (all ones) keeps nodes over _EXACT_MAX out, and the last column (all ones)
        # nodes whose floor lies past it; a subtree rooted at depth top + 1 reads its
        # height from u as (count of row entries <= u) - 1
        rows = size * small
        over = (us >= flat.take(rows * width + np.minimum(floor, width - 1) * small)).nonzero()[0]
        if len(over):
            reads = (table.take(rows[over], axis=0) <= us[over, None]).sum(axis=1)
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


def _trial_count(trials) -> int:
    return check_int("trials", 1 if trials is None else trials, 1, rule="None or an integer >= 1")


def sample_height_only(
    params: RbParams, rng: RandomSource, trials: int | None = None
) -> HeightSample | HeightBlock:
    """Sample the height and the spine sizes without materializing labels.

    Same joint law as :func:`sample_tree_recursive` followed by the model
    statistics. One pruned sweep over the uniform subtrees off the spine, which
    ends small subtrees with one draw from an exact height table, gives the
    height in O(spine + frontier) memory, so n in the millions is fine.

    With ``trials`` None this returns one :class:`HeightSample`. With an int it returns a
    :class:`HeightBlock` of that many independent samples, a sequence of HeightSamples that
    also holds their ``heights`` and ``records`` as arrays: their spines are drawn in one
    :func:`_record_keys` call, then one sweep runs over all their subtrees. ``trials=1``
    makes the same draws as None.
    """
    count = _trial_count(trials)
    n = params.n
    keys = _record_keys(n, params.theta, rng, count)
    # tree t's records are keys[ends[t] - records[t]:ends[t]]; every path ends at step n - 1,
    # so the key before tree t's first is t * n - 1
    ends = keys.searchsorted(np.arange(1, count + 1) * n) if count > 1 else np.array([len(keys)])
    records = ends.copy()
    records[1:] -= ends[:-1]
    sizes = keys.copy()
    sizes[1:] -= keys[:-1]
    del keys
    sizes[1:] -= 1
    # the j-th subtree of a tree of r records can beat its depth r - 1 only if it holds more
    # nodes than the r - 1 - j records after it, the floor its height must pass; so only a
    # tree's last w records can, w the largest size. The candidates come tree by tree, each
    # with its floor, which counts down to 0 at its tree's end. From the keys, joined as whole
    # arrays, 256 trees at n = 1000, theta = 1 took 44 us against 453 us spine by spine, 10 at
    # n = theta = 10**4 65 against 95 us, one at n = 16 11.5 against 11.1 us; but 12 at
    # n = 10**5, theta = n**0.5, where every record is a candidate, 90 against 56 us (timeit
    # minima, shared 2-core Xeon). The block hands back its heights and record counts as arrays
    # and builds a HeightSample only for an item that is read: a caller took 2.7 us to stack
    # the arrays of 200 trees against 139 us to build their HeightSamples and unwrap them.
    tail = np.minimum(records, sizes.max(initial=0))
    after = (np.add.accumulate(tail) - 1).repeat(tail)
    after -= np.arange(len(after))
    cand = (ends - 1).repeat(tail)
    cand -= after
    hit = (sizes[cand] > after).nonzero()[0]
    kept = cand[hit]
    tree = ends.searchsorted(kept, side="right")
    best = _sweep_heights(sizes[kept], after[hit], tree, records - 1, rng)
    block = HeightBlock(best, records, sizes, ends)
    return block[0] if trials is None else block


def sample_record_count(
    params: RbParams, rng: RandomSource, trials: int | None = None
) -> int | list[int]:
    """Record count alone: the number of rightmost-path records drawn by :func:`_record_keys`.

    With ``trials`` None this returns one int; with an int, a list of that many
    independent counts, drawn in one call. ``trials=1`` makes the same draws as None.
    """
    count = _trial_count(trials)
    n = params.n
    keys = _record_keys(n, params.theta, rng, count)
    counts = np.diff(np.searchsorted(keys, n * np.arange(count + 1))).tolist()
    return counts[0] if trials is None else counts


def sample_left_profile_matrix(
    params: RbParams, trials: int, max_j: int, rng: RandomSource
) -> np.ndarray:
    """Profile entries k_0..k_max_j for many independent trees at once.

    Returns an int64 array of shape (trials, max_j + 1), stored column by column
    (its transpose is C-contiguous), the way it is drawn and read; positions past a
    tree's spine end are 0. Column j holds the left-subtree size K of each tree's
    j-th spine node, of the m = n - d >= 1 nodes left after the first d: by Feller's
    coupling the gap to the scan's next record, whose survival P(K >= k) is
    exp(A[d] - A[d + k]) over the table A of analytics.split_survival_table, the law of
    analytics.root_split_distribution at m. Up to _SPLIT_TABLE_MAX nodes each column reads
    one uniform per live tree and inverts that survival (:func:`_inverted_splits`); past
    it, where the table would cost more than the draws, the splits are thinned from a
    power-law survival without a table (:func:`_thinned_splits`), two uniforms a candidate.
    """
    n, theta = params.n, params.theta
    trials = _trial_count(trials)
    max_j = check_int("max_j", max_j)
    out = np.zeros((max_j + 1, trials), dtype=np.int64)
    if n <= _SPLIT_TABLE_MAX:
        split = partial(_inverted_splits, split_survival_table(n, theta))
    else:
        split = _thinned_splits
    # the live trees, and the nodes d each has used
    rows = np.arange(trials if n else 0)
    used = np.zeros(len(rows), dtype=np.int64)
    for j in range(max_j + 1):
        if not len(rows):
            break
        nxt = split(n, theta, used, rng)
        out[j][rows] = nxt - used - 1
        used = nxt
        live = used < n
        if not live.all():
            rows, used = rows[live], used[live]
    return out.T


def _inverted_splits(
    table: np.ndarray, n: int, theta: float, used: np.ndarray, rng: RandomSource
) -> np.ndarray:
    """Each tree's nodes used after its next split, d + K + 1 from d < n, by inverting K's
    survival.

    Reads one uniform u per tree: the first i with A[i] >= A[d] - log(u), and at least
    d + 1, so u = 0 gives i = n, K = m - 1.
    """
    # P(K >= k) = Gamma(m) Gamma(m - k + theta) / (Gamma(m - k) Gamma(m + theta)), and
    # Gamma(x + theta) / Gamma(x) is about (x + pad)**theta, so K is about (m + pad) W with
    # W = 1 - u**(1/theta): a first guess at i that searchsorted only has to mend where it
    # misses, for at most 2% of the trees at theta = 0.01..100 and 6-14% at theta >= n.
    # searchsorted alone made k_0..k_20 of 20,000 trees at n = 10**4, theta = 2 take 34 ms
    # against 16 ms with the guess.
    pad = (theta - 1.0) / 2.0
    # theta -> 0 sends log(u) / theta to -inf and W to 1; u = 0 sends t to +inf
    with np.errstate(divide="ignore", over="ignore"):
        w = np.log(rng.randoms(len(used)))
        t = table[used]
        t -= w
        w /= theta
    # i = i0 - 1 = d + min(W (m + pad), m - 1), as expm1 gives -W and d - n - pad = -(m + pad)
    np.expm1(w, out=w)
    w *= np.subtract(used, n + pad)
    np.minimum(w, np.subtract(n - 1, used), out=w)
    i = w.astype(np.int64)
    i += used
    # the guess holds where A[i0 - 1] < t <= A[i0]; w's buffer takes both reads
    miss = np.take(table, i, out=w) >= t
    i += 1
    miss |= np.take(table, i, out=w) < t
    del w
    miss = miss.nonzero()[0]
    if len(miss):
        # t can round to A[d] where theta >> n, so i stays past d
        i[miss] = np.maximum(table.searchsorted(t[miss]), used[miss] + 1)
    del t, miss
    return i


def _thinned_splits(n: int, theta: float, used: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Each tree's nodes used after its next split, d + K + 1 from d < n, K thinned with no
    table.

    The scan over the m = n - d nodes left meets step s = m - 1, ..., 0 in turn, a record
    with chance p_s = theta / (theta + s), and K = m - 1 - s at the first record. Mark each
    step a candidate with chance q_s = 1 - (s / (s + 1))**c, c = max(theta, log2(1 + theta)):
    steps x..t - 1 then hold no candidate with chance (x / t)**c, so the first candidate
    below t is ceil(t V**(1/c)) - 1 for a uniform V. As q_s >= p_s at every s >= 1
    (Bernoulli's inequality for theta >= 1; for theta < 1, log1p(theta y) / log1p(y) rises
    to c at y = 1), a candidate that a second uniform keeps with chance p_s / q_s is a
    record, and a tree whose candidate is not kept scans on below it. Step 0 is a record at
    every theta, q_0 = p_0 = 1.
    """
    c = max(theta, math.log1p(theta) / math.log(2.0))
    top = np.subtract(n, used)
    first = np.empty_like(top)
    # the trees still scanning, each below its top
    pend = np.arange(len(top))
    # theta = 0 gives c = 0, log(V) / 0 = -inf and the candidate 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(pend):
            u = rng.randoms(2 * len(pend))
            v, a = u[: len(pend)], u[len(pend) :]
            below = top[pend]
            np.log(v, out=v)
            v /= c
            np.exp(v, out=v)
            v *= below
            np.ceil(v, out=v)
            s = v.astype(np.int64)
            s -= 1
            np.clip(s, 0, below - 1, out=s)
            # a q_s < p_s, with -q_s = expm1(c log1p(-1 / (s + 1)))
            q = np.add(s, 1.0)
            np.reciprocal(q, out=q)
            np.negative(q, out=q)
            np.log1p(q, out=q)
            q *= c
            np.expm1(q, out=q)
            q *= a
            kept = -q < theta / (theta + s)
            kept |= s == 0
            first[pend[kept]] = s[kept]
            rest = ~kept
            pend = pend[rest]
            top[pend] = s[rest]
    # d + K + 1 = n - s
    np.subtract(n, first, out=first)
    return first
