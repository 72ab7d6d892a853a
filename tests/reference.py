"""Independent brute-force reference implementations for the tests.

Everything here is deliberately written without the rbtrees package:
recursive tuple trees, direct scans, and O(n^2) dynamic programming. These
are the oracles that the library's closed forms and samplers are checked
against.
"""

import itertools
import math

import numpy as np


def ref_insert(node, v):
    if node is None:
        return (v, None, None)
    label, left, right = node
    if v < label:
        return (label, ref_insert(left, v), right)
    return (label, left, ref_insert(right, v))


def ref_bst(values):
    node = None
    for v in values:
        node = ref_insert(node, v)
    return node


def ref_height(node):
    if node is None:
        return -1
    _, left, right = node
    return 1 + max(ref_height(left), ref_height(right))


def ref_size(node):
    if node is None:
        return 0
    _, left, right = node
    return 1 + ref_size(left) + ref_size(right)


def ref_records(values):
    best = 0
    count = 0
    for v in values:
        if v > best:
            best = v
            count += 1
    return count


def ref_left_sizes(values):
    """Left-subtree sizes along the rightmost path of the BST of values."""
    node = ref_bst(values)
    sizes = []
    while node is not None:
        label, left, right = node
        sizes.append(ref_size(left))
        node = right
    return tuple(sizes)


def ref_from_arena(tree):
    """The nested (label, left, right) tree of an arena tree (child index -1 for none)."""

    def node(idx):
        if idx == -1:
            return None
        return (tree.labels[idx], node(tree.left[idx]), node(tree.right[idx]))

    return node(tree.root)


def ref_is_valid_bst(tree):
    """Labels exactly {1, ..., size}, and every node within its ancestors' bounds, by a
    (node, lo, hi) stack from the root over an arena tree (child index -1 for none)."""
    n = len(tree.labels)
    if tree.root == -1:
        return n == 0
    if sorted(tree.labels) != list(range(1, n + 1)):
        return False
    visited = 0
    stack = [(tree.root, 0, n + 1)]
    while stack:
        node, lo, hi = stack.pop()
        visited += 1
        label = tree.labels[node]
        if not (lo < label < hi):
            return False
        l, r = tree.left[node], tree.right[node]
        if l != -1:
            stack.append((l, lo, label))
        if r != -1:
            stack.append((r, label, hi))
    return visited == n


def ref_shape(node):
    if node is None:
        return ()
    _, left, right = node
    return (ref_shape(left), ref_shape(right))


def ref_enumerate_weighted(n, theta):
    """Map each permutation of S_n to its normalized theta**records weight."""
    weights = {}
    for values in itertools.permutations(range(1, n + 1)):
        weights[values] = theta ** ref_records(values)
    total = math.fsum(weights.values())
    return {values: w / total for values, w in weights.items()}


def poisson_binomial_pmf(probs):
    """PMF of a sum of independent Bernoulli variables, by convolution."""
    coeffs = [1.0]
    for p in probs:
        nxt = [0.0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * (1.0 - p)
            nxt[k + 1] += c * p
        coeffs = nxt
    return coeffs


def ref_uniform_height_cdf(k_max, width=None):
    """``T[m, h + 1] = P(H_m <= h)`` for uniform BSTs of m <= k_max nodes, h + 1 < width.

    Devroye's recursion row by row: ``F_m(h) = (1/m) sum_k F_k(h - 1) F_{m-1-k}(h - 1)``,
    in numpy's extended precision (a 64-bit significand on x86-64), so that its rounding
    stays far below float64's. Column h + 1 reads only column h, so the first ``width``
    columns (all k_max + 1 by default) are those of the full table.
    """
    width = k_max + 1 if width is None else width
    table = np.zeros((k_max + 1, width), dtype=np.longdouble)
    table[0] = 1.0
    for m in range(1, k_max + 1):
        table[m, 1:] = (table[:m, :-1] * table[m - 1 :: -1, :-1]).sum(axis=0) / m
    return table


def ref_near_record_keys(count, n, theta, near, uniforms):
    """Record keys t * n + p at the last ``near`` steps of ``count`` n-step paths, by a scan.

    Path t's step n - near + j (j < near) reads uniforms[t * near + j] and is a record iff
    that is below theta / (theta + near - 1 - j), its chance near - 1 - j steps before the last.
    """
    keys = []
    for t in range(count):
        for j in range(near):
            if uniforms[t * near + j] < theta / (theta + (near - 1 - j)):
                keys.append(t * n + n - near + j)
    return keys


def ref_spine_sizes(keys, n, count):
    """Each of ``count`` trials' left-subtree sizes along its path, from its sorted record keys.

    Trial t's records are the keys in [t * n, (t + 1) * n); every path ends at step n - 1, so
    the key before trial t's first is t * n - 1. One slice of one int64 array per trial.
    """
    sizes = np.empty_like(keys)
    sizes[:1] = keys[:1]
    np.subtract(keys[1:], keys[:-1], out=sizes[1:])
    sizes[1:] -= 1
    ends = np.searchsorted(keys, n * np.arange(1, count)).tolist() if count > 1 else []
    return [sizes[a:b] for a, b in zip([0, *ends], [*ends, len(keys)])]


def ref_spine_join(spines):
    """The nodes (size, top, tree) a height sweep starts from, and each tree's records - 1.

    Spine by spine: a spine of r nodes keeps its j-th subtree, at top = j, iff its size is at
    least r - j, the least that can beat the depth r - 1 the spine itself reaches.
    """
    lengths = [len(s) for s in spines]
    best = np.array(lengths, dtype=np.int64) - 1
    desc = np.arange(max(lengths), 0, -1)
    tops = [(s >= desc[len(desc) - len(s) :]).nonzero()[0] for s in spines]
    size = np.concatenate([s[top] for s, top in zip(spines, tops)])
    tree = np.repeat(np.arange(len(spines)), [len(top) for top in tops])
    top = np.concatenate(tops)
    return size, top, tree, best


def ref_log_survival_prefixes(n: int, theta: float, k: int):
    """The prefix sums of log1p(-theta / (theta + n - i)) over i = 1..j, for j = 0..k < n.

    The j-th is log P(no record in the first j steps). Each term is taken as the equal
    -log1p(theta / (n - i)), which stays well conditioned where theta / (theta + n - i)
    rounds to 1 (theta past about 9e15 (n - i)). They are accumulated with compensated
    summation, so the split law sums to 1 within 1e-12 even for n around 1e4 and extreme
    theta.
    """
    log_prefix = comp = 0.0
    yield log_prefix
    for i in range(1, k + 1):
        term = -math.log1p(theta / (n - i)) - comp
        total = log_prefix + term
        comp = (total - log_prefix) - term
        log_prefix = total
        yield log_prefix
