"""Permutations, binary search trees, and their record statistics.

A permutation is inserted value by value into a binary search tree; the
left-to-right maxima of the permutation (its records) end up on the tree's
rightmost path, and the sizes of the left subtrees hanging off that path
determine the record count through r + sum(k_j) = n.

Height conventions used throughout: a single node has height 0 and the
empty tree has height -1, so that ``height(node) = 1 + max(heights of
children)`` holds without special cases.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

NO_CHILD = -1
POSITIVE = math.ulp(0.0)  # the least positive float: check_real with least=POSITIVE means > 0


def check_int(name: str, value, least: int = 0, below: int | None = None, rule: str = "") -> int:
    """``value`` as an int: any int or numpy integer but a bool, in [least, below).

    Anything else raises one ValueError that names the argument and says what ``rule`` it
    breaks, by default "an integer >= least" or "an integer in [least, below)". It runs on
    every call of the bounds, so it tests a type tuple, not ``numbers.Integral``: 70 against
    450 ns per isinstance on a shared 2-core Xeon.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if value >= least and (below is None or value < below):
            return value
    if not rule:
        rule = f"an integer >= {least}" if below is None else f"an integer in [{least}, {below})"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_real(name: str, value, least=-math.inf, below=math.inf, rule: str = "") -> float:
    """``value`` as a float: any real number but a bool, finite and in [least, below).

    Anything else raises one ValueError naming the argument and the ``rule`` it breaks; an int
    past the float range is "too large for a float". An exact float skips the ``numbers.Real``
    isinstance test: 650-880 against under 30 ns for the type test, on a shared 2-core Xeon.
    """
    real = value
    if type(value) is not float and isinstance(value, Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
    if type(real) is float and least <= real < below and math.isfinite(real):
        return real
    rule = rule or f"a finite number in [{least}, {below})"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class RbParams:
    """A model instance: permutation size ``n`` and record bias ``theta``."""

    n: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_int("n", self.n))
        theta = check_real("theta", self.theta, 0.0, rule="finite and >= 0")
        object.__setattr__(self, "theta", theta)


def _built(cls, name: str, value):
    """A ``cls`` whose one field ``name`` holds ``value``, made without ``__post_init__``.

    Only for values that the library built valid by construction, so that they are not checked
    a second time; every other caller goes through the checking constructor.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1, ..., n} stored as the value sequence.

    The constructor checks every value. ``samplers.sample_sequential`` and the enumeration in
    ``analytics._perm_stats`` skip that check through ``_built``: their tuples of exact ints are
    permutations by construction (swap-remove steps that fill each position once, and
    ``itertools.permutations`` of 1..n).
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        seen = bytearray(n)
        for v in values:
            if type(v) is not int:
                # anything but an exact int goes through check_int, then the converted values
                # through this loop
                values = tuple(check_int(f"values[{i}]", w, 1) for i, w in enumerate(values))
                object.__setattr__(self, "values", values)
                return self.__post_init__()
            if not 1 <= v <= n or seen[v - 1]:
                raise ValueError(f"not a permutation of 1..{n}: {values!r}")
            seen[v - 1] = 1

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class LeftProfile:
    """Sizes of the left subtrees along the rightmost path.

    ``sizes[j]`` is the size of the left subtree hanging at the j-th node of
    the rightmost path, so ``record_count``, that path's length, is
    ``len(sizes)``, and a profile extracted from a tree of size n satisfies
    ``record_count + sum(sizes) == n``.

    The constructor checks every size. :func:`left_profile` skips that check through
    ``_built``: its sizes are lengths of lists, so exact ints >= 0.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        for k in sizes:
            if type(k) is not int or k < 0:
                # anything but an exact int >= 0 takes check_int
                sizes = tuple(check_int(f"sizes[{j}]", m) for j, m in enumerate(sizes))
                break
        object.__setattr__(self, "sizes", sizes)

    @property
    def record_count(self) -> int:
        return len(self.sizes)


@dataclass
class BstTree:
    """Binary search tree stored as a flat node arena.

    ``labels[i]`` is the label of node i; ``left[i]``/``right[i]`` hold child
    indices or NO_CHILD. ``root`` is NO_CHILD for the empty tree. Trees are
    treated as immutable once built.
    """

    labels: list[int] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    root: int = NO_CHILD

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def is_empty(self) -> bool:
        return self.root == NO_CHILD


def build_bst(perm: Permutation) -> BstTree:
    """Insert the permutation's values in order and return the resulting tree.

    Node i holds the i-th value inserted, so the root is node 0.
    """
    labels = list(perm.values)
    n = len(labels)
    left = [NO_CHILD] * n
    right = [NO_CHILD] * n
    for idx in range(1, n):
        v = labels[idx]
        cur = 0
        while True:
            if v < labels[cur]:
                nxt = left[cur]
                if nxt == NO_CHILD:
                    left[cur] = idx
                    break
            else:
                nxt = right[cur]
                if nxt == NO_CHILD:
                    right[cur] = idx
                    break
            cur = nxt
    return BstTree(labels, left, right, 0 if n else NO_CHILD)


def insertion_height(values: Sequence[int]) -> int:
    """The height of ``build_bst`` of these values, in O(n) and with no tree built.

    Inserted, v becomes a child of one of its neighbours among the values inserted before it,
    its predecessor or its successor: the one inserted later, which is the deeper. So
    depth(v) = 1 + max(depth(pred), depth(succ)), with sentinels 0 and n + 1 of depth -1. The
    neighbours come from deleting the values from a linked list of 0..n + 1 in reverse
    insertion order. ``values`` must be a permutation of 1..n; the empty one gives -1.
    """
    n = len(values)
    # v's links in the list; once v is deleted they stay its neighbours among earlier values
    prev = list(range(-1, n + 1))
    succ = list(range(1, n + 3))
    for v in reversed(values):
        p, s = prev[v], succ[v]
        succ[p] = s
        prev[s] = p
    depth = [-1] * (n + 2)
    for v in values:
        a, b = depth[prev[v]], depth[succ[v]]
        depth[v] = (a if a > b else b) + 1
    return max(depth)


def _subtree_height(tree: BstTree, idx: int) -> int:
    """Height of the subtree rooted at arena index ``idx`` (-1 if absent)."""
    if idx == NO_CHILD:
        return -1
    left, right = tree.left, tree.right
    # breadth first over one list that grows as it is walked: when the walk reaches the end of
    # a level, every node of the next one has been appended, so the list's length marks its end
    walk = [idx]
    depth = -1
    end = i = 0
    for node in walk:
        if i == end:
            depth += 1
            end = len(walk)
        i += 1
        l, r = left[node], right[node]
        if l != NO_CHILD:
            walk.append(l)
        if r != NO_CHILD:
            walk.append(r)
    return depth


def height(tree: BstTree) -> int:
    """Maximum node depth; 0 for a single node, -1 for the empty tree."""
    return _subtree_height(tree, tree.root)


def record_count_perm(perm: Permutation) -> int:
    """Number of left-to-right maxima (0 for the empty permutation)."""
    best = 0
    count = 0
    for v in perm.values:
        if v > best:
            best = v
            count += 1
    return count


def _spine(tree: BstTree) -> list[int]:
    """Arena indices of the rightmost path, root first."""
    nodes = []
    cur = tree.root
    while cur != NO_CHILD:
        nodes.append(cur)
        cur = tree.right[cur]
    return nodes


def record_count_tree(tree: BstTree) -> int:
    """Length of the rightmost path; equals the record count of any
    permutation that builds the tree (0 for the empty tree)."""
    return len(_spine(tree))


def left_profile(tree: BstTree) -> LeftProfile:
    """Left-subtree sizes along the rightmost path of a non-empty tree."""
    if tree.is_empty:
        raise ValueError("left_profile of the empty tree")
    left, right = tree.left, tree.right
    sizes = []
    node = tree.root
    while node != NO_CHILD:
        # the list grows as the loop walks it, so it ends holding the whole left subtree
        top = left[node]
        walk = [top] if top != NO_CHILD else []
        for sub in walk:
            if left[sub] != NO_CHILD:
                walk.append(left[sub])
            if right[sub] != NO_CHILD:
                walk.append(right[sub])
        sizes.append(len(walk))
        node = right[node]
    return _built(LeftProfile, "sizes", tuple(sizes))


def height_via_profile(tree: BstTree) -> int:
    """Height recomputed from the rightmost path decomposition.

    Evaluates ``max(r - 1, max_j(j + 1 + height(left subtree at spine node
    j)))`` and must always agree with :func:`height`.
    """
    if tree.is_empty:
        raise ValueError("height_via_profile of the empty tree")
    spine = _spine(tree)
    best = len(spine) - 1
    for j, node in enumerate(spine):
        l = tree.left[node]
        if l != NO_CHILD:
            candidate = j + 1 + _subtree_height(tree, l)
            if candidate > best:
                best = candidate
    return best


def is_valid_bst(tree: BstTree) -> bool:
    """Check the search property and that labels are exactly {1, ..., size}.

    One in-order walk from the root must meet the labels 1, 2, ..., size in turn. A node
    reached twice (a shared child, a cycle through right children) breaks that order, and a
    cycle through left children grows the stack past size. A link or root that names no node
    of the arena, below NO_CHILD or past its end, gives False.
    """
    n = tree.size
    if tree.is_empty:
        return n == 0
    labels, left, right = tree.labels, tree.left, tree.right
    stack = []
    node = tree.root
    expect = 1
    try:
        while True:
            while node != NO_CHILD:
                # a link below NO_CHILD would index from the end of the arena
                if node < 0 or len(stack) == n:
                    return False
                stack.append(node)
                node = left[node]
            if not stack:
                return expect == n + 1
            node = stack.pop()
            if labels[node] != expect:
                return False
            expect += 1
            node = right[node]
    except IndexError:
        # a link, or the root, past the end of the arena or of a link list
        return False
