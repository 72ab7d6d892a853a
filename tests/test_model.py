"""Tree construction and record statistics against brute-force references."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbtrees.model import (
    NO_CHILD,
    BstTree,
    LeftProfile,
    Permutation,
    RbParams,
    build_bst,
    height,
    height_via_profile,
    insertion_height,
    is_valid_bst,
    left_profile,
    record_count_perm,
    record_count_tree,
)

from reference import (
    ref_bst,
    ref_from_arena,
    ref_height,
    ref_is_valid_bst,
    ref_left_sizes,
    ref_records,
)

FIGURE_PERM = (2, 4, 1, 6, 3, 5)


def perm_of(*values):
    return Permutation(tuple(values))


class TestBuild:
    def test_worked_example_structure(self):
        tree = build_bst(perm_of(*FIGURE_PERM))
        root = tree.root
        assert tree.labels[root] == 2
        assert tree.labels[tree.left[root]] == 1
        four = tree.right[root]
        assert tree.labels[four] == 4
        assert tree.labels[tree.left[four]] == 3
        six = tree.right[four]
        assert tree.labels[six] == 6
        assert tree.labels[tree.left[six]] == 5
        assert tree.right[six] == -1
        assert tree.size == 6

    def test_empty_permutation(self):
        tree = build_bst(perm_of())
        assert tree.is_empty
        assert tree.size == 0
        assert height(tree) == -1
        assert record_count_tree(tree) == 0

    def test_increasing_gives_right_path(self):
        tree = build_bst(perm_of(1, 2, 3))
        assert height(tree) == 2
        assert record_count_tree(tree) == 3


class TestHeight:
    def test_worked_example(self):
        assert height(build_bst(perm_of(*FIGURE_PERM))) == 3

    def test_single_node(self):
        assert height(build_bst(perm_of(1))) == 0

    def test_spines(self):
        n = 9
        assert height(build_bst(Permutation(tuple(range(1, n + 1))))) == n - 1
        assert height(build_bst(Permutation(tuple(range(n, 0, -1))))) == n - 1

    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_long_spines(self, order):
        # one level per node, so the breadth-first walk ends 4,999 levels down
        n = 5000
        values = range(1, n + 1) if order == "sorted" else range(n, 0, -1)
        tree = build_bst(Permutation(tuple(values)))
        assert height(tree) == height_via_profile(tree) == n - 1


class TestInsertionHeight:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_the_built_tree_on_all_of_s_n(self, n):
        for values in itertools.permutations(range(1, n + 1)):
            assert insertion_height(values) == height(build_bst(Permutation(values)))

    @pytest.mark.parametrize("n", (100, 1000))
    def test_matches_the_built_tree_on_random_permutations(self, n):
        rng = random.Random(n)
        values = list(range(1, n + 1))
        for _ in range(200):
            rng.shuffle(values)
            assert insertion_height(values) == height(build_bst(Permutation(tuple(values))))

    def test_conventions(self):
        assert insertion_height(()) == -1
        assert insertion_height((1,)) == 0

    def test_spines_past_the_recursion_limit(self):
        # 5000 levels, deeper than Python's default recursion limit of 1000
        n = 5000
        assert insertion_height(range(1, n + 1)) == n - 1
        assert insertion_height(range(n, 0, -1)) == n - 1


class TestRecords:
    def test_worked_example(self):
        assert record_count_perm(perm_of(*FIGURE_PERM)) == 3
        assert record_count_tree(build_bst(perm_of(*FIGURE_PERM))) == 3

    def test_monotone_sequences(self):
        n = 7
        up = Permutation(tuple(range(1, n + 1)))
        down = Permutation(tuple(range(n, 0, -1)))
        assert record_count_perm(up) == n
        assert record_count_perm(down) == 1

    def test_empty(self):
        assert record_count_perm(perm_of()) == 0


class TestLeftProfile:
    def test_worked_example(self):
        prof = left_profile(build_bst(perm_of(*FIGURE_PERM)))
        assert prof.sizes == (1, 1, 1)
        assert prof.record_count == 3
        assert prof.record_count + sum(prof.sizes) == 6

    def test_right_spine(self):
        prof = left_profile(build_bst(perm_of(1, 2, 3, 4)))
        assert prof.sizes == (0, 0, 0, 0)
        assert prof.record_count == 4

    def test_left_spine(self):
        prof = left_profile(build_bst(perm_of(5, 4, 3, 2, 1)))
        assert prof.sizes == (4,)
        assert prof.record_count == 1

    def test_empty_tree_raises(self):
        with pytest.raises(ValueError, match="left_profile of the empty tree"):
            left_profile(BstTree())
        with pytest.raises(ValueError, match="height_via_profile of the empty tree"):
            height_via_profile(BstTree())

    def test_validation(self):
        with pytest.raises(ValueError):
            LeftProfile(sizes=(-1,))

    def test_sizes_are_exact_ints_on_all_of_s7(self):
        # left_profile skips the constructor's check, so its walk must give what it would pass
        for values in itertools.permutations(range(1, 8)):
            prof = left_profile(build_bst(perm_of(*values)))
            assert type(prof.sizes) is tuple
            assert all(type(k) is int and k >= 0 for k in prof.sizes)
            assert prof.record_count + sum(prof.sizes) == 7
            assert prof == LeftProfile(prof.sizes) and hash(prof) == hash(LeftProfile(prof.sizes))


class TestHeightViaProfile:
    def test_worked_example(self):
        tree = build_bst(perm_of(*FIGURE_PERM))
        assert height_via_profile(tree) == height(tree) == 3

    def test_spines(self):
        n = 8
        assert height_via_profile(build_bst(Permutation(tuple(range(1, n + 1))))) == n - 1
        assert height_via_profile(build_bst(Permutation(tuple(range(n, 0, -1))))) == n - 1


class TestTypes:
    def test_permutation_rejects_non_bijections(self):
        for bad in ((1, 1), (0, 1), (2, 3), (1, 2, 4)):
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RbParams(-1, 1.0)
        with pytest.raises(ValueError):
            RbParams(2, -0.5)
        with pytest.raises(ValueError):
            RbParams(2, float("inf"))
        assert RbParams(0, 0.0).theta == 0.0

    def test_is_valid_bst_detects_broken_labels(self):
        tree = build_bst(perm_of(2, 1, 3))
        assert is_valid_bst(tree)
        tree.labels[tree.root] = 5
        assert not is_valid_bst(tree)

    def test_is_valid_bst_matches_reference_on_random_arenas(self):
        # arenas of up to 7 nodes with random labels in 0..n + 1 (repeats and out-of-range
        # ones) and random child links (cycles, shared children, unreachable nodes), and
        # valid trees with one label or link changed
        rng = random.Random(20261022)
        agree = Counter()
        for _ in range(20000):
            n = rng.randrange(8)
            if n and rng.random() < 0.5:
                tree = build_bst(perm_of(*rng.sample(range(1, n + 1), n)))
                field = rng.choice((tree.labels, tree.left, tree.right))
                field[rng.randrange(n)] = rng.randrange(-1, n + 2 if field is tree.labels else n)
            else:
                tree = BstTree(
                    labels=[rng.randrange(n + 2) for _ in range(n)],
                    left=[rng.randrange(-1, n) for _ in range(n)],
                    right=[rng.randrange(-1, n) for _ in range(n)],
                    root=rng.randrange(-1, n) if n else -1,
                )
            expected = ref_is_valid_bst(tree)
            assert is_valid_bst(tree) == expected, tree
            agree[expected] += 1
        assert min(agree[True], agree[False]) > 2000, agree

    @pytest.mark.parametrize("values", [(1,), (2, 1, 3), FIGURE_PERM])
    def test_is_valid_bst_refuses_links_that_name_no_node(self, values):
        # a link or root of -3, -2, n or n + 1 names no node: below NO_CHILD it would index
        # from the end of a list, past the arena's end it would raise IndexError
        n = len(values)
        base = build_bst(perm_of(*values))
        assert is_valid_bst(base)
        for bad in (-3, -2, n, n + 1):
            tree = BstTree(list(base.labels), list(base.left), list(base.right), bad)
            assert not is_valid_bst(tree), (bad, tree)
            for field in ("left", "right"):
                for node in range(n):
                    tree = BstTree(list(base.labels), list(base.left), list(base.right), base.root)
                    getattr(tree, field)[node] = bad
                    assert not is_valid_bst(tree), (bad, tree)
        assert not is_valid_bst(BstTree([1, 2], [-1, -1], [7, -1], 0))
        assert not is_valid_bst(BstTree([1, 2, 3], [-1, -1, -1], [-2, 2, -1], 0))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_is_valid_bst_with_link_lists_of_another_length(self, n):
        # shorter link lists leave a node without its links; longer ones hold entries that no
        # node of the arena reads, so they change nothing
        base = build_bst(perm_of(*range(n, 0, -1)))
        for field in ("left", "right"):
            links = getattr(base, field)
            for shorter in range(n):
                tree = BstTree(list(base.labels), list(base.left), list(base.right), base.root)
                setattr(tree, field, links[:shorter])
                assert not is_valid_bst(tree), tree
            tree = BstTree(list(base.labels), list(base.left), list(base.right), base.root)
            setattr(tree, field, links + [NO_CHILD, 0])
            assert is_valid_bst(tree), tree
            # a link to node n reads the extra entries but finds no label there
            tree.left[n - 1] = n
            assert not is_valid_bst(tree), tree

    def test_is_valid_bst_refuses_labels_that_do_not_compare(self):
        tree = build_bst(perm_of(2, 1, 3))
        tree.labels[tree.left[tree.root]] = "1"
        assert not is_valid_bst(tree)


@pytest.mark.parametrize("n", range(0, 7))
def test_exhaustive_against_reference(n):
    for values in itertools.permutations(range(1, n + 1)):
        perm = Permutation(values)
        tree = build_bst(perm)
        assert is_valid_bst(tree)
        assert height(tree) == ref_height(ref_bst(values))
        assert record_count_perm(perm) == ref_records(values)
        assert record_count_tree(tree) == record_count_perm(perm)
        if n > 0:
            prof = left_profile(tree)
            assert prof.sizes == ref_left_sizes(values)
            assert prof.record_count + sum(prof.sizes) == n
            assert height_via_profile(tree) == height(tree)
            assert height(tree) >= record_count_tree(tree) - 1


def _preorder(node):
    if node is None:
        return []
    label, left, right = node
    return [label, *_preorder(left), *_preorder(right)]


@pytest.mark.parametrize("n", range(1, 7))
def test_rebuild_from_consistent_orders(n):
    """Any insertion order consistent with the tree reproduces the tree."""
    for values in itertools.permutations(range(1, n + 1)):
        tree = build_bst(Permutation(values))
        ref = ref_from_arena(tree)
        assert ref == ref_bst(values)
        assert ref_from_arena(build_bst(Permutation(tuple(_preorder(ref))))) == ref
        # BFS order is also consistent (parents before children)
        order = []
        queue = [tree.root]
        while queue:
            node = queue.pop(0)
            order.append(tree.labels[node])
            for child in (tree.left[node], tree.right[node]):
                if child != -1:
                    queue.append(child)
        assert ref_from_arena(build_bst(Permutation(tuple(order)))) == ref


@st.composite
def random_permutations(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(values))


@settings(deadline=None, max_examples=150)
@given(random_permutations())
def test_structural_identities_hold(perm):
    tree = build_bst(perm)
    assert is_valid_bst(tree)
    assert record_count_tree(tree) == record_count_perm(perm)
    if perm.n > 0:
        prof = left_profile(tree)
        assert prof.record_count + sum(prof.sizes) == perm.n
        assert height_via_profile(tree) == height(tree)
        assert height(tree) >= prof.record_count - 1
