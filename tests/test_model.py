"""Tree construction and record statistics against brute-force references."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbtrees.model import (
    BstTree,
    LeftProfile,
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

from reference import ref_bst, ref_from_arena, ref_height, ref_left_sizes, ref_records

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
