"""The public surface: the names that ``from rbtrees import *`` gives.

A name joins or leaves the package only through an edit to this list.
"""

import rbtrees

PUBLIC = [
    "BstTree",
    "ChiSquareResult",
    "DominanceRow",
    "EnumeratedLaws",
    "ExactDistribution",
    "ExperimentConfig",
    "HeightSample",
    "LeftProfile",
    "Permutation",
    "RandomSource",
    "RbParams",
    "RecordConcentrationRow",
    "TrialSummary",
    "beta_product_survival",
    "build_bst",
    "c_star",
    "chernoff_record_tail",
    "chi_square_gof",
    "conditional_height_tail_bound",
    "dkw_epsilon",
    "enumerate_exact",
    "height",
    "height_normalizer",
    "height_via_profile",
    "is_valid_bst",
    "left_profile",
    "left_profile_tail_bound",
    "left_root_tail",
    "mu",
    "profile_tail_constants",
    "record_count_perm",
    "record_count_tree",
    "records_mgf",
    "root_split_distribution",
    "root_split_pmf",
    "run_dominance_check",
    "run_height_ratio",
    "run_record_concentration",
    "sample_height_only",
    "sample_record_count",
    "sample_sequential",
    "sample_tree_recursive",
]


def test_the_public_names_are_exactly_these():
    assert sorted(rbtrees.__all__) == PUBLIC
