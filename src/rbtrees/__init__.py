"""Record-biased permutations, their search trees, and height verification."""

from .analytics import (
    EnumeratedLaws,
    ExactDistribution,
    beta_product_survival,
    c_star,
    chernoff_record_tail,
    conditional_height_tail_bound,
    enumerate_exact,
    left_profile_tail_bound,
    left_root_tail,
    mu,
    profile_tail_constants,
    records_mgf,
    root_split_distribution,
    root_split_pmf,
)
from .experiments import (
    ChiSquareResult,
    DominanceRow,
    ExperimentConfig,
    RecordConcentrationRow,
    TrialSummary,
    chi_square_gof,
    dkw_epsilon,
    height_normalizer,
    run_dominance_check,
    run_height_ratio,
    run_record_concentration,
)
from .model import (
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
from .samplers import (
    HeightSample,
    RandomSource,
    sample_height_only,
    sample_record_count,
    sample_sequential,
    sample_tree_recursive,
)

__all__ = [name for name in dir() if not name.startswith("_")]
