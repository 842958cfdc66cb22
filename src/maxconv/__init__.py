"""Exact (max,+)-convolution toolkit.

Solvers for the max-plus convolution problem family, executable
reductions between its members, a randomised knapsack solver built on
profile joins, and a CLI harness for generation, cross-checking, and
benchmarking.
"""

from .colorcoding import (
    color_coding,
    color_coding_layer,
    knapsack_rand,
)
from .core import (
    DEFAULT_KERNEL,
    KERNELS,
    Decision,
    Sequence,
    check_lower_bound,
    check_upper_bound,
    is_superadditive,
    max_conv,
    maxconv_values,
    min_conv,
    resolve_kernel,
)
from .decision import (
    ViolationReport,
    detect_single,
    detect_violations,
    max_conv_via_upperbound,
)
from .oracles import (
    KnapsackInstance,
    NecklaceInstance,
    ValueProfile,
    WeightedTree,
    knapsack01_dp,
    mcsp_brute,
    necklace_linf_brute,
    three_sum_conv_brute,
    tree_sparsity_dp,
    unbounded_knapsack_dp,
)
from .reductions import (
    ReductionOutcome,
    reduce_lowerbound_to_necklace,
    reduce_mcsp_to_maxconv,
    reduce_superadditivity_to_mcsp,
    reduce_superadditivity_to_unbounded,
    reduce_unbounded_to_01,
    reduce_upperbound_to_3sumconv,
    reduce_upperbound_to_superadditivity,
    tree_sparsity_via_maxconv,
)

__all__ = [
    "DEFAULT_KERNEL",
    "Decision",
    "KERNELS",
    "KnapsackInstance",
    "NecklaceInstance",
    "ReductionOutcome",
    "Sequence",
    "ValueProfile",
    "ViolationReport",
    "WeightedTree",
    "check_lower_bound",
    "check_upper_bound",
    "color_coding",
    "color_coding_layer",
    "detect_single",
    "detect_violations",
    "is_superadditive",
    "knapsack01_dp",
    "knapsack_rand",
    "max_conv",
    "max_conv_via_upperbound",
    "maxconv_values",
    "mcsp_brute",
    "min_conv",
    "necklace_linf_brute",
    "reduce_lowerbound_to_necklace",
    "reduce_mcsp_to_maxconv",
    "reduce_superadditivity_to_mcsp",
    "reduce_superadditivity_to_unbounded",
    "reduce_unbounded_to_01",
    "reduce_upperbound_to_3sumconv",
    "reduce_upperbound_to_superadditivity",
    "resolve_kernel",
    "three_sum_conv_brute",
    "tree_sparsity_dp",
    "tree_sparsity_via_maxconv",
    "unbounded_knapsack_dp",
]
