"""Discrete derivatives of permutations and everything built on them.

Core value types live in perm_core; difference triangles in triangle;
Costas-style predicates and searches in costas; two-valued derivatives in
dpair; variation extremals in variation; convex permutations in convexity;
the pruned enumeration engine in search; the command line in cli.
"""
import types

from .perm_core import (
    Derivative,
    InconsistentTree,
    InvalidTree,
    MAX_ORDER,
    NotRealizable,
    Permutation,
    WeightedTree,
    anti_identity,
    complement,
    derivative,
    descent_count,
    format_int_sequence,
    from_tree,
    identity,
    integrate,
    inverse,
    is_grassmannian,
    is_realizable,
    matrix,
    parse_int_sequence,
    realize_shift,
    reverse,
    rotate90,
    sum_characteristic,
)
from .triangle import DifferenceTriangle, DuplicateValues, build, distinct_through, render, row, row_has_repeat
from .costas import (
    BuilderState,
    JedwabWitness,
    SignedPermutation,
    extend,
    gamma,
    is_centrosymmetric,
    is_costas,
    is_costas_centrosymmetric,
    is_costas_half,
    is_costas_signed,
    is_costas_subpermutation,
    is_k_costas,
    jedwab_witness,
    permitted_positions,
    reverse_second_half,
    start_state,
)
from .dpair import DPair, NotCoprime, NotStrictlyOrdered, construct_dpair, inverse_dpair, is_dpair_realization, is_feasible_dpair
from .variation import (
    construct_max_global,
    construct_maximin_abs,
    construct_min_local_1costas,
    delta_star,
    global_variation,
    is_lipschitz,
    is_mid_alternating,
    local_variation,
    maximin_abs_value,
    min_global_1costas,
    pi_perm,
    pi_star,
)
from .convexity import (
    PartialColumnFill,
    StateNotKConvex,
    algorithm1,
    classify_convex,
    enumerate_convex,
    extension_rows,
    interval_rows,
    is_convex,
    is_k_convex,
)
from .search import CountRow, SearchSpec, count_costas, count_one_costas, table

__version__ = "0.1.0"

# Every public name imported above; pydoc lists re-exported classes and
# functions only when they are named here.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
