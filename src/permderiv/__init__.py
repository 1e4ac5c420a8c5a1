"""Discrete derivatives of permutations and everything built on them.

Core value types live in perm_core; difference triangles in triangle;
Costas-style predicates and searches in costas; two-valued derivatives in
dpair; variation extremals in variation; convex permutations in convexity;
the pruned enumeration engine in search; the command line in cli.

Each public name below resolves on first use, from the module that defines
it: `import permderiv` loads no submodule, and `import permderiv.perm_core`
loads perm_core alone. Likewise a command-line request imports only the
modules its subcommand runs.
"""
__version__ = "0.1.0"

# Each public name's defining module, the one table that __getattr__, __dir__
# and __all__ read.
_HOME = {name: module for module, names in {
    "perm_core": """Derivative InconsistentTree InvalidTree MAX_ORDER NotRealizable Permutation
        WeightedTree anti_identity complement derivative descent_count format_int_sequence from_tree
        identity integrate inverse is_grassmannian is_realizable matrix parse_int_sequence realize_shift
        reverse rotate90 sum_characteristic""",
    "triangle": "DifferenceTriangle DuplicateValues build distinct_through render row row_has_repeat",
    "costas": """BuilderState JedwabWitness SignedPermutation extend gamma is_centrosymmetric is_costas
        is_costas_centrosymmetric is_costas_half is_costas_signed is_costas_subpermutation is_k_costas
        jedwab_witness permitted_positions reverse_second_half start_state""",
    "dpair": "DPair NotCoprime NotStrictlyOrdered construct_dpair inverse_dpair is_dpair_realization is_feasible_dpair",
    "variation": """construct_max_global construct_maximin_abs construct_min_local_1costas delta_star
        global_variation is_lipschitz is_mid_alternating local_variation maximin_abs_value
        min_global_1costas pi_perm pi_star""",
    "convexity": """PartialColumnFill StateNotKConvex algorithm1 classify_convex enumerate_convex
        extension_rows interval_rows is_convex is_k_convex""",
    "search": "CountRow SearchSpec count_costas count_one_costas table",
}.items() for name in names.split()}

# pydoc lists re-exported classes and functions only when they are named here.
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
