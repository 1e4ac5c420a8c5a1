import pydoc

import permderiv

# The public names, as `from permderiv import *` and pydoc see them.
PUBLIC = """
BuilderState CountRow DPair Derivative DifferenceTriangle DuplicateValues InconsistentTree
InvalidTree JedwabWitness MAX_ORDER NotCoprime NotRealizable NotStrictlyOrdered
PartialColumnFill Permutation SearchSpec SignedPermutation StateNotKConvex WeightedTree
algorithm1 anti_identity build classify_convex complement construct_dpair construct_max_global
construct_maximin_abs construct_min_local_1costas count_costas count_one_costas delta_star
derivative descent_count distinct_through enumerate_convex extend extension_rows
format_int_sequence from_tree gamma global_variation identity integrate interval_rows inverse
inverse_dpair is_centrosymmetric is_convex is_costas is_costas_centrosymmetric is_costas_half
is_costas_signed is_costas_subpermutation is_dpair_realization is_feasible_dpair is_grassmannian
is_k_convex is_k_costas is_lipschitz is_mid_alternating is_realizable jedwab_witness
local_variation matrix maximin_abs_value min_global_1costas parse_int_sequence
permitted_positions pi_perm pi_star realize_shift render reverse reverse_second_half rotate90
row row_has_repeat start_state sum_characteristic table
""".split()


def test_all_lists_every_public_name_and_no_module():
    assert permderiv.__all__ == PUBLIC


def test_help_lists_reexported_classes_and_functions():
    text = pydoc.render_doc(permderiv, renderer=pydoc.plaintext)
    assert "class Permutation(" in text
    assert "jedwab_witness(p: 'Permutation')" in text
