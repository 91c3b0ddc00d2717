"""Self-distributive operations on finite carriers.

Operation tables and axiom checks, constructions (affine families, group
heaps, doublings, arity passages), cocycles and abelian extensions, integral
and finite-coefficient (co)homology, braid actions, and linear-algebra
instances over prime fields.
"""
from .optable import (CheckResult, Counterexample, FiniteGroup, InputError,
                      OpTable, TableStack, are_compatible_ternary,
                      are_mutually_distributive, cyclic_group, dihedral_group,
                      direct_product, evaluate, exchange_holds,
                      group_from_cayley, index_to_tuple, inverse_translations,
                      is_nary_distributive, is_quandle, is_rack, relabel,
                      symmetric_group, tuple_to_index)
from .constructions import (PreconditionError, affine_op,
                            affine_ternary_compat_conditions, augmented_ternary,
                            commuting_automorphisms, compose_mn, conj_quandle,
                            core_quandle, doubling_binary, doubling_ternary,
                            f_functor, g_functor, generalized_alexander,
                            heap_op, heap_vs_core_directional, monoid_product,
                            power_op, product_mutual_pair, projection_op,
                            verify_functor_identities)
from .homology import (CohomologyResult, HomologyResult, SmithResult,
                       boundary_matrix, chain_map_F, cohomology_solve,
                       homology, labeled_boundary, pullback_labeled_2cocycle,
                       smith_normal_form, solve_mod, verify_chain_map)
from .braid import (BraidWord, braid_act, twist_op, verify_braid_relations,
                    verify_equivariance)
from .linear import (ComonoidObject, Field, HopfAlgebraObject,
                     LieAlgebraObject, LinMap, SDObject, augmented_operation,
                     categorical_double, check_augmented_hopf, check_nary_sd,
                     group_algebra_hopf, hopf_adjoint_ternary, hopf_heap,
                     lie_to_binary_sd, switching_lemmas_check)
from .cocycles import (AbGroup, Cochain, SES,
                       are_compatible_ternary_cocycles,
                       are_mutually_distributive_cocycles,
                       binary_cocycle_from_ternary_pair, coeff_group,
                       cocycles_cohomologous, cyclic_ses,
                       doubled_binary_cocycle, doubled_ternary_cocycle,
                       extend, extend_mutual_pair, extension_equivalent,
                       is_binary_2cocycle, is_normalized_cochain,
                       is_ternary_2cocycle, power_cocycle, split_ses,
                       ternary_cocycle_from_pair, three_cocycle_from_ses,
                       zero_cochain)
from .enumeration import (enumerate_affine, enumerate_mutual_pairs,
                          enumerate_operations, enumerate_racks,
                          find_isomorphism, isomorphism_classes,
                          tables_isomorphic)

__all__ = [
    # the submodules, which importing the package binds
    "braid", "cocycles", "constructions", "enumeration", "kernels", "limits",
    "linear", "optable",
    # optable
    "CheckResult", "Counterexample", "FiniteGroup", "InputError", "OpTable",
    "TableStack", "are_compatible_ternary", "are_mutually_distributive",
    "cyclic_group", "dihedral_group", "direct_product", "evaluate",
    "exchange_holds", "group_from_cayley", "index_to_tuple",
    "inverse_translations", "is_nary_distributive", "is_quandle", "is_rack",
    "relabel", "symmetric_group", "tuple_to_index",
    # constructions
    "PreconditionError", "affine_op", "affine_ternary_compat_conditions",
    "augmented_ternary", "commuting_automorphisms", "compose_mn",
    "conj_quandle", "core_quandle", "doubling_binary", "doubling_ternary",
    "f_functor", "g_functor", "generalized_alexander", "heap_op",
    "heap_vs_core_directional", "monoid_product", "power_op",
    "product_mutual_pair", "projection_op", "verify_functor_identities",
    # homology
    "CohomologyResult", "HomologyResult", "SmithResult", "boundary_matrix",
    "chain_map_F", "cohomology_solve", "homology", "labeled_boundary",
    "pullback_labeled_2cocycle", "smith_normal_form", "solve_mod",
    "verify_chain_map",
    # braid
    "BraidWord", "braid_act", "twist_op", "verify_braid_relations",
    "verify_equivariance",
    # linear
    "ComonoidObject", "Field", "HopfAlgebraObject", "LieAlgebraObject",
    "LinMap", "SDObject", "augmented_operation", "categorical_double",
    "check_augmented_hopf", "check_nary_sd", "group_algebra_hopf",
    "hopf_adjoint_ternary", "hopf_heap", "lie_to_binary_sd",
    "switching_lemmas_check",
    # cocycles
    "AbGroup", "Cochain", "SES", "are_compatible_ternary_cocycles",
    "are_mutually_distributive_cocycles", "binary_cocycle_from_ternary_pair",
    "coeff_group", "cocycles_cohomologous", "cyclic_ses",
    "doubled_binary_cocycle", "doubled_ternary_cocycle", "extend",
    "extend_mutual_pair", "extension_equivalent", "is_binary_2cocycle",
    "is_normalized_cochain", "is_ternary_2cocycle",
    "power_cocycle", "split_ses", "ternary_cocycle_from_pair",
    "three_cocycle_from_ses", "zero_cochain",
    # enumeration
    "enumerate_affine", "enumerate_mutual_pairs", "enumerate_operations",
    "enumerate_racks", "find_isomorphism", "isomorphism_classes",
    "tables_isomorphic",
]
