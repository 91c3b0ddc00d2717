"""Self-distributive operations on finite carriers.

Operation tables and axiom checks, constructions (affine families, group
heaps, doublings, arity passages), cocycles and abelian extensions, integral
and finite-coefficient (co)homology, braid actions, and linear-algebra
instances over prime fields.

Importing the package loads `limits`, `kernels`, `optable`, `constructions`
and `homology`, which every command uses.  `homology` must load here: the
package binds the function `homology` over the submodule of that name, and
importing the submodule later would rebind `selfdist.homology` to the
module.  `linear`, `cocycles`, `enumeration` and `braid` load on first
access to any of their names (or to the submodule itself), through the
module `__getattr__`, which then keeps the name among the package's
globals; `__all__` and `dir()` list every name either way.
"""
from importlib import import_module as _import_module

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
                       homology, labeled_boundary, smith_normal_form,
                       solve_mod, verify_chain_map)
# the public names of the submodules that load on first access
_LAZY = {
    "braid": ("BraidWord", "braid_act", "twist_op", "verify_braid_relations",
              "verify_equivariance"),
    "linear": ("ComonoidObject", "Field", "HopfAlgebraObject",
               "LieAlgebraObject", "LinMap", "SDObject", "augmented_operation",
               "categorical_double", "check_augmented_hopf", "check_nary_sd",
               "group_algebra_hopf", "hopf_adjoint_ternary", "hopf_heap",
               "lie_to_binary_sd", "switching_lemmas_check"),
    "cocycles": ("AbGroup", "Cochain", "SES", "are_compatible_ternary_cocycles",
                 "are_mutually_distributive_cocycles",
                 "binary_cocycle_from_ternary_pair", "coeff_group",
                 "cocycles_cohomologous", "cyclic_ses",
                 "doubled_binary_cocycle", "doubled_ternary_cocycle", "extend",
                 "extend_mutual_pair", "extension_equivalent",
                 "is_binary_2cocycle", "is_normalized_cochain",
                 "is_ternary_2cocycle", "power_cocycle", "split_ses",
                 "ternary_cocycle_from_pair", "three_cocycle_from_ses",
                 "zero_cochain"),
    "enumeration": ("enumerate_affine", "enumerate_mutual_pairs",
                    "enumerate_operations", "enumerate_racks",
                    "find_isomorphism", "isomorphism_classes",
                    "tables_isomorphic"),
}
_HOME = {name: module for module, names in _LAZY.items()
         for name in (module, *names)}
# the eager names are the public globals so far: what the imports above
# bound, with the submodules they loaded
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_HOME))


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
