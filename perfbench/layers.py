"""Which selfdist functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Each target is a public function; span
names are "<layer>.<function>".  Hooks add counts computed from a call's
arguments and result, so the package itself reports nothing.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

LAYERS = ("cli", "optable", "kernels", "constructions", "cocycles", "homology",
          "enumeration", "linear", "braid")

OPTABLE_GROUPS = ("group_from_cayley", "cyclic_group", "symmetric_group",
                  "dihedral_group", "direct_product")
OPTABLE_CHECKS = ("exchange_holds", "is_nary_distributive", "is_rack", "is_quandle",
                  "are_mutually_distributive", "are_compatible_ternary",
                  "inverse_translations", "heap_vs_core_directional", "evaluate")
KERNEL_SCANS = {"exchange_scan": "exchange_scan", "exchange_sample": "exchange_scan",
                "translation_scan": "translation_scan", "compat_scan": "compat_scan",
                "nary_cocycle_scan": "cocycle_scan",
                "mutual_cocycle_scan": "cocycle_scan",
                "compat_cocycle_scan": "cocycle_scan"}
CONSTRUCTIONS = ("affine_op", "conj_quandle", "core_quandle", "heap_op",
                 "generalized_alexander", "commuting_automorphisms", "power_op",
                 "projection_op", "product_mutual_pair", "doubling_binary",
                 "doubling_ternary", "f_functor", "g_functor",
                 "verify_functor_identities", "compose_mn", "monoid_product",
                 "augmented_ternary")
COCYCLE_CHECKS = ("is_binary_2cocycle", "is_ternary_2cocycle",
                  "are_mutually_distributive_cocycles",
                  "are_compatible_ternary_cocycles", "cocycles_cohomologous")
COCYCLE_EXTENDS = ("extend", "extend_mutual_pair")
HOMOLOGY = ("ternary_boundary", "labeled_boundary", "boundary_matrix",
            "smith_normal_form", "solve_mod", "kernel_lattice_mod", "homology",
            "cohomology_solve", "chain_map_F", "verify_chain_map")
ENUMERATORS = ("enumerate_operations", "enumerate_affine", "enumerate_racks",
               "enumerate_mutual_pairs")
ISO = ("find_isomorphism", "tables_isomorphic", "isomorphism_classes")
LINEAR_BUILD = ("group_algebra_hopf", "hopf_heap", "hopf_adjoint_ternary")
LINEAR_CHECK = ("check_nary_sd",)
BRAID_VERIFY = ("verify_braid_relations", "verify_equivariance")
BRAID_TWIST = ("twist_op",)


def _names(layer, funcs):
    return frozenset(f"{layer}.{f}" for f in funcs)


GROUPS = {
    "optable.group_build": _names("optable", OPTABLE_GROUPS),
    "optable.table_build": _names("optable", ("make_op_table",)),
    "optable.relabel": _names("optable", ("relabel",)),
    "kernels.all": _names("kernels", KERNEL_SCANS),
    **{f"kernels.{g}": _names("kernels", [f for f, h in KERNEL_SCANS.items() if h == g])
       for g in set(KERNEL_SCANS.values())},
    "homology.boundary": _names("homology", ("ternary_boundary", "labeled_boundary")),
    "homology.smith": _names("homology", ("smith_normal_form",)),
    "homology.solve": _names("homology", ("kernel_lattice_mod", "solve_mod")),
    "enumeration.enumerate": _names("enumeration", ENUMERATORS),
    "enumeration.iso": _names("enumeration", ISO),
    "cocycles.check": _names("cocycles", COCYCLE_CHECKS),
    "cocycles.extend": _names("cocycles", COCYCLE_EXTENDS),
    "linear.hopf_build": _names("linear", LINEAR_BUILD),
    "linear.check_sd": _names("linear", LINEAR_CHECK),
    "braid.verify": _names("braid", BRAID_VERIFY),
    "braid.twist": _names("braid", BRAID_TWIST),
}


# ---------------------------------------------------------------------------
# counting hooks

def _digest(value):
    if isinstance(value, np.ndarray):
        return hashlib.blake2b(np.ascontiguousarray(value).tobytes(),
                               digest_size=12).hexdigest()
    return repr(value)


def _scan_hook(total, lookups, exclude=("jobs",)):
    """Hook for a scan kernel returning the first failing flat index or -1."""
    def hook(tracer, a, result):
        n_total = total(a)
        tuples = n_total if result < 0 else int(result) + 1
        first = next(v for v in a.values() if isinstance(v, np.ndarray))
        tracer.counts["kernels.tuples"] += tuples
        tracer.counts["kernels.bytes_computed"] += tuples * lookups(a) * first.itemsize
        key = tuple(_digest(v) for k, v in a.items() if k not in exclude)
        seen = tracer.job_state.setdefault("scans", set())
        tracer.counts["kernels.scans"] += 1
        if key in seen:
            tracer.counts["kernels.repeat_scans"] += 1
        seen.add(key)
    return hook


def _exchange_sample_hook(tracer, a, result):
    rows = len(a["tuples"])
    _scan_hook(lambda _: rows, lambda a: a["m"] + 3)(tracer, a, result)


def _boundary_hook(tracer, a, result):
    tracer.counts["homology.boundary_entries"] += result.size
    tracer.counts["homology.boundary_nnz"] += int(np.count_nonzero(result))


def _smith_hook(tracer, a, result):
    m = np.asarray(a["matrix"])
    tracer.counts["homology.smith_entries_in"] += m.size


def _enum_hook(candidates):
    def hook(tracer, a, result):
        tracer.counts["enumeration.candidates"] += candidates(a)
        tracer.counts["enumeration.tables_out"] += len(result)
    return hook


def _iso_hook(tracer, a, result):
    tracer.counts["enumeration.iso_pair_tests"] += 1
    tracer.counts["enumeration.iso_hits"] += result is not None


def _make_table_hook(tracer, a, result):
    tracer.counts["optable.table_entries_built"] += len(result.table)


HOOKS = {
    ("kernels", "exchange_scan"): _scan_hook(
        lambda a: a["N"] ** (a["m"] + a["n"] - 1), lambda a: a["m"] + 3),
    ("kernels", "exchange_sample"): _exchange_sample_hook,
    ("kernels", "translation_scan"): _scan_hook(
        lambda a: a["N"] ** (a["k"] - 1), lambda a: a["N"]),
    ("kernels", "compat_scan"): _scan_hook(lambda a: a["N"] ** 5, lambda a: 6),
    ("kernels", "nary_cocycle_scan"): _scan_hook(
        lambda a: a["N"] ** (2 * a["k"] - 1), lambda a: a["k"] + 5),
    ("kernels", "mutual_cocycle_scan"): _scan_hook(lambda a: a["N"] ** 3, lambda a: 6),
    ("kernels", "compat_cocycle_scan"): _scan_hook(lambda a: a["N"] ** 6, lambda a: 8),
    ("homology", "ternary_boundary"): _boundary_hook,
    ("homology", "labeled_boundary"): _boundary_hook,
    ("homology", "smith_normal_form"): _smith_hook,
    ("enumeration", "enumerate_operations"): _enum_hook(
        lambda a: a["size"] ** (a["size"] ** a["arity"])),
    ("enumeration", "enumerate_affine"): _enum_hook(
        lambda a: a["modulus"] ** (a["arity"] - 1)),
    ("enumeration", "enumerate_racks"): _enum_hook(
        lambda a: math.factorial(a["size"]) ** (a["size"] ** (a["arity"] - 1))),
    ("enumeration", "find_isomorphism"): _iso_hook,
    ("optable", "make_op_table"): _make_table_hook,
}


def targets():
    """(module, function, span name, hook) for every traced function."""
    table = {
        "cli": ("main",),
        "optable": OPTABLE_GROUPS + OPTABLE_CHECKS + ("make_op_table", "relabel"),
        "kernels": tuple(KERNEL_SCANS),
        "constructions": CONSTRUCTIONS,
        "cocycles": COCYCLE_CHECKS + COCYCLE_EXTENDS,
        "homology": HOMOLOGY,
        "enumeration": ENUMERATORS + ISO,
        "linear": LINEAR_BUILD + LINEAR_CHECK,
        "braid": BRAID_VERIFY + BRAID_TWIST + ("braid_act",),
    }
    return [(layer, f, f"{layer}.{f}", HOOKS.get((layer, f)))
            for layer, funcs in table.items() for f in funcs]


# ---------------------------------------------------------------------------
# metrics

PER_LAYER = [
    # name, unit
    *[(f"kernels.{s}.{m}", u) for s in ("exchange_scan", "translation_scan",
                                       "compat_scan", "cocycle_scan")
      for m, u in (("busy_s", "s"), ("calls", "count"))],
    ("kernels.tuples", "count"), ("kernels.tuples_per_s", "1/s"),
    ("kernels.bytes_computed", "B"), ("kernels.repeat_scan_frac", "fraction"),
    ("homology.boundary_s", "s"), ("homology.boundary_entries", "count"),
    ("homology.boundary_nnz", "count"), ("homology.smith_s", "s"),
    ("homology.smith_calls", "count"), ("homology.smith_entries_in", "count"),
    ("homology.solve_s", "s"), ("homology.self_s", "s"),
    ("enumeration.enumerate_s", "s"), ("enumeration.candidates", "count"),
    ("enumeration.tables_out", "count"), ("enumeration.yield_frac", "fraction"),
    ("enumeration.iso_s", "s"), ("enumeration.iso_pair_tests", "count"),
    ("enumeration.iso_hit_frac", "fraction"),
    ("optable.group_build_s", "s"), ("optable.table_build_s", "s"),
    ("optable.table_entries_built", "count"), ("optable.check_self_s", "s"),
    ("optable.relabel_s", "s"),
    ("constructions.build_self_s", "s"), ("constructions.verify_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "B"),
    ("cocycles.check_s", "s"), ("cocycles.extend_s", "s"),
    ("linear.hopf_build_s", "s"), ("linear.check_sd_s", "s"),
    ("braid.verify_s", "s"), ("braid.twist_s", "s"),
    *[(f"self_share.{layer}", "fraction") for layer in LAYERS],
    ("trace_overhead_frac", "fraction"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(tr, passes, traced_job_s, overhead):
    """Per-pass layer figures from a tracer that saw `passes` traced passes.

    Every time here is in raw seconds, as the tracer's clock reads them.
    traced_job_s is the summed raw job time of those passes, the
    denominator of the self-time shares; overhead is the traced over
    untraced pass time, minus 1.
    """
    g, c, calls, self_s = tr.group_s, tr.counts, tr.calls, tr.self_s
    out = {}
    for scan in ("exchange_scan", "translation_scan", "compat_scan", "cocycle_scan"):
        out[f"kernels.{scan}.busy_s"] = g[f"kernels.{scan}"] / passes
        out[f"kernels.{scan}.calls"] = sum(
            calls[f"kernels.{f}"] for f, h in KERNEL_SCANS.items() if h == scan) / passes
    out["kernels.tuples"] = c["kernels.tuples"] / passes
    out["kernels.tuples_per_s"] = _ratio(c["kernels.tuples"], g["kernels.all"])
    out["kernels.bytes_computed"] = c["kernels.bytes_computed"] / passes
    out["kernels.repeat_scan_frac"] = _ratio(c["kernels.repeat_scans"], c["kernels.scans"])
    out["homology.boundary_s"] = g["homology.boundary"] / passes
    out["homology.boundary_entries"] = c["homology.boundary_entries"] / passes
    out["homology.boundary_nnz"] = c["homology.boundary_nnz"] / passes
    out["homology.smith_s"] = g["homology.smith"] / passes
    out["homology.smith_calls"] = calls["homology.smith_normal_form"] / passes
    out["homology.smith_entries_in"] = c["homology.smith_entries_in"] / passes
    out["homology.solve_s"] = g["homology.solve"] / passes
    out["enumeration.enumerate_s"] = g["enumeration.enumerate"] / passes
    out["enumeration.candidates"] = c["enumeration.candidates"] / passes
    out["enumeration.tables_out"] = c["enumeration.tables_out"] / passes
    out["enumeration.yield_frac"] = _ratio(c["enumeration.tables_out"],
                                           c["enumeration.candidates"])
    out["enumeration.iso_s"] = g["enumeration.iso"] / passes
    out["enumeration.iso_pair_tests"] = c["enumeration.iso_pair_tests"] / passes
    out["enumeration.iso_hit_frac"] = _ratio(c["enumeration.iso_hits"],
                                             c["enumeration.iso_pair_tests"])
    out["optable.group_build_s"] = g["optable.group_build"] / passes
    out["optable.table_build_s"] = g["optable.table_build"] / passes
    out["optable.table_entries_built"] = c["optable.table_entries_built"] / passes
    out["optable.check_self_s"] = sum(self_s[f"optable.{f}"] for f in OPTABLE_CHECKS) / passes
    out["optable.relabel_s"] = g["optable.relabel"] / passes
    builders = _names("constructions", CONSTRUCTIONS)
    checks = (_names("optable", OPTABLE_CHECKS) | _names("kernels", KERNEL_SCANS)
              | _names("cocycles", COCYCLE_CHECKS))
    out["constructions.build_self_s"] = sum(self_s[b] for b in builders) / passes
    # checks and scans called directly from a builder: verifying, not building
    out["constructions.verify_s"] = sum(
        s for (parent, child), s in tr.edge_s.items()
        if parent in builders and child in checks) / passes
    out["cli.self_s"] = self_s["cli.main"] / passes
    out["cli.bytes_out"] = c["cli.bytes_out"] / passes
    out["cocycles.check_s"] = g["cocycles.check"] / passes
    out["cocycles.extend_s"] = g["cocycles.extend"] / passes
    out["linear.hopf_build_s"] = g["linear.hopf_build"] / passes
    out["linear.check_sd_s"] = g["linear.check_sd"] / passes
    out["braid.verify_s"] = g["braid.verify"] / passes
    out["braid.twist_s"] = g["braid.twist"] / passes
    layer_self = tr.layer_self()
    out["homology.self_s"] = layer_self.get("homology", 0.0) / passes
    for layer in LAYERS:
        out[f"self_share.{layer}"] = _ratio(layer_self.get(layer, 0.0), traced_job_s)
    out["trace_overhead_frac"] = overhead
    units = dict(PER_LAYER)
    return {k: {"value": out[k], "unit": units[k]} for k, _ in PER_LAYER}
