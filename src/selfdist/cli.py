"""Command-line surface: check, construct, solve, compute, enumerate.

Every run produces a report: the echoed command, one verdict per requested
property (carrying a counterexample when one exists), any produced artifacts
(inline, or on disk via --output), and wall time.  Exit status 0 means every
requested property holds, 1 means some property failed, 2 means the input
was malformed or over a resource budget or the --output file could not be
written, and 3 means an internal error: any other exception, such as a
failed allocation.  Its traceback goes into the
JSON report; the human format prints one line on stderr.  Every budget
refusal comes from `selfdist.limits`, which charges a request's bytes and
loop steps before any of it is built, and reads "refusing <what>: needs
<n> bytes|steps, budget <b>".  --format json
prints the report as one JSON object tagged with a schema version; verdict
content is deterministic, only the seconds field varies between runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from . import braid as braid_mod
from . import enumeration
from .cocycles import (Cochain, SES, cocycles_cohomologous, extend,
                       extend_mutual_pair, is_binary_2cocycle,
                       is_ternary_2cocycle, three_cocycle_from_ses)
from .constructions import (PreconditionError, affine_op, augmented_ternary,
                            compose_mn, conj_quandle, core_quandle,
                            doubling_binary, doubling_ternary, f_functor,
                            g_functor, generalized_alexander, heap_op,
                            monoid_product, power_op, product_mutual_pair,
                            projection_op)
from .homology import cohomology_solve, homology, verify_chain_map
from .linear import (Field, LinMap, LieAlgebraObject, SDObject,
                     augmented_operation, check_augmented_hopf, check_nary_sd,
                     group_algebra_hopf, hopf_adjoint_ternary, hopf_heap,
                     lie_to_binary_sd)
from .optable import (Axioms, CheckResult, FiniteGroup, InputError, OpTable,
                      are_compatible_ternary, are_mutually_distributive,
                      cyclic_group, dihedral_group, symmetric_group)

SCHEMA = "selfdist-report/1"


# ---------------------------------------------------------------------------
# report


JSON_CHUNK = 1 << 16   # list items per piece of streamed JSON output

_compact = json.JSONEncoder().encode
_SCALARS = frozenset((int, float, str, bool, type(None)))


def _json_default(value):
    """Numpy values as the Python values they hold, and fractions as text;
    the encoders' fallback."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _plain(value):
    """A witness as nested lists of Python scalars, for both report formats."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = _json_default(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@functools.lru_cache(maxsize=None)
def _items_encoder(depth: int):
    """C encoder that puts each scalar list item on its own line at `depth`."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _json_key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _compact(key)
    return _compact(key)


def _labelled(value) -> bool:
    """Whether value is a nonempty 1-d integer array with entries in
    0..len(value)-1, which `_iter_json` writes by label lookup."""
    return (value.ndim == 1 and value.dtype.kind in "iu" and value.size > 0
            and value.min() >= 0 and value.max() < value.size)


def _iter_json(value, depth: int = 0):
    """The text of json.dumps(value, indent=2), in pieces of bounded size.

    Lists are taken JSON_CHUNK items at a time; a chunk of plain scalars is
    encoded in one call of the C encoder, anything else item by item.  A
    1-d integer array with entries in 0..len-1, such as a table's entries,
    is taken JSON_CHUNK entries at a time too: each entry's text is looked
    up in a list of one label per value, which holds at most len(array)
    labels.  Any other array is written as its list.
    """
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, np.ndarray) and _labelled(value):
        labels = np.array(["," + pad + str(i) for i in range(int(value.max()) + 1)],
                          dtype=object)
        for start in range(0, len(value), JSON_CHUNK):
            text = "".join(labels[value[start:start + JSON_CHUNK]].tolist())
            yield "[" + text[1:] if start == 0 else text
        yield "\n" + "  " * depth + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        sep = "{"
        for key, item in value.items():
            yield sep + pad + _json_key(key) + ": "
            yield from _iter_json(item, depth + 1)
            sep = ","
        yield "\n" + "  " * depth + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        sep = "["
        for start in range(0, len(value), JSON_CHUNK):
            chunk = value[start:start + JSON_CHUNK]
            if _SCALARS.issuperset(map(type, chunk)):
                yield sep + pad + _items_encoder(depth + 1)(chunk)[1:-1]
                sep = ","
                continue
            for item in chunk:
                yield sep + pad
                yield from _iter_json(item, depth + 1)
                sep = ","
        yield "\n" + "  " * depth + "]"
    elif isinstance(value, (str, int, float)) or value is None:
        yield _compact(value)
    else:
        yield from _iter_json(_json_default(value), depth)


def _dump_json(obj, fh):
    """Write json.dumps(obj, indent=2) and a newline, a bounded piece at a time."""
    fh.writelines(_iter_json(obj))
    fh.write("\n")


class Report:
    """Accumulates verdicts and artifacts for one invocation."""

    def __init__(self, argv):
        self.command = list(argv)
        self.verdicts = []
        self.artifacts = []
        self.seconds = 0.0

    def verdict(self, prop: str, result, detail: str = ""):
        if isinstance(result, CheckResult):
            cex = None
            if result.counterexample is not None:
                c = result.counterexample
                cex = {"witness": _plain(c.witness), "lhs": _plain(c.lhs),
                       "rhs": _plain(c.rhs)}
            self.verdicts.append({
                "property": prop, "holds": bool(result), "counterexample": cex,
                "detail": detail or result.detail})
        else:
            self.verdicts.append({"property": prop, "holds": bool(result),
                                  "counterexample": None, "detail": detail})

    def artifact(self, name: str, content: dict):
        self.artifacts.append({"name": name, "content": content,
                               "path": None})

    @property
    def exit_code(self) -> int:
        return 0 if all(v["holds"] for v in self.verdicts) else 1

    def as_json(self) -> dict:
        return {"schema": SCHEMA, "command": self.command,
                "verdicts": self.verdicts, "artifacts": self.artifacts,
                "seconds": self.seconds}

    def render_human(self) -> str:
        lines = []
        for v in self.verdicts:
            lines.append(f"{v['property']}: {'yes' if v['holds'] else 'no'}")
            if not v["holds"]:
                c = v["counterexample"]
                if c is not None:
                    lines.append(f"  at {tuple(c['witness'])}: "
                                 f"{c['lhs']} != {c['rhs']}")
                if v["detail"]:
                    lines.append(f"  {v['detail']}")
        for a in self.artifacts:
            if a["path"] is not None:
                lines.append(f"{a['name']} -> {a['path']}")
            else:
                lines.append(f"{a['name']}: {_summary(a['content'])}")
        lines.append(f"({self.seconds:.2f}s)")
        return "\n".join(lines)


def _summary(content) -> str:
    if isinstance(content, dict):
        if "table" in content and "size" in content:
            body = f"size {content['size']} arity {content['arity']}"
            if len(content["table"]) <= 64:
                body += " " + "".join(str(v) for v in content["table"])
            return body
        if "group" in content:
            return content["group"]
        text = json.dumps(content, default=_json_default)
        return text if len(text) <= 400 else text[:400] + "..."
    return str(content)


# ---------------------------------------------------------------------------
# input parsing helpers


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_op(path: str) -> OpTable:
    return OpTable.from_json(_load_json(path))


def _load_cochain(path: str) -> Cochain:
    return Cochain.from_json(_load_json(path))


def _load_group(spec: str) -> FiniteGroup:
    kind, _, arg = spec.partition(":")
    if kind in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(arg)
        except ValueError:
            raise InputError(f"group spec {spec!r} needs an integer parameter")
        return {"cyclic": cyclic_group, "dihedral": dihedral_group,
                "symmetric": symmetric_group}[kind](n)
    return FiniteGroup.from_json(_load_json(spec))


def _load_ses(spec: str) -> SES:
    kind, _, arg = spec.partition(":")
    if kind in ("cyclic", "split"):
        parts = _ints(arg)
        if len(parts) != 2:
            raise InputError(f"sequence spec {spec!r} needs sub,quotient orders")
        from .cocycles import cyclic_ses, split_ses
        build = cyclic_ses if kind == "cyclic" else split_ses
        return build(*parts)
    return SES.from_json(_load_json(spec))


def _ints(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v != "")
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {text!r}")


def _coeff(text: str):
    if text in ("Z", "z"):
        return None
    vals = _ints(text)
    if not vals:
        raise InputError("empty coefficient spec")
    return vals[0] if len(vals) == 1 else vals


def _rack_word(arity: int) -> str:
    return {2: "rack", 3: "ternary rack"}.get(arity, f"{arity}-ary rack")


# ---------------------------------------------------------------------------
# check


def _cmd_check(args, report, jobs):
    if args.what == "axioms":
        op = _load_op(args.op)
        props = args.props.split(",") if args.props else ["sd", "rack", "quandle"]
        axioms = Axioms(op, jobs)
        for p in props:
            if p == "sd":
                report.verdict("self-distributive", axioms.sd)
            elif p == "rack":
                report.verdict(_rack_word(op.arity), axioms.rack)
            elif p == "quandle":
                report.verdict("quandle", axioms.quandle)
            else:
                raise InputError(f"unknown property {p!r}")
    elif args.what == "mutual":
        op0, op1 = _load_op(args.op), _load_op(args.op1)
        report.verdict("mutually distributive",
                       are_mutually_distributive(op0, op1, jobs=jobs))
    elif args.what == "compat":
        t0, t1 = _load_op(args.op), _load_op(args.op1)
        report.verdict("compatible ternary pair",
                       are_compatible_ternary(t0, t1, jobs=jobs))
    elif args.what == "cocycle":
        op = _load_op(args.op)
        c = _load_cochain(args.cochain)
        if op.arity == 2:
            report.verdict("binary 2-cocycle", is_binary_2cocycle(c, op))
        elif op.arity == 3:
            report.verdict("ternary 2-cocycle", is_ternary_2cocycle(c, op))
        else:
            raise InputError("cocycle conditions cover arity 2 and 3 only")


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args, report, jobs):
    verify = not args.no_verify
    name = args.name

    def need(flag, value):
        if value is None:
            raise InputError(f"construct {name} needs --{flag}")
        return value

    if name == "affine":
        out = affine_op(need("modulus", args.modulus),
                        need("arity", args.arity),
                        _ints(need("coeffs", args.coeffs)))
    elif name == "projection":
        out = projection_op(need("size", args.size), need("arity", args.arity))
    elif name in ("conj", "core", "heap"):
        g = _load_group(need("group", args.group))
        out = {"conj": conj_quandle, "core": core_quandle, "heap": heap_op}[name](g)
    elif name == "alexander":
        g = _load_group(need("group", args.group))
        out = generalized_alexander(g, _ints(need("auto", args.auto)))
    elif name == "power":
        out = power_op(_load_op(need("op", args.op)),
                       need("exponent", args.exponent), verify=verify)
    elif name == "double-binary":
        out = doubling_binary(_load_op(need("op0", args.op0)),
                              _load_op(need("op1", args.op1)), verify=verify)
    elif name == "double-ternary":
        out = doubling_ternary(_load_op(need("op0", args.op0)),
                               _load_op(need("op1", args.op1)), verify=verify)
    elif name == "f":
        out = f_functor(_load_op(need("op0", args.op0)),
                        _load_op(need("op1", args.op1)), verify=verify)
    elif name == "g":
        out = g_functor(_load_op(need("op0", args.op0)),
                        _load_op(need("op1", args.op1)), verify=verify)
    elif name == "compose":
        out = compose_mn(_load_op(need("op0", args.op0)),
                         _load_op(need("op1", args.op1)), verify=verify)
    elif name == "monoid-product":
        out = monoid_product(_load_op(need("op0", args.op0)),
                             _load_op(need("op1", args.op1)))
    elif name == "product-pair":
        a, b = product_mutual_pair(_load_op(need("op0", args.op0)),
                                   _load_op(need("op1", args.op1)),
                                   verify=verify)
        report.artifact("op0", a.json_fields())
        report.artifact("op1", b.json_fields())
        return
    elif name == "augmented":
        g = _load_group(need("group", args.group))
        out = augmented_ternary(need("size", args.size), g,
                                _load_json(need("action", args.action)),
                                _load_json(need("pairing", args.pairing)),
                                verify=verify)
    elif name == "extend":
        out = extend(_load_op(need("op", args.op)),
                     _load_cochain(need("cochain", args.cochain)),
                     verify=verify)
    elif name == "extend-pair":
        a, b = extend_mutual_pair(_load_op(need("op0", args.op0)),
                                  _load_op(need("op1", args.op1)),
                                  _load_cochain(need("cochain0", args.cochain0)),
                                  _load_cochain(need("cochain1", args.cochain1)),
                                  verify=verify)
        report.artifact("op0", a.json_fields())
        report.artifact("op1", b.json_fields())
        return
    elif name == "twist":
        hat = _load_op(need("op", args.op))
        star = _load_op(need("star", args.star))
        word = braid_mod.BraidWord(hat.arity - 1, _ints(need("word", args.word)))
        out = braid_mod.twist_op(hat, star, word, verify=verify)
    else:
        raise InputError(f"unknown construction {name!r}")
    report.artifact("table", out.json_fields())


# ---------------------------------------------------------------------------
# homology / cohomology / cocycle


def _homology_target(args):
    if args.pair:
        return [_load_op(p) for p in args.pair]
    if args.op:
        return _load_op(args.op)
    raise InputError("need --op FILE or --pair FILE0 FILE1")


def _group_string(betti: int, torsion) -> str:
    parts = ["Z"] * betti + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def _cmd_homology(args, report, jobs):
    res = homology(_homology_target(args), args.degree, _coeff(args.coeff))
    report.artifact(f"H_{args.degree}", {
        "degree": args.degree, "coefficients": args.coeff,
        "betti": res.betti, "torsion": list(res.torsion),
        "group": _group_string(res.betti, res.torsion)})


def _cmd_cohomology(args, report, jobs):
    coeff = _coeff(args.coeff)
    if coeff is None:
        raise InputError("cohomology solving needs finite coefficients")
    res = cohomology_solve(_homology_target(args), args.degree, coeff)
    content = {
        "degree": args.degree, "coefficients": args.coeff,
        "cocycles": int(res.cocycles.shape[0]),
        "coboundaries": int(res.coboundaries.shape[0]),
        "invariants": list(res.invariants),
        "group": _group_string(0, res.invariants)}
    if args.generators:
        content["cocycle_generators"] = res.cocycles
        content["coboundary_generators"] = res.coboundaries
    report.artifact(f"H^{args.degree}", content)


def _cmd_cocycle(args, report, jobs):
    if args.what == "check":
        op = _load_op(args.op)
        c = _load_cochain(args.cochain)
        if op.arity == 2:
            report.verdict("binary 2-cocycle", is_binary_2cocycle(c, op))
        elif op.arity == 3:
            report.verdict("ternary 2-cocycle", is_ternary_2cocycle(c, op))
        else:
            raise InputError("cocycle conditions cover arity 2 and 3 only")
    elif args.what == "solve":
        _cmd_cohomology(args, report, jobs)
    elif args.what == "extend":
        out = extend(_load_op(args.op), _load_cochain(args.cochain),
                     verify=not args.no_verify)
        report.artifact("table", out.json_fields())
    elif args.what == "three-from-ses":
        alpha = three_cocycle_from_ses(_load_cochain(args.cochain),
                                       _load_op(args.op), _load_ses(args.ses),
                                       verify=not args.no_verify)
        report.artifact("cochain", alpha.as_json())
    elif args.what == "cohomologous":
        op = _load_op(args.op)
        same, eta = cocycles_cohomologous(_load_cochain(args.c1),
                                          _load_cochain(args.c2), op)
        report.verdict("cohomologous", same)
        if eta is not None:
            report.artifact("eta", eta.as_json())


def _cmd_chainmap(args, report, jobs):
    op0, op1 = (_load_op(p) for p in args.pair)
    report.verdict("chain map squares commute", verify_chain_map(op0, op1))


# ---------------------------------------------------------------------------
# braid


def _cmd_braid(args, report, jobs):
    if args.what == "act":
        op = _load_op(args.op)
        xs = _ints(args.input)
        word = braid_mod.BraidWord(len(xs), _ints(args.word))
        out = braid_mod.braid_act(op, word, xs)
        report.artifact("action", {"input": list(xs), "word": list(word.word),
                                   "output": list(out)})
    elif args.what == "relations":
        op = _load_op(args.op)
        report.verdict(f"braid relations on X^{args.strands}",
                       braid_mod.verify_braid_relations(op, args.strands))
    elif args.what == "twist":
        hat = _load_op(args.op)
        star = _load_op(args.star)
        word = braid_mod.BraidWord(hat.arity - 1, _ints(args.word))
        out = braid_mod.twist_op(hat, star, word, verify=not args.no_verify)
        report.artifact("table", out.json_fields())


# ---------------------------------------------------------------------------
# linear


def _default_pairing(H) -> LinMap:
    ident = LinMap.identity(H.unit.field, H.dim)
    return H.mult @ H.antipode.tensor(ident)


def _cmd_linear(args, report, jobs):
    if args.what == "check-sd":
        obj = SDObject.from_json(_load_json(args.object), verify=False)
        report.verdict("linear self-distributivity", check_nary_sd(obj))
        return
    if args.what == "lie":
        L = LieAlgebraObject.from_json(_load_json(args.object))
        obj = lie_to_binary_sd(L)
        report.verdict("linear self-distributivity", check_nary_sd(obj))
        report.artifact("object", obj.as_json())
        return
    field = Field(args.field)
    H = group_algebra_hopf(_load_group(args.group), field)
    if args.what == "heap":
        obj = hopf_heap(H)
        report.verdict("linear self-distributivity", check_nary_sd(obj))
        report.artifact("object", obj.as_json())
    elif args.what == "adjoint":
        obj = hopf_adjoint_ternary(H)
        report.verdict("linear self-distributivity", check_nary_sd(obj))
        report.artifact("object", obj.as_json())
    elif args.what == "augmented":
        p_map = (LinMap.from_json(_load_json(args.pairing))
                 if args.pairing else _default_pairing(H))
        X = H.comonoid()
        res = check_augmented_hopf(p_map, H, X, H.mult)
        report.verdict("augmented self-distributivity axiom", res)
        if res:
            obj = augmented_operation(p_map, H, X, H.mult, verify=False)
            report.artifact("object", obj.as_json())


# ---------------------------------------------------------------------------
# enumerate


def _cmd_enumerate(args, report, jobs):
    if args.pairs:
        pairs = enumeration.enumerate_mutual_pairs(args.size)
        report.artifact("pairs", {
            "count": len(pairs),
            "pairs": [[a.json_fields(), b.json_fields()] for a, b in pairs]})
        return
    kind = args.kind or ("rack" if args.scan == "translations" else "sd")
    if args.scan == "full":
        ops = enumeration.enumerate_operations(args.size, args.arity, kind)
    elif args.scan == "affine":
        ops = enumeration.enumerate_affine(args.size, args.arity, kind)
    elif args.scan == "translations":
        ops = enumeration.enumerate_racks(args.size, args.arity, kind)
    else:
        raise InputError(f"unknown scan {args.scan!r}")
    # the fields of `as_json` for each row, the entries left as the row
    # itself for the writer
    head = {"size": ops.size, "arity": ops.arity}
    tail = {"provenance": ops.meta} if ops.meta else {}
    report.artifact("tables", {"count": len(ops), "tables": [
        {**head, "table": row, **tail} for row in ops.tables]})


# ---------------------------------------------------------------------------
# wiring

HANDLERS = {"check": _cmd_check, "construct": _cmd_construct,
            "homology": _cmd_homology, "cohomology": _cmd_cohomology,
            "cocycle": _cmd_cocycle, "chainmap": _cmd_chainmap,
            "braid": _cmd_braid, "linear": _cmd_linear,
            "enumerate": _cmd_enumerate}


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The parser of every command line, built once per process, on the
    first call of `main`: building its 27 subparsers costs more than many of
    the jobs it parses.  Each parse fills a fresh namespace, so no call sees
    another's arguments, and `main` reads SELFDIST_JOBS, the default of
    --jobs, on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    common.add_argument("-o", "--output", default=argparse.SUPPRESS)

    top = argparse.ArgumentParser(
        prog="selfdist",
        description="Self-distributive operations: check, construct, compute.")
    top.add_argument("--format", choices=("human", "json"), default="human")
    # its default is SELFDIST_JOBS, set by `main` on every call
    top.add_argument("--jobs", type=int)
    top.add_argument("-o", "--output", default=None)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="axiom, mutual, compatibility, cocycle checks")
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("axioms", parents=[common])
    q.add_argument("op")
    q.add_argument("--props", default=None,
                   help="comma list out of sd,rack,quandle (default all)")
    q = ps.add_parser("mutual", parents=[common])
    q.add_argument("op")
    q.add_argument("op1")
    q = ps.add_parser("compat", parents=[common])
    q.add_argument("op")
    q.add_argument("op1")
    q = ps.add_parser("cocycle", parents=[common])
    q.add_argument("op")
    q.add_argument("cochain")

    p = sub.add_parser("construct", parents=[common],
                       help="run a table construction")
    p.add_argument("name", choices=(
        "affine", "projection", "conj", "core", "heap", "alexander", "power",
        "double-binary", "double-ternary", "f", "g", "compose",
        "monoid-product", "product-pair", "augmented", "extend",
        "extend-pair", "twist"))
    p.add_argument("--modulus", type=int)
    p.add_argument("--arity", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--coeffs")
    p.add_argument("--group")
    p.add_argument("--auto")
    p.add_argument("--op")
    p.add_argument("--op0")
    p.add_argument("--op1")
    p.add_argument("--star")
    p.add_argument("--word")
    p.add_argument("--exponent", type=int)
    p.add_argument("--action")
    p.add_argument("--pairing")
    p.add_argument("--cochain")
    p.add_argument("--cochain0")
    p.add_argument("--cochain1")
    p.add_argument("--no-verify", action="store_true",
                   help="skip hypothesis checks (unsafe)")

    for cmd in ("homology", "cohomology"):
        p = sub.add_parser(cmd, parents=[common])
        p.add_argument("--op")
        p.add_argument("--pair", nargs=2)
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--coeff", default="Z" if cmd == "homology" else None,
                       required=cmd == "cohomology")
        if cmd == "cohomology":
            p.add_argument("--generators", action="store_true")

    p = sub.add_parser("cocycle", parents=[common])
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("check", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--cochain", required=True)
    q = ps.add_parser("solve", parents=[common])
    q.add_argument("--op")
    q.add_argument("--pair", nargs=2)
    q.add_argument("--degree", type=int, required=True)
    q.add_argument("--coeff", required=True)
    q.add_argument("--generators", action="store_true")
    q = ps.add_parser("extend", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--cochain", required=True)
    q.add_argument("--no-verify", action="store_true")
    q = ps.add_parser("three-from-ses", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--cochain", required=True)
    q.add_argument("--ses", required=True,
                   help="sequence file, or cyclic:SUB,QUOT / split:SUB,QUOT")
    q.add_argument("--no-verify", action="store_true")
    q = ps.add_parser("cohomologous", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--c1", required=True)
    q.add_argument("--c2", required=True)

    p = sub.add_parser("chainmap", parents=[common])
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("verify", parents=[common])
    q.add_argument("--pair", nargs=2, required=True)

    p = sub.add_parser("braid", parents=[common])
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("act", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--word", required=True, help="signed letters, e.g. 1,1,-2")
    q.add_argument("--input", required=True, help="tuple to act on, e.g. 0,1,2")
    q = ps.add_parser("relations", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--strands", type=int, default=3)
    q = ps.add_parser("twist", parents=[common])
    q.add_argument("--op", required=True)
    q.add_argument("--star", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--no-verify", action="store_true")

    p = sub.add_parser("linear", parents=[common])
    ps = p.add_subparsers(dest="what", required=True)
    q = ps.add_parser("check-sd", parents=[common])
    q.add_argument("--object", required=True)
    q = ps.add_parser("lie", parents=[common])
    q.add_argument("--object", required=True)
    for name in ("heap", "adjoint", "augmented"):
        q = ps.add_parser(name, parents=[common])
        q.add_argument("--group", required=True,
                       help="group file or cyclic:N / dihedral:N / symmetric:N")
        q.add_argument("--field", type=int, required=True)
        if name == "augmented":
            q.add_argument("--pairing")

    p = sub.add_parser("enumerate", parents=[common])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--kind", choices=("all", "sd", "rack", "quandle"),
                   help="default sd, or rack under --scan translations")
    p.add_argument("--scan", default="full",
                   choices=("full", "affine", "translations"))
    p.add_argument("--pairs", action="store_true",
                   help="mutually distributive binary pairs instead of tables")
    return top


def _write_output(report: Report, path: str):
    if not report.artifacts:
        raise InputError("--output given but the command produced no artifact")
    if len(report.artifacts) == 1:
        payload = report.artifacts[0]["content"]
    else:
        payload = {a["name"]: a["content"] for a in report.artifacts}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _dump_json(payload, fh)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")
    for a in report.artifacts:
        a["path"] = path
        a["content"] = None


def _fail(args, report: Report, start: float, code: int, message: str,
          trace: str | None = None) -> int:
    """Report a run that ended without verdicts; returns its exit status."""
    report.seconds = time.perf_counter() - start
    if args.format == "json":
        out = report.as_json()
        out["error"] = message
        if trace is not None:
            out["traceback"] = trace
        _dump_json(out, sys.stdout)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # SELFDIST_JOBS is read on every call.  A string default goes through
    # type=int, so a bad value is a usage error like a bad --jobs.
    parser.set_defaults(jobs=os.environ.get("SELFDIST_JOBS", "1"))
    args = parser.parse_args(argv)
    report = Report(argv)
    start = time.perf_counter()
    try:
        if args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        HANDLERS[args.command](args, report, args.jobs)
        if args.output:
            _write_output(report, args.output)
    except PreconditionError as exc:
        result = getattr(exc, "result", None)
        if isinstance(result, CheckResult):
            report.verdict("construction hypothesis", result, detail=str(exc))
        else:
            report.verdict("construction hypothesis", False, detail=str(exc))
    except InputError as exc:
        return _fail(args, report, start, 2, str(exc))
    except Exception as exc:
        return _fail(args, report, start, 3,
                     f"internal error: {type(exc).__name__}: {exc}",
                     traceback.format_exc())
    report.seconds = time.perf_counter() - start
    if args.format == "json":
        _dump_json(report.as_json(), sys.stdout)
    else:
        print(report.render_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
