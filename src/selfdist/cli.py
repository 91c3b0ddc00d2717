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

Input files are decoded by `json`, with one exception.  In a file read as
an operation table, a cochain or a group, the top-level object's `table`,
`values` or `cayley` member is read straight into an int64 array when it is
an array of integers, flat or in rows of one length, written in at least
_ARRAY_MIN characters; the library takes such arrays as it takes lists.
Every other value, any array whose text is not plainly valid, a top-level
value that is not an object, and every decode error come from `json`, so
results and messages are those of `json.load`.

Every process runs one command, so this module imports at load only what
every command needs: tables, groups, constructions and homology.  Each
handler imports the rest of what it runs, from `cocycles`, `linear`,
`enumeration` or `braid`, when it is called.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
import traceback
import warnings

import numpy as np

from . import limits
from .constructions import (PreconditionError, affine_op, augmented_ternary,
                            compose_mn, conj_quandle, core_quandle,
                            doubling_binary, doubling_ternary, f_functor,
                            g_functor, generalized_alexander, heap_op,
                            monoid_product, power_op, product_mutual_pair,
                            projection_op)
from .homology import cohomology_solve, homology, verify_chain_map
from .optable import (Axioms, CheckResult, FiniteGroup, InputError, OpTable,
                      are_compatible_ternary, are_mutually_distributive,
                      cyclic_group, dihedral_group, symmetric_group)

SCHEMA = "selfdist-report/1"


# ---------------------------------------------------------------------------
# report


JSON_CHUNK = 1 << 16   # list items per piece of streamed JSON output
# integer arrays up to this length are written faster as their list than by
# label lookup, whose fixed cost is a label table and a join
_LABEL_MIN = 64
# labelled arrays shorter than this are looked up, never taken by the row
# path, whose keys, grouping and checks cost 0.12-0.15 ms whatever the size.
# On the heaps of C_n and D_n, on a 2-core Xeon, label lookup was faster up
# to 10,648 entries, the two were level at 13,824, and rows won from 17,576.
_ROWS_MIN = 12_000

_compact = json.JSONEncoder().encode
_SCALARS = frozenset((int, float, str, bool, type(None)))


def _json_default(value):
    """Numpy values as the Python values they hold, and fractions as text;
    the encoders' fallback."""
    fractions = sys.modules.get("fractions")    # loaded with `linear` only
    if fractions and isinstance(value, fractions.Fraction):
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
    """Whether value is a 1-d integer array longer than _LABEL_MIN with
    entries in 0..len(value)-1, which `_iter_json` writes from one label
    per value."""
    return (value.ndim == 1 and value.dtype.kind in "iu"
            and value.size > _LABEL_MIN
            and value.min() >= 0 and value.max() < value.size)


def _row_weights(width: int) -> np.ndarray:
    """Fixed int64 weights for row keys: splitmix64 of 1..width, computed
    in wrapping integer arithmetic, so numpy.random is never imported."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).view(np.int64)


def _repeated_rows(rows):
    """(first, inverse) of the rows grouped by their keys: the first row of
    each key, and each row's key as an index into first; None when more
    than half of the rows have distinct keys."""
    keys = rows.astype(np.int64, copy=False) @ _row_weights(rows.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return (first, inverse) if 2 * len(first) <= len(rows) else None


def _entry_texts(value, labels):
    """The text "," + pad + label of each entry of a labelled array, in
    pieces of at most JSON_CHUNK entries, or of one row when a row is
    longer: by label lookup, or by the row path that `_iter_json`
    describes.  The entries after the last whole row are looked up."""
    def looked_up(entries):
        for start in range(0, len(entries), JSON_CHUNK):
            yield "".join(labels[entries[start:start + JSON_CHUNK]].tolist())

    width = len(labels)
    count = len(value) // width
    rows = value[:count * width].reshape(count, width)
    grouped = (_repeated_rows(rows)
               if count >= 2 * width and len(value) >= _ROWS_MIN else None)
    if grouped is None:
        yield from looked_up(value)
        return
    first, inverse = grouped
    texts = np.array(["".join(labels[rows[i]].tolist()) for i in first.tolist()],
                     dtype=object)
    representative = first[inverse]
    step = max(1, JSON_CHUNK // width)
    for start in range(0, count, step):
        block = rows[start:start + step]
        if np.array_equal(block, rows[representative[start:start + step]]):
            yield "".join(texts[inverse[start:start + step]].tolist())
        else:
            yield from looked_up(block.ravel())
    yield from looked_up(value[count * width:])


def _iter_json(value, depth: int = 0):
    """The text of json.dumps(value, indent=2), in pieces of bounded size.

    Lists are taken JSON_CHUNK items at a time; a chunk of plain scalars is
    encoded in one call of the C encoder, anything else item by item.
    Arrays are written in one of three ways:

    - a 1-d integer array longer than _LABEL_MIN with entries in 0..len-1,
      such as a table's entries, is labelled: each entry's text is looked
      up, JSON_CHUNK entries at a time, in a list of one label per value
      0..max, which holds at most len(array) labels;
    - a labelled array of at least _ROWS_MIN entries that, cut into rows of
      one entry per label, has at least twice as many rows as labels, of
      which at most half are distinct, takes the row path of
      `_entry_texts`: rows are keyed by a
      fixed 64-bit weighted sum and grouped by their keys, each distinct
      row's text is built once, and rows are joined a JSON_CHUNK of
      entries at a time.  Rows that repeat are the property it rests on,
      as in a heap's table, each of whose rows depends only on x y^-1.
      The fallback is exact: a piece in which any row differs from its
      key's representative is written by label lookup, so a collision of
      keys costs time and never changes bytes.  A binary table, N rows of
      N entries, never takes it;
    - any other array, short ones included, is written as its list.
    """
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, np.ndarray):
        if not _labelled(value):
            yield from _iter_json(value.tolist(), depth)
            return
        labels = np.array(["," + pad + str(i) for i in range(int(value.max()) + 1)],
                          dtype=object)
        pieces = _entry_texts(value, labels)
        yield "[" + next(pieces)[1:]
        yield from pieces
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
                n = sum(len(v) if isinstance(v, (tuple, list, np.ndarray)) else 1
                        for v in (c.witness, c.lhs, c.rhs))
                # listing and writing a braid relation's 3 x 10^6 entries
                # on 10^6 strands took 0.40 us an entry as JSON and 0.36 us
                # as text: 10 steps an entry
                limits.charge_steps(10 * n, f"a counterexample of {n} entries in the report")
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
        # the compact JSON text, encoded only as far as the cut
        text = ""
        for piece in json.JSONEncoder(default=_json_default).iterencode(content):
            text += piece
            if len(text) > 400:
                return text[:400] + "..."
        return text
    return str(content)


# ---------------------------------------------------------------------------
# input parsing helpers


# An array written in fewer characters than this goes to json.  The int64
# path costs about 25 us however short the array and 0.006 us a character,
# json and np.asarray 0.025 (flat) to 0.05 (rows) us a character, so they
# cross between 0.55 (rows) and 1.2 KB (flat).
_ARRAY_MIN = 1024
_scan_value = json.JSONDecoder().scan_once
_blanks = json.decoder.WHITESPACE.match
_ROWS_END = re.compile(r"\][ \t\n\r]*\]")
_COMMA, _MINUS, _ZERO, _OPEN, _CLOSE = b",-0[]"


def _int64_array(text: str, start: int):
    """(values, end) for the JSON array of integers that opens at
    text[start], as a 1-d int64 array or, for rows of equal length, a 2-d
    one; end is the index after its closing bracket.

    None when the array is shorter than _ARRAY_MIN characters, or its text
    is anything but a valid flat or rectangular array of integers v with
    |v| < 10^18.  np.fromstring reads the text between the brackets, the
    rows' brackets taken out, in one pass.  It refuses "1,,2", "1 2", "1-2"
    and "--1" with a ValueError; numpy < 2 warns instead and reads a
    prefix, and that warning refuses the array too.  Each quirk it lets
    through is refused by a test after it:
    - a trailing comma, which it passes over: the count of values must be
      the count of commas plus one;
    - "+1", "\\v" and "\\f", read as 1 and as blanks: none of those bytes
      may occur;
    - an overflow, read, of either sign, as the int64 maximum: |v| < 10^18,
      so each value read is exact;
    - a field of blanks, read as 0: there must be one run of digits a
      value;
    - "01" and "00", read as 1 and 0: no run of digits may open with "0"
      and go on;
    - a lone "-", read as 0, and "- 1", read as -1: each "-" must have a
      digit after it.
    """
    first = _blanks(text, start + 1).end()
    rows = text.startswith("[", first)
    if rows:
        close = _ROWS_END.search(text, first)
        end = close.end() if close else 0
    else:
        end = text.find("]", first) + 1
    if end == 0 or end - start < _ARRAY_MIN:
        return None
    # a character beyond ASCII becomes "?", which no integer array holds
    raw = text[start + 1:end - 1].encode("ascii", "replace")
    if rows:
        # [..],[..],..,[..]: tight opens with "[" and closes with "]", and
        # every other bracket is in a "],[", so no row holds a bracket
        t = np.frombuffer(raw.translate(None, b" \t\n\r"), np.uint8)
        opens, closes = t == _OPEN, t == _CLOSE
        count = np.count_nonzero(opens)
        if (np.count_nonzero(closes) != count
                or np.count_nonzero(closes[:-2] & (t[1:-1] == _COMMA) & opens[2:])
                != count - 1):
            return None
        # so taking the brackets out joins no two values
        raw = raw.translate(None, b"[]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(raw, dtype=np.int64, sep=",")
        except (ValueError, Warning):
            return None
    g = np.frombuffer(b",%b," % raw, np.uint8)
    if (len(values) != np.count_nonzero(g == _COMMA) - 1
            or b"+" in raw or b"\v" in raw or b"\f" in raw
            or values.max() >= 10 ** 18 or values.min() <= -10 ** 18):
        return None
    # the parse leaves only digits, signs, commas and blanks, and of those
    # only the digits are "0" or above
    digit = g >= _ZERO
    opens = digit[1:] > digit[:-1]      # a run of digits opens at g[i + 1]
    if (np.count_nonzero(opens) != len(values)
            or (opens[:-1] & (g[1:-1] == _ZERO) & digit[2:]).any()
            or (b"-" in raw
                and not digit[np.flatnonzero(g == _MINUS) + 1].all())):
        return None
    if not rows:
        return values, end
    if len(values) % count:
        return None
    width = len(values) // count
    if width > 1:
        # before the close of row i come (i + 1) * width - 1 commas
        before = np.searchsorted(np.flatnonzero(t == _COMMA), np.flatnonzero(closes))
        if (before != width * np.arange(1, count + 1) - 1).any():
            return None
    return values.reshape(count, width), end


def _decode_members(text: str, arrays) -> dict:
    """The top-level object of text, its members named in `arrays` taken
    by `_int64_array` where it can.  Raises ValueError, IndexError,
    StopIteration or json's RecursionError on anything else."""
    pos = _blanks(text, 0).end()
    if text[pos] != "{":
        raise ValueError("not an object")
    pos = _blanks(text, pos + 1).end()
    obj = {}
    while text[pos] != "}":
        if text[pos] != '"':
            raise ValueError("expected a member name")
        key, pos = json.decoder.scanstring(text, pos + 1)
        pos = _blanks(text, pos).end()
        if text[pos] != ":":
            raise ValueError("expected ':'")
        pos = _blanks(text, pos + 1).end()
        found = (_int64_array(text, pos)
                 if key in arrays and text[pos] == "[" else None)
        obj[key], pos = found or _scan_value(text, pos)
        pos = _blanks(text, pos).end()
        if text[pos] == ",":
            pos = _blanks(text, pos + 1).end()
            if text[pos] != '"':
                raise ValueError("expected a member name")
        elif text[pos] != "}":
            raise ValueError("expected ',' or '}'")
    if _blanks(text, pos + 1).end() != len(text):
        raise ValueError("extra data")
    return obj


def _decode(text: str, arrays=()):
    """json.loads(text), except that the members of a top-level object
    named in `arrays` that are integer arrays of at least _ARRAY_MIN
    characters come as int64 arrays.  Text the walk of `_decode_members`
    doubts, malformed text included, goes to json.loads whole, so every
    other value and every error is json's."""
    if not arrays or len(text) < _ARRAY_MIN:
        return json.loads(text)
    try:
        return _decode_members(text, arrays)
    except (ValueError, IndexError, StopIteration, RecursionError):
        return json.loads(text)


def _load_json(path: str, arrays=()):
    """The JSON document at path, decoded by `_decode`.

    Text that is not UTF-8, an integer literal past Python's digit limit
    and nesting past the recursion limit are refused like malformed JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _decode(fh.read(), arrays)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_op(path: str) -> OpTable:
    return OpTable.from_json(_load_json(path, ("table",)))


def _load_cochain(path: str):
    from .cocycles import Cochain
    return Cochain.from_json(_load_json(path, ("values",)))


def _load_group(spec: str) -> FiniteGroup:
    kind, _, arg = spec.partition(":")
    if kind in ("cyclic", "dihedral", "symmetric"):
        try:
            n = int(arg)
        except ValueError:
            raise InputError(f"group spec {spec!r} needs an integer parameter")
        return {"cyclic": cyclic_group, "dihedral": dihedral_group,
                "symmetric": symmetric_group}[kind](n)
    return FiniteGroup.from_json(_load_json(spec, ("cayley",)))


def _load_ses(spec: str):
    from .cocycles import SES, cyclic_ses, split_ses
    kind, _, arg = spec.partition(":")
    if kind in ("cyclic", "split"):
        parts = _ints(arg)
        if len(parts) != 2:
            raise InputError(f"sequence spec {spec!r} needs sub,quotient orders")
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


def _cmd_check(args, report):
    if args.what == "axioms":
        op = _load_op(args.op)
        props = args.props.split(",") if args.props else ["sd", "rack", "quandle"]
        axioms = Axioms(op)
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
                       are_mutually_distributive(op0, op1))
    elif args.what == "compat":
        t0, t1 = _load_op(args.op), _load_op(args.op1)
        report.verdict("compatible ternary pair",
                       are_compatible_ternary(t0, t1))
    elif args.what == "cocycle":
        _cocycle_verdict(args, report)


def _cocycle_verdict(args, report):
    """The 2-cocycle condition of --cochain over --op, for `check cocycle`
    and `cocycle check`."""
    from .cocycles import is_binary_2cocycle, is_ternary_2cocycle
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


def _cmd_construct(args, report):
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
        from .cocycles import extend
        out = extend(_load_op(need("op", args.op)),
                     _load_cochain(need("cochain", args.cochain)),
                     verify=verify)
    elif name == "extend-pair":
        from .cocycles import extend_mutual_pair
        a, b = extend_mutual_pair(_load_op(need("op0", args.op0)),
                                  _load_op(need("op1", args.op1)),
                                  _load_cochain(need("cochain0", args.cochain0)),
                                  _load_cochain(need("cochain1", args.cochain1)),
                                  verify=verify)
        report.artifact("op0", a.json_fields())
        report.artifact("op1", b.json_fields())
        return
    elif name == "twist":
        from .braid import BraidWord, twist_op
        hat = _load_op(need("op", args.op))
        star = _load_op(need("star", args.star))
        word = BraidWord(hat.arity - 1, _ints(need("word", args.word)))
        out = twist_op(hat, star, word, verify=verify)
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


def _cmd_homology(args, report):
    res = homology(_homology_target(args), args.degree, _coeff(args.coeff))
    report.artifact(f"H_{args.degree}", {
        "degree": args.degree, "coefficients": args.coeff,
        "betti": res.betti, "torsion": list(res.torsion),
        "group": _group_string(res.betti, res.torsion)})


def _cmd_cohomology(args, report):
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


def _cmd_cocycle(args, report):
    from .cocycles import cocycles_cohomologous, extend, three_cocycle_from_ses
    if args.what == "check":
        _cocycle_verdict(args, report)
    elif args.what == "solve":
        _cmd_cohomology(args, report)
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


def _cmd_chainmap(args, report):
    op0, op1 = (_load_op(p) for p in args.pair)
    report.verdict("chain map squares commute", verify_chain_map(op0, op1))


# ---------------------------------------------------------------------------
# braid


def _cmd_braid(args, report):
    from .braid import BraidWord, braid_act, twist_op, verify_braid_relations
    if args.what == "act":
        op = _load_op(args.op)
        xs = _ints(args.input)
        word = BraidWord(len(xs), _ints(args.word))
        out = braid_act(op, word, xs)
        report.artifact("action", {"input": list(xs), "word": list(word.word),
                                   "output": list(out)})
    elif args.what == "relations":
        op = _load_op(args.op)
        report.verdict(f"braid relations on X^{args.strands}",
                       verify_braid_relations(op, args.strands))
    elif args.what == "twist":
        hat = _load_op(args.op)
        star = _load_op(args.star)
        word = BraidWord(hat.arity - 1, _ints(args.word))
        out = twist_op(hat, star, word, verify=not args.no_verify)
        report.artifact("table", out.json_fields())


# ---------------------------------------------------------------------------
# linear


def _default_pairing(H):
    from .linear import LinMap
    ident = LinMap.identity(H.unit.field, H.dim)
    return H.mult @ H.antipode.tensor(ident)


def _cmd_linear(args, report):
    from .linear import (Field, LieAlgebraObject, LinMap, SDObject,
                         augmented_operation, check_augmented_hopf,
                         check_nary_sd, group_algebra_hopf,
                         hopf_adjoint_ternary, hopf_heap, lie_to_binary_sd)
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


def _cmd_enumerate(args, report):
    from . import enumeration
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
    the commands it parses.  Each parse fills a fresh namespace, so no call
    sees another's arguments.

    --jobs N is accepted before or after the command and has no effect:
    every scan runs on one thread.  A value below 1 is still refused, with
    exit status 2."""
    jobs_help = "accepted and ignored: scans run on one thread; must be at least 1"
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help=jobs_help)
    common.add_argument("-o", "--output", default=argparse.SUPPRESS)

    top = argparse.ArgumentParser(
        prog="selfdist",
        description="Self-distributive operations: check, construct, compute.")
    top.add_argument("--format", choices=("human", "json"), default="human")
    top.add_argument("--jobs", type=int, default=1, help=jobs_help)
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
    args = _build_parser().parse_args(argv)
    report = Report(argv)
    start = time.perf_counter()
    try:
        if args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        HANDLERS[args.command](args, report)
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
