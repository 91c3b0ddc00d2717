"""Finite n-ary operation tables and the axiom checks on them.

An operation W of arity k on the carrier {0..N-1} is stored as a flat table of
length N^k.  The argument tuple (a_1, ..., a_k) lives at index
sum_i a_i * N^(k-i), so the first argument is the most significant digit.
That convention is fixed across the whole package: product carriers encode the
pair (a, b) as a*|second factor|+b, and matrix row orderings inherit it.
"""
from __future__ import annotations

import collections.abc
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import kernels, limits
from .limits import InputError


@dataclass(frozen=True)
class Counterexample:
    """A witness tuple at which a checked identity fails, with both side values."""
    witness: tuple
    lhs: int
    rhs: int


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus an optional counterexample and failure detail.

    Truthy exactly when the checked property holds, so results can be used
    directly in conditions while still carrying the witness.
    """
    holds: bool
    counterexample: Counterexample | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


OK = CheckResult(True)


def _holds_bool(values) -> bool:
    """True when a (nested) list or tuple has a bool anywhere in it.

    The nesting is walked one level at a time, so a table of many short
    rows costs a few calls per level, not one call per row.
    """
    level = values if isinstance(values, (list, tuple)) else ()
    while level:
        types = set(map(type, level))
        if bool in types:
            return True
        if types.isdisjoint((list, tuple)):
            return False
        if not types <= {list, tuple}:
            level = [v for v in level if isinstance(v, (list, tuple))]
        level = list(itertools.chain.from_iterable(level))
    return False


def integer_array(values, what: str) -> np.ndarray:
    """values as an int64 array; floats, bools and integers beyond int64 refused.

    np.asarray gives floats and bools their own dtypes and integers beyond
    int64 the object or uint64 dtype, so the dtype decides without a cast
    that would truncate or wrap them.  A list that mixes bools with
    integers gets an integer dtype, so lists are searched for bools first.
    """
    if _holds_bool(values):
        raise InputError(f"{what} must be integers, got booleans")
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InputError(f"{what} must be integers in a regular array: {exc}")
    if raw.size and (raw.dtype.kind not in "iu" or raw.dtype.kind == "u"
                     and raw.max() > np.iinfo(np.int64).max):
        raise InputError(
            f"{what} must be integers within int64, got {raw.dtype} values")
    return raw.astype(np.int64, copy=False)


class OpTable:
    """Immutable n-ary operation table on {0..N-1}."""

    __slots__ = ("size", "arity", "table", "meta")

    def __init__(self, size: int, arity: int, table, meta: dict | None = None):
        if size < 1:
            raise InputError(f"size must be positive, got {size}")
        if arity < 2:
            raise InputError(f"arity must be at least 2, got {arity}")
        arr = np.ascontiguousarray(integer_array(table, "table entries")).ravel()
        # from arity 64 on only a one-point table can match, and the power
        # itself may be huge
        entries = size ** arity if arity < 64 else limits.power(size, arity)
        if arr.shape[0] != entries:
            raise InputError(
                f"table length {arr.shape[0]} != size^arity = {size}^{arity}"
                + (f" = {entries}" if arity < 64 else ""))
        if arr.size and (arr.min() < 0 or arr.max() >= size):
            bad = int(np.flatnonzero((arr < 0) | (arr >= size))[0])
            raise InputError(
                f"table entry {int(arr[bad])} at index {bad} outside 0..{size - 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "size", int(size))
        object.__setattr__(self, "arity", int(arity))
        object.__setattr__(self, "table", arr)
        object.__setattr__(self, "meta", dict(meta or {}))

    @classmethod
    def _trusted(cls, size: int, arity: int, table: np.ndarray, meta: dict):
        """A table over a read-only int64 row already validated for this
        shape, such as a row of a `TableStack`, kept as it is."""
        return _fill(object.__new__(cls), size=size, arity=arity, table=table,
                     meta=meta)

    def __setattr__(self, name, value):
        raise AttributeError("OpTable is immutable")

    def __eq__(self, other):
        return (isinstance(other, OpTable) and self.size == other.size
                and self.arity == other.arity
                and bool(np.array_equal(self.table, other.table)))

    def __hash__(self):
        return hash((self.size, self.arity, self.table.tobytes()))

    def __repr__(self):
        return f"OpTable(size={self.size}, arity={self.arity})"

    def json_fields(self) -> dict:
        """The fields of `as_json` with the entries as the int64 table
        itself, for a writer that prints arrays without a list."""
        out = {"size": self.size, "arity": self.arity, "table": self.table}
        if self.meta:
            out["provenance"] = dict(self.meta)
        return out

    def as_json(self) -> dict:
        """size, arity, the entries as a list and any provenance."""
        out = self.json_fields()
        out["table"] = self.table.tolist()
        return out

    @staticmethod
    def from_json(obj: dict) -> "OpTable":
        try:
            size = obj["size"]
            arity = obj["arity"]
            table = obj["table"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"operation table JSON needs size/arity/table: {exc}")
        check_shape(size, arity)
        meta = obj.get("provenance")
        if meta is not None and not isinstance(meta, dict):
            raise InputError("provenance must be a JSON object or null, got "
                             f"{type(meta).__name__}")
        return OpTable(size, arity, table, meta=meta)


class TableStack(collections.abc.Sequence):
    """Read-only stack of tables of one shape, one flat table per row.

    `tables` is a (count, size^arity) int64 array that cannot be written.
    Its shape and entries are checked once, when the stack is built.  An
    int index gives an OpTable over a view of that row, with its own copy
    of `meta`, which is not checked again; a slice gives a stack.
    """

    __slots__ = ("size", "arity", "tables", "meta")

    def __init__(self, size: int, arity: int, tables, meta: dict | None = None):
        check_shape(size, arity)
        arr = np.ascontiguousarray(integer_array(tables, "table entries"))
        entries = limits.power(size, arity)
        if arr.ndim != 2 or arr.shape[1] != entries:
            raise InputError(
                f"a stack of size {size} arity {arity} tables needs one row of"
                f" {entries} entries per table, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= size):
            raise InputError(f"table entry outside 0..{size - 1}")
        arr.setflags(write=False)
        _fill(self, size=int(size), arity=int(arity), tables=arr,
              meta=dict(meta or {}))

    def __setattr__(self, name, value):
        raise AttributeError("TableStack is immutable")

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _fill(object.__new__(TableStack), size=self.size,
                         arity=self.arity, tables=self.tables[index],
                         meta=dict(self.meta))
        return OpTable._trusted(self.size, self.arity,
                                self.tables[operator.index(index)], dict(self.meta))

    def __iter__(self):
        for row in self.tables:
            yield OpTable._trusted(self.size, self.arity, row, dict(self.meta))

    def __repr__(self):
        return (f"TableStack(size={self.size}, arity={self.arity},"
                f" count={len(self)})")


def _fill(obj, **slots):
    """Set the slots of an immutable OpTable or TableStack; returns obj."""
    for name, value in slots.items():
        object.__setattr__(obj, name, value)
    return obj


def check_shape(size, arity) -> None:
    """Refuse a carrier size below 1, an arity below 2, or either not an int."""
    for name, value in (("size", size), ("arity", arity)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if size < 1:
        raise InputError(f"size must be positive, got {size}")
    if arity < 2:
        raise InputError(f"arity must be at least 2, got {arity}")


def table_bytes(size: int, arity: int) -> int:
    """Bytes of an int64 table with size^arity entries, saturated."""
    return 8 * limits.power(size, arity)


def tuple_to_index(args, size: int) -> int:
    idx = 0
    for a in args:
        idx = idx * size + int(a)
    return idx


def index_to_tuple(index: int, size: int, arity: int) -> tuple:
    """The argument tuple at a flat index, as Python ints."""
    return tuple(kernels.digits(int(index), size, arity))


def _checked_index(args, size: int, arity: int) -> int:
    """Flat index of an argument tuple, refusing a wrong argument count or
    an argument outside 0..size-1."""
    args = tuple(int(a) for a in args)
    if len(args) != arity:
        raise InputError(f"expected {arity} arguments, got {len(args)}")
    for a in args:
        if not 0 <= a < size:
            raise InputError(f"argument {a} outside 0..{size - 1}")
    return tuple_to_index(args, size)


def diagonal_indices(size: int, arity: int) -> np.ndarray:
    """Flat indices of the constant tuples (x, ..., x), x = 0..size-1."""
    step = (size ** arity - 1) // (size - 1) if size > 1 else 0
    return np.arange(size, dtype=np.int64) * step


def evaluate(op: OpTable, args) -> int:
    """Table lookup at an argument tuple."""
    return int(op.table[_checked_index(args, op.size, op.arity)])


def _first_failure(scan, law, args, detail: str) -> CheckResult:
    """OK when `scan(*args)` finds no failing tuple; else the first one,
    decoded from `law(*args)`, the law the scan ran on, with `detail`.

    Callers pass the kernels looked up at call time (`kernels.exchange_scan`),
    so a wrapper installed on the kernels module sees every scan.
    """
    flat = scan(*args)
    if flat < 0:
        return OK
    return CheckResult(False, Counterexample(*kernels.witness(law(*args), flat)),
                       detail)


def exchange_holds(op_m: OpTable, op_n: OpTable) -> CheckResult:
    """One direction of the exchange law: op_n distributes over op_m.

    Checks op_n(op_m(x, y), z) == op_m(op_n(x, z), op_n(y_1, z), ...) for all
    x in X, y in X^(m-1), z in X^(n-1).
    """
    if op_m.size != op_n.size:
        raise InputError(f"size mismatch: {op_m.size} vs {op_n.size}")
    return _first_failure(kernels.exchange_scan, kernels.exchange_law,
                         (op_m.table, op_n.table, op_m.size, op_m.arity,
                          op_n.arity), "exchange law fails")


def is_nary_distributive(op: OpTable) -> CheckResult:
    """Right self-distributivity over all N^(2k-1) argument tuples.

    On failure the counterexample is the lexicographically first failing tuple
    (x, y_1..y_{k-1}, z_1..z_{k-1}).
    """
    res = exchange_holds(op, op)
    if res:
        return res
    return CheckResult(False, res.counterexample, "self-distributivity fails")


class Axioms:
    """The rack axioms of one table, each checked at most once.

    A quandle is a rack, and a rack is self-distributive, so each verdict
    past the first is read only when the one before it holds: one
    self-distributivity scan, one translation scan and one diagonal read,
    however many verdicts are asked for.
    """

    def __init__(self, op: OpTable):
        self.op = op

    @functools.cached_property
    def sd(self) -> CheckResult:
        return is_nary_distributive(self.op)

    @functools.cached_property
    def rack(self) -> CheckResult:
        if not self.sd:
            return self.sd
        op = self.op
        t = kernels.translation_scan(op.table, op.size, op.arity)
        if t < 0:
            return OK
        tail = index_to_tuple(t, op.size, op.arity - 1)
        return CheckResult(False, None,
                           f"translation by tail {tail} is not a bijection")

    @functools.cached_property
    def quandle(self) -> CheckResult:
        if not self.rack:
            return self.rack
        op, N = self.op, self.op.size
        diag = op.table[diagonal_indices(N, op.arity)]
        bad = np.flatnonzero(diag != np.arange(N))
        if bad.size == 0:
            return OK
        x = int(bad[0])
        cex = Counterexample((x,) * op.arity, int(diag[x]), x)
        return CheckResult(False, cex, "diagonal is not fixed")


def is_rack(op: OpTable) -> CheckResult:
    """Self-distributive with every translation x -> W(x, tail) a bijection."""
    return Axioms(op).rack


def is_quandle(op: OpTable) -> CheckResult:
    """Rack whose full diagonal is fixed: W(x, x, ..., x) == x for all x."""
    return Axioms(op).quandle


def are_mutually_distributive(op_a: OpTable, op_b: OpTable) -> CheckResult:
    """Both directions of the exchange law between two operations.

    Only the two exchange identities are checked; each operation's own
    self-distributivity is a separate question.  On two equal tables both
    directions are that table's self-distributivity, scanned once.
    """
    if op_a.size != op_b.size:
        raise InputError(f"size mismatch: {op_a.size} vs {op_b.size}")
    first = exchange_holds(op_a, op_b)
    if not first:
        return CheckResult(False, first.counterexample,
                           "second operation fails to distribute over the first")
    if op_a == op_b:
        return OK
    second = exchange_holds(op_b, op_a)
    if not second:
        return CheckResult(False, second.counterexample,
                           "first operation fails to distribute over the second")
    return OK


def are_compatible_ternary(T0: OpTable, T1: OpTable) -> CheckResult:
    """Both ternary compatibility identities over all N^5 tuples.

    Identity 1 distributes T0-translations over T0, feeding the third slot
    through T1; identity 2 does the same with the roles of T0 and T1 swapped.
    On two equal tables both identities are that table's
    self-distributivity, scanned once.
    """
    if T0.arity != 3 or T1.arity != 3:
        raise InputError("compatibility is defined for ternary operations only")
    if T0.size != T1.size:
        raise InputError(f"size mismatch: {T0.size} vs {T1.size}")
    for which in (1,) if T0 == T1 else (1, 2):
        res = _first_failure(kernels.compat_scan, kernels.compat_law,
                            (T0.table, T1.table, T0.size, which),
                            f"compatibility identity {which} fails")
        if not res:
            return res
    return OK


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table, validated on build.

    cayley is flat: the product of a and b sits at index a*size+b.  The product
    convention for permutation groups is "a then b" (left-to-right).
    """
    size: int
    cayley: np.ndarray = field(compare=False)
    inverse: np.ndarray = field(compare=False)
    identity: int

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a * self.size + b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def as_json(self) -> dict:
        return {"size": self.size, "cayley": self.cayley.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "FiniteGroup":
        try:
            return group_from_cayley(obj["cayley"], size=obj.get("size"))
        except (KeyError, TypeError) as exc:
            raise InputError(f"group JSON needs size/cayley: {exc}")


def _generating_set(C: np.ndarray, ident: int) -> list:
    """Greedy generators: with the identity they generate the whole table.

    Each generator is the first element outside the submagma generated so
    far.  In a group that submagma is a subgroup, which each generator at
    least doubles, so there are at most log2(size) of them.
    """
    reached = np.zeros(len(C), bool)
    reached[ident] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.array(gens[-1:])
        while frontier.size:
            # products of the new elements with everything reached, both ways
            reached[frontier] = True
            have = np.flatnonzero(reached)
            products = np.concatenate((C[np.ix_(frontier, have)].ravel(),
                                       C[np.ix_(have, frontier)].ravel()))
            # the new products, sorted and distinct; np.unique would load numpy.ma
            frontier = np.flatnonzero(np.bincount(products[~reached[products]]))
    return gens


def group_from_cayley(cayley, size: int | None = None) -> FiniteGroup:
    """Validate a flat multiplication table and derive identity and inverses."""
    flat = np.ascontiguousarray(integer_array(cayley, "cayley entries")).ravel()
    if size is None:
        size = round(len(flat) ** 0.5)
    size = int(size)
    if flat.shape[0] != size * size:
        raise InputError(f"cayley length {flat.shape[0]} != {size}^2")
    if flat.size and (flat.min() < 0 or flat.max() >= size):
        raise InputError("cayley entry outside the carrier")
    C = flat.reshape(size, size)
    # the two-sided identity: row e and column e both read 0..size-1
    points = np.arange(size)
    both = (C == points).all(axis=1) & (C == points[:, None]).all(axis=0)
    if not both.any():
        raise InputError("no two-sided identity element")
    ident = int(np.argmax(both))
    # associativity by Light's test: the elements a with (x·a)·y = x·(a·y)
    # for all x, y form a submagma that holds the identity, so checking a
    # generating set suffices, in O(size^2) memory per generator
    for a in _generating_set(C, ident):
        left = C[C[:, a]]                     # left[x, y] = (x·a)·y
        right = C[:, C[a]]                    # right[x, y] = x·(a·y)
        bad = np.argwhere(left != right)
        if bad.size:
            x, y = (int(v) for v in bad[0])
            raise InputError(f"multiplication not associative at {(x, a, y)}")
    # a's inverse is the one b with a·b = e, which must also give b·a = e
    hits = C == ident
    inv = np.argmax(hits, axis=1)
    bad = np.flatnonzero((hits.sum(axis=1) != 1) | (C[inv, points] != ident))
    if bad.size:
        raise InputError(f"element {int(bad[0])} has no two-sided inverse")
    inv.setflags(write=False)
    flat.setflags(write=False)
    return FiniteGroup(size, flat, inv, ident)


def _charge_group(order: int, what: str) -> None:
    limits.charge_bytes(table_bytes(order, 2), f"the Cayley table of {what}")


def _require_order(n: int, least: int, what: str) -> None:
    if n < least:
        raise InputError(f"there is no {what}: the parameter must be at"
                         f" least {least}, got {n}")


def cyclic_group(n: int) -> FiniteGroup:
    _require_order(n, 1, f"cyclic group of order {n}")
    _charge_group(n, f"the cyclic group of order {n}")
    C = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return group_from_cayley(C.ravel(), size=n)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of {0..n-1} in lexicographic order, product "a then b".

    The product of a and b is t -> b[a[t]].  Each product is ranked by its
    base-n code, which lexicographic order makes increasing along the list.
    """
    _require_order(n, 0, f"symmetric group on {n} points")
    # 21! exceeds 2^64, so the clamp only keeps the estimate cheap
    _charge_group(math.factorial(min(n, 21)),
                  f"the symmetric group on {n} points")
    P = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    m, n = P.shape
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    code = np.zeros((m, m), np.int64)
    for t in range(n):
        # code[a, b] accumulates digit t of the product, b[a[t]]
        code = code * n + P[:, P[:, t]].T
    C = np.searchsorted(P @ weights, code)
    return group_from_cayley(C.ravel(), size=m)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon; element r^i s^j encoded as 2*i+j."""
    _require_order(n, 1, f"dihedral group of order {2 * n}")
    _charge_group(2 * n, f"the dihedral group of order {2 * n}")
    i1, j1, i2, j2 = np.ix_(np.arange(n), np.arange(2), np.arange(n), np.arange(2))
    # (r^i1 s^j1)(r^i2 s^j2) = r^(i1 + i2*(-1)^j1) s^(j1+j2)
    i = (i1 + np.where(j1 == 0, i2, -i2)) % n
    j = (j1 + j2) % 2
    return group_from_cayley((2 * i + j).ravel(), size=2 * n)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Product group on pairs (a0, a1) encoded as a0*|h|+a1."""
    _charge_group(g.size * h.size,
                  f"a product group of order {g.size * h.size}")
    Cg = g.cayley.reshape(g.size, 1, g.size, 1)
    Ch = h.cayley.reshape(1, h.size, 1, h.size)
    return group_from_cayley((Cg * h.size + Ch).ravel(), size=g.size * h.size)


def digit_map(maps, size: int, arity: int) -> np.ndarray:
    """Flat indices under digit-wise maps of the carrier, one row per map.

    Row r, column i holds the flat index of (maps[r][a_1], ..., maps[r][a_k]),
    where i is the flat index of (a_1, ..., a_k).
    """
    maps = np.asarray(maps, dtype=np.intp)
    out = np.zeros((len(maps), 1), dtype=np.intp)
    for _ in range(arity):
        # append one digit: each index so far, followed by every image
        out = (out[:, :, None] * size + maps[:, None, :]).reshape(len(maps), -1)
    return out


def relabel(op: OpTable, perm) -> OpTable:
    """Transport the table along a carrier permutation (old -> new labels).

    The new table sends (p a_1, ..., p a_k) to p W(a_1, ..., a_k), so its
    entry at a flat index is p applied to the old entry at p^-1 applied
    digit-wise to that index.
    """
    N, k = op.size, op.arity
    p = np.ascontiguousarray(perm, dtype=np.int64)
    if p.shape != (N,) or not np.array_equal(np.sort(p), np.arange(N)):
        raise InputError("relabeling must be a permutation of the carrier")
    src = digit_map(np.argsort(p)[None], N, k)[0]
    return OpTable(N, k, p[op.table[src]])


def inverse_translations(op: OpTable) -> np.ndarray:
    """Array inv of shape (N^(k-1), N) with W(inv[tail, v], tail) == v.

    Raises when some translation is not a bijection.
    """
    N, k = op.size, op.arity
    P = N ** (k - 1)
    t = kernels.translation_scan(op.table, N, k)
    if t >= 0:
        tail = index_to_tuple(t, N, k - 1)
        raise InputError(f"translation by tail {tail} is not invertible")
    inv = np.empty((P, N), np.int64)
    inv[np.arange(P), op.table.reshape(N, P)] = np.arange(N)[:, None]
    return inv
