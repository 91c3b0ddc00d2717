"""Exhaustive searches for self-distributive tables on tiny carriers.

A full scan visits every table of the requested shape, so it is only
feasible while size^(size^arity) stays small: binary carriers up to size 3
(3^9 tables) and ternary carriers up to size 2 (2^8 tables).  Larger
carriers need a structural filter.  Two are provided: affine tables over
Z_m, and tables whose first-argument translations are all permutations,
which is the shape every rack must have and cuts the ternary size-3 space
from 3^27 down to 6^9 candidates.

All enumerators return tables sorted lexicographically by flat table, so
output order is reproducible run to run and across worker counts.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .constructions import affine_op
from .optable import InputError, OpTable, digit_map, tuple_to_index

FULL_SCAN_LIMIT = 2 ** 25         # tables in a full scan
RACK_WORK_LIMIT = 2 ** 23         # table entries and checks in a translation scan
AFFINE_SCAN_LIMIT = 2 ** 16       # coefficient vectors in an affine scan
ISO_SIZE_LIMIT = 8                # carrier size for canonical forms
ISO_BLOCK_ENTRIES = 2 ** 16       # relabeled entries held at once

KINDS = ("all", "sd", "rack", "quandle")


def _check_kind(kind: str, allowed=KINDS):
    if kind not in allowed:
        raise InputError(f"unknown predicate {kind!r}, expected one of {allowed}")


def _full_tables(size: int, arity: int) -> np.ndarray:
    """All flat tables of the given shape, one per row, in lexicographic order."""
    entries = size ** arity
    count = size ** entries
    if count > FULL_SCAN_LIMIT:
        raise InputError(
            f"refusing full scan: {size}^{entries} = {count} tables exceeds "
            f"{FULL_SCAN_LIMIT}; use the affine or translation filters")
    codes = np.arange(count, dtype=np.int64)
    tables = np.empty((count, entries), dtype=np.int64)
    for pos in range(entries - 1, -1, -1):
        tables[:, pos] = codes % size
        codes //= size
    return tables


def _sd_mask(tables: np.ndarray, size: int, arity: int) -> np.ndarray:
    """Vectorized self-distributivity test over all rows at once."""
    m = tables.shape[0]
    rows = np.arange(m)
    mask = np.ones(m, dtype=bool)
    tail_block = size ** (arity - 1)
    tails = list(itertools.product(range(size), repeat=arity - 1))
    for x in range(size):
        for y in tails:
            head = tables[:, tuple_to_index((x,) + y, size)]
            for z in tails:
                zoff = tuple_to_index(z, size)
                lhs = tables[rows, head * tail_block + zoff]
                rhs_idx = np.zeros(m, dtype=np.int64)
                for a in (x,) + y:
                    rhs_idx = rhs_idx * size + tables[:, tuple_to_index((a,) + z, size)]
                mask &= lhs == tables[rows, rhs_idx]
    return mask


def _translation_mask(tables: np.ndarray, size: int, arity: int) -> np.ndarray:
    """Rows whose first-argument translations are all bijections."""
    m = tables.shape[0]
    mask = np.ones(m, dtype=bool)
    P = size ** (arity - 1)
    full = (1 << size) - 1
    for tail in range(P):
        seen = np.zeros(m, dtype=np.int64)
        for x in range(size):
            seen |= np.int64(1) << tables[:, x * P + tail]
        mask &= seen == full
    return mask


def _diagonal_mask(tables: np.ndarray, size: int, arity: int) -> np.ndarray:
    """Rows with W(x, x, ..., x) == x for every x."""
    mask = np.ones(tables.shape[0], dtype=bool)
    step = (size ** arity - 1) // (size - 1) if size > 1 else 0
    for x in range(size):
        mask &= tables[:, x * step] == x
    return mask


def _apply_kind(tables: np.ndarray, size: int, arity: int, kind: str) -> np.ndarray:
    if kind == "all":
        return tables
    mask = _sd_mask(tables, size, arity)
    if kind in ("rack", "quandle"):
        mask &= _translation_mask(tables, size, arity)
    if kind == "quandle":
        mask &= _diagonal_mask(tables, size, arity)
    return tables[mask]


def _wrap(tables: np.ndarray, size: int, arity: int, scan: str, kind: str):
    meta = {"construction": "enumeration", "scan": scan, "predicate": kind}
    return [OpTable(size, arity, row, meta=meta) for row in tables]


def enumerate_operations(size: int, arity: int, kind: str = "sd") -> list:
    """Every table of the given shape passing the predicate, lex order.

    kind is one of "all", "sd", "rack", "quandle".  Refuses shapes whose
    full scan would exceed FULL_SCAN_LIMIT tables.
    """
    _check_kind(kind)
    tables = _full_tables(size, arity)
    return _wrap(_apply_kind(tables, size, arity, kind), size, arity, "full", kind)


def enumerate_affine(modulus: int, arity: int, kind: str = "sd") -> list:
    """Affine tables sum(c_i a_i) with sum(c_i) = 1 mod m, filtered, lex order.

    Every coefficient choice yields a self-distributive table, so "all" and
    "sd" agree here; "rack" keeps the tables whose leading coefficient is a
    unit and "quandle" additionally asks for a fixed diagonal (automatic,
    since the coefficients sum to 1).
    """
    _check_kind(kind)
    heads = modulus ** (arity - 1)
    if heads > AFFINE_SCAN_LIMIT:
        raise InputError(
            f"refusing affine scan: {modulus}^{arity - 1} = {heads} "
            f"coefficient vectors exceeds {AFFINE_SCAN_LIMIT}")
    tables = np.stack([
        affine_op(modulus, arity, head).table
        for head in itertools.product(range(modulus), repeat=arity - 1)])
    out = _apply_kind(tables, modulus, arity, kind)
    return _wrap(out[np.lexsort(out.T[::-1])], modulus, arity, "affine", kind)


def enumerate_racks(size: int, arity: int, kind: str = "rack") -> list:
    """Backtracking scan over tables built from translation permutations.

    A table whose first-argument translations are bijections is a choice of
    one permutation per tail; self-distributivity becomes a conjugation
    condition between those permutations, checked incrementally while the
    choices are assigned, so the 6^9 ternary size-3 space prunes quickly.
    Refuses once the work exceeds RACK_WORK_LIMIT: the entries of the lookup
    tables, charged before they are built, plus the most consistency checks
    each search node can make.
    """
    _check_kind(kind, ("rack", "quandle"))
    work = 0

    def charge(count: int):
        nonlocal work
        work += count
        if work > RACK_WORK_LIMIT:
            raise InputError(
                f"refusing translation scan on size {size} arity {arity}: "
                f"more than {RACK_WORK_LIMIT} table entries and consistency "
                f"checks")

    # 13!^2 and 2^64 each exceed the budget on their own, so the clamps only
    # keep the charge itself cheap
    n_perms = math.factorial(min(size, 13))
    n_tails = size ** min(arity - 1, 64)
    charge(n_perms ** 2 + 2 * n_perms * n_tails + n_tails * (arity - 1))
    perms = list(itertools.permutations(range(size)))
    pindex = {p: i for i, p in enumerate(perms)}
    compose = [[pindex[tuple(a[b[v]] for v in range(size))] for b in perms]
               for a in perms]
    tails = list(itertools.product(range(size), repeat=arity - 1))
    tindex = {t: i for i, t in enumerate(tails)}
    nt = len(tails)
    # act[s][y]: tail y moved digit-wise by permutation s; back inverts it
    act = [[tindex[tuple(p[c] for c in t)] for t in tails] for p in perms]
    back = [[0] * nt for _ in perms]
    for s, row in enumerate(act):
        for y, t in enumerate(row):
            back[s][t] = y
    assign = [0] * nt
    found = []

    def holds(zi: int, yi: int, ti: int) -> bool:
        return compose[assign[zi]][assign[yi]] == compose[assign[ti]][assign[zi]]

    def consistent(level: int) -> bool:
        # check every conjugation condition that first becomes decidable now:
        # sigma_{sigma_z . y} o sigma_z == sigma_z o sigma_y, with z, y and
        # sigma_z . y assigned and one of the three at this level; that is at
        # most 3 * level + 1 checks
        s = assign[level]
        for yi in range(level + 1):
            ti = act[s][yi]
            if ti <= level and not holds(level, yi, ti):
                return False
        for zi in range(level):
            ti = act[assign[zi]][level]
            if ti <= level and not holds(zi, level, ti):
                return False
            yi = back[assign[zi]][level]
            if yi < level and not holds(zi, yi, level):
                return False
        return True

    # iterative backtracking: a search may run as deep as nt levels
    level = 0
    assign[0] = -1
    charge(len(perms))
    while level >= 0:
        assign[level] += 1
        if assign[level] == len(perms):
            level -= 1
        elif consistent(level):
            if level + 1 == nt:
                found.append(tuple(assign))
            else:
                level += 1
                assign[level] = -1
                charge(len(perms) * (3 * level + 1))
    tables = sorted(
        tuple(perms[a[ti]][x] for x in range(size) for ti in range(nt))
        for a in found)
    arr = np.asarray(tables, dtype=np.int64).reshape(len(tables), size ** arity)
    if kind == "quandle":
        arr = arr[_diagonal_mask(arr, size, arity)]
    return _wrap(arr, size, arity, "translations", kind)


def enumerate_mutual_pairs(size: int) -> list:
    """All ordered pairs of self-distributive binary tables satisfying both
    exchange laws, in lexicographic order on (first table, second table).

    Diagonal pairs (t, t) appear for every self-distributive t, since the
    exchange laws then restate self-distributivity.
    """
    ops = enumerate_operations(size, 2, "sd")
    S = np.stack([op.table for op in ops])
    m, n = S.shape[0], size
    mask = np.ones((m, m), dtype=bool)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                xy, xz, yz = x * n + y, x * n + z, y * n + z
                pos = S[:, xy] * n + z
                q = S[:, xz] * n + S[:, yz]
                # (x *0 y) *1 z == (x *1 z) *0 (y *1 z): rows are *0, cols *1
                mask &= S[:, pos].T == S[:, q]
                # and with the roles swapped
                mask &= S[:, pos] == S[:, q].T
    return [(ops[i], ops[j]) for i, j in np.argwhere(mask)]


@functools.lru_cache(maxsize=None)
def _permutations(size: int) -> np.ndarray:
    """All carrier permutations in itertools order (lexicographic), as uint8."""
    perms = np.array(list(itertools.permutations(range(size))), dtype=np.uint8)
    perms.setflags(write=False)
    return perms


def _relabelings(tables: np.ndarray, size: int, arity: int):
    """Yield (lo, t, block) covering every table under every permutation.

    tables holds flat tables as uint8 rows.  block[i, p] is row t + i
    relabeled along permutation lo + p, in itertools order.  A block holds
    about ISO_BLOCK_ENTRIES entries, so the N! relabelings of a large table
    never materialize at once.
    """
    perms = _permutations(size)
    entries = size ** arity
    step = max(1, ISO_BLOCK_ENTRIES // entries)
    for lo in range(0, len(perms), step):
        chunk = perms[lo:lo + step]
        src = digit_map(np.argsort(chunk, axis=1), size, arity)
        # entry v under permutation row p sits at p*size + v of the flat chunk
        offsets = np.arange(0, chunk.size, size)[:, None]
        rows = max(1, ISO_BLOCK_ENTRIES // src.size)
        for t in range(0, len(tables), rows):
            yield lo, t, chunk.ravel()[tables[t:t + rows, src] + offsets]


def _check_iso_shape(op_a: OpTable, op_b: OpTable):
    if op_a.size != op_b.size or op_a.arity != op_b.arity:
        raise InputError(
            f"shape mismatch: size {op_a.size} arity {op_a.arity} vs "
            f"size {op_b.size} arity {op_b.arity}")
    if op_a.size > ISO_SIZE_LIMIT:
        raise InputError(
            f"refusing isomorphism search over {op_a.size}! relabelings "
            f"(carrier size limit {ISO_SIZE_LIMIT})")


def find_isomorphism(op_a: OpTable, op_b: OpTable):
    """Lexicographically first relabeling carrying op_a to op_b, or None."""
    _check_iso_shape(op_a, op_b)
    target = op_b.table.astype(np.uint8)
    for lo, _, block in _relabelings(op_a.table.astype(np.uint8)[None],
                                     op_a.size, op_a.arity):
        hits = np.flatnonzero((block[0] == target).all(axis=1))
        if hits.size:
            return tuple(int(v) for v in _permutations(op_a.size)[lo + hits[0]])
    return None


def tables_isomorphic(op_a: OpTable, op_b: OpTable) -> bool:
    """Whether some carrier relabeling carries op_a to op_b."""
    return find_isomorphism(op_a, op_b) is not None


def isomorphism_classes(ops) -> list:
    """Partition a list of same-shape tables into isomorphism classes.

    Each table's key is its canonical form, the lexicographically least of
    its N! relabelings, and two tables are isomorphic exactly when their
    keys agree.  Returns a list of lists of indices into ops, each sorted,
    ordered by their smallest member.
    """
    ops = list(ops)
    if len(ops) < 2:
        return [[i] for i in range(len(ops))]
    for op in ops[1:]:
        _check_iso_shape(ops[0], op)
    size, arity = ops[0].size, ops[0].arity
    tables = np.stack([op.table for op in ops]).astype(np.uint8)
    # a row viewed as one opaque item sorts by its bytes, lexicographically
    row = f"V{size ** arity}"
    least = tables.view(row)[:, 0].copy()
    for _, t, block in _relabelings(tables, size, arity):
        # a gathered block need not be laid out row by row
        block = np.ascontiguousarray(block)
        cand = np.concatenate([least[t:t + len(block), None],
                               block.view(row)[..., 0]], axis=1)
        least[t:t + len(block)] = np.sort(cand, axis=1)[:, 0]
    classes = {}
    for i, key in enumerate(least):
        classes.setdefault(key.tobytes(), []).append(i)
    return list(classes.values())
