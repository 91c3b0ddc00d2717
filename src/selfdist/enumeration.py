"""Exhaustive searches for self-distributive tables on tiny carriers.

A full scan visits every table of the requested shape, so it is only
feasible while size^(size^arity) stays small: binary carriers up to size 3
(3^9 tables) and ternary carriers up to size 2 (2^8 tables).  Larger
carriers need a structural filter.  Two are provided: affine tables over
Z_m, and tables whose first-argument translations are all permutations,
which is the shape every rack must have and cuts the ternary size-3 space
from 3^27 down to 6^9 candidates.

No law is stated here.  Full scans and mutual pairs test their candidates
with the checks `is_rack` and `is_quandle` use: the translation scan and
the diagonal indices first, then self-distributivity or the exchange law
through the scan engine of `kernels`, over the whole stack of candidates
at once.  Affine scans test nothing, since the kinds follow from the form.

The table enumerators return one read-only `TableStack`: the surviving
tables as rows of a single int64 array, sorted lexicographically, so output
order is reproducible run to run.  Indexing the stack gives an `OpTable`,
built only when it is asked for.  Mutual pairs come as a list of OpTable
pairs, each table built once.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import kernels, limits
from .optable import (InputError, OpTable, TableStack, check_shape,
                      diagonal_indices, digit_map)

ISO_BLOCK_ENTRIES = 2 ** 16       # relabeled entries held at once
PAIR_BLOCK_ENTRIES = 2 ** 16      # stacked pair-table entries held at once

KINDS = ("all", "sd", "rack", "quandle")


def _check_kind(kind: str, allowed=KINDS):
    if kind not in allowed:
        raise InputError(f"unknown predicate {kind!r}, expected one of {allowed}")


def _charge_scan(count: int, size: int, arity: int, what: str):
    """Charge the bytes of `count` stacked tables and of N^(k-1) tail
    tuples, which refuses a one-point carrier of huge arity up front."""
    tails = limits.power(size, arity - 1) * (arity - 1)
    limits.charge_bytes(8 * (count * limits.power(size, arity) + tails), what)


def _tuples(size: int, length: int) -> np.ndarray:
    """All tuples of `length` digits in 0..size-1, one per row, in
    lexicographic order."""
    codes = np.arange(size ** length, dtype=np.int64)
    out = np.empty((len(codes), length), dtype=np.int64)
    for pos in range(length - 1, -1, -1):
        out[:, pos] = codes % size
        codes //= size
    return out


def _apply_kind(tables: np.ndarray, size: int, arity: int, kind: str) -> np.ndarray:
    """The rows passing the predicate: the translation and diagonal tests of
    `is_rack` and `is_quandle` first, then self-distributivity on the rest."""
    if kind == "all":
        return tables
    if kind in ("rack", "quandle"):
        tables = tables[kernels.translation_scan_stack(tables, size, arity) < 0]
    if kind == "quandle":
        diag = tables[:, diagonal_indices(size, arity)]
        tables = tables[(diag == np.arange(size)).all(axis=1)]
    law = kernels.exchange_law(tables, tables, size, arity, arity,
                               batch=len(tables))
    return tables[kernels.holds(law)]


def _stack(tables: np.ndarray, size: int, arity: int, scan: str,
           kind: str) -> TableStack:
    return TableStack(size, arity, tables, meta={
        "construction": "enumeration", "scan": scan, "predicate": kind})


def enumerate_operations(size: int, arity: int, kind: str = "sd") -> TableStack:
    """Every table of the given shape passing the predicate, as a stack in
    lex order.

    kind is one of "all", "sd", "rack", "quandle".  Refuses shapes whose
    full scan would not fit the budgets of `limits`.
    """
    _check_kind(kind)
    check_shape(size, arity)
    count = limits.power(size, limits.power(size, arity))
    what = f"a full scan of size {size} arity {arity}"
    _charge_scan(count, size, arity, what)
    if kind != "all":
        limits.charge_steps(count * limits.power(size, 2 * arity - 1),
                            f"the self-distributivity scan of {what}")
    tables = _tuples(size, size ** arity)
    return _stack(_apply_kind(tables, size, arity, kind), size, arity, "full", kind)


def enumerate_affine(modulus: int, arity: int, kind: str = "sd") -> TableStack:
    """Affine tables sum(c_i a_i) with sum(c_i) = 1 mod m, filtered, as a
    stack in lex order.

    The kinds follow from the form, so no table is scanned.  The first k-1
    coefficients c_0..c_{k-2} range over Z_m and the last, c_{k-1}, is 1
    minus their sum.  Writing T(x, y_1..y_{k-1}) = c_0 x + S(y) with
    S(y) = sum_{i>=1} c_i y_i, both sides of self-distributivity are

        T(T(x, y), z)                     = c_0 T(x, y) + S(z),
        T(T(x, z), T(y_1, z), .., T(y_{k-1}, z))
            = c_0 (c_0 x + S(z)) + sum_{i>=1} c_i (c_0 y_i + S(z))
            = c_0 T(x, y) + (c_0 + sum_{i>=1} c_i) S(z),

    and the coefficients sum to 1, so every table is self-distributive:
    "all" and "sd" agree.  The translations are x -> c_0 x + const, which
    are bijections exactly when c_0 is a unit mod m, and the diagonal is
    (sum c_i) x = x.  So "rack" and "quandle" both keep the tables with
    gcd(c_0, m) = 1.

    All tables come from one product: the coefficient rows times the
    carrier digits, mod m.  The entry at the unit tuple e_j is c_j, and
    every entry before it reads only c_{j+1}..c_{k-1}, so the tables sort
    as their coefficient rows read from the last coefficient back.
    """
    _check_kind(kind)
    check_shape(modulus, arity)
    what = f"an affine scan of modulus {modulus} arity {arity}"
    entries = limits.power(modulus, arity)
    heads = limits.power(modulus, arity - 1)
    # the carrier digits are built first, which refuses a huge arity alone;
    # then, besides them and their codes, the coefficient rows twice while
    # they are sorted, the sort order, and the tables
    limits.charge_bytes(8 * arity * entries, f"the carrier digits of {what}")
    limits.charge_bytes(8 * ((arity + 1) * entries + heads * (2 * arity + 1)
                             + heads * entries), what)
    digits = _tuples(modulus, arity)
    # the first k-1 coefficients run over every head in lex order: the
    # digit rows whose last digit is 0
    coeffs = digits[::modulus].copy()
    coeffs[:, -1] = (1 - coeffs[:, :-1].sum(axis=1)) % modulus
    if kind in ("rack", "quandle"):
        coeffs = coeffs[np.gcd(coeffs[:, 0], modulus) == 1]
    coeffs = coeffs[np.lexsort(coeffs.T)]
    tables = coeffs @ digits.T
    tables %= modulus
    return _stack(tables, modulus, arity, "affine", kind)


def enumerate_racks(size: int, arity: int, kind: str = "rack") -> TableStack:
    """Backtracking scan over tables built from translation permutations,
    returning the racks or quandles found as a stack in lex order.

    A table whose first-argument translations are bijections is a choice of
    one permutation per tail; self-distributivity becomes a conjugation
    condition between those permutations, checked incrementally while the
    choices are assigned, so the 6^9 ternary size-3 space prunes quickly.
    Refuses once the work exceeds `limits.STEPS`: the entries of the lookup
    tables plus the most consistency checks each search node can make.
    Both the tables and the first descent of the search are charged before
    anything is built: the first permutation is the identity and the
    projection table is a rack, so that descent reaches every level.
    """
    _check_kind(kind, ("rack", "quandle"))
    check_shape(size, arity)
    what = (f"a translation scan on size {size} arity {arity} (table entries"
            " and consistency checks)")
    # 21! exceeds 2^64, so the clamp only keeps the estimate cheap
    n_perms = math.factorial(min(size, 21))
    n_tails = limits.power(size, arity - 1)
    work = n_perms ** 2 + 2 * n_perms * n_tails + n_tails * (arity - 1)
    # n_perms * (3 * level + 1) checks at each level of the first descent
    limits.charge_steps(
        work + n_perms * (3 * n_tails * (n_tails - 1) // 2 + n_tails), what)

    def charge(count: int):
        nonlocal work
        work += count
        limits.charge_steps(work, what)

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
        diag = arr[:, diagonal_indices(size, arity)]
        arr = arr[(diag == np.arange(size)).all(axis=1)]
    return _stack(arr, size, arity, "translations", kind)


def _exchange_holds(S: np.ndarray, outer: np.ndarray, acting: np.ndarray,
                    size: int) -> np.ndarray:
    """Whether table S[acting[c]] distributes over table S[outer[c]], for
    each candidate pair c.  Scanned a band of pairs at a time, so the
    stacked pair tables stay near PAIR_BLOCK_ENTRIES entries."""
    ok = np.empty(len(outer), bool)
    band = max(1, PAIR_BLOCK_ENTRIES // S.shape[1])
    for lo in range(0, len(outer), band):
        a, b = outer[lo:lo + band], acting[lo:lo + band]
        law = kernels.exchange_law(S[a], S[b], size, 2, 2, batch=len(a))
        ok[lo:lo + band] = kernels.holds(law)
    return ok


def enumerate_mutual_pairs(size: int) -> list:
    """All ordered pairs of self-distributive binary tables satisfying both
    exchange laws, in lexicographic order on (first table, second table).

    Diagonal pairs (t, t) appear for every self-distributive t, since the
    exchange laws then restate self-distributivity.  Both laws together are
    symmetric in the pair, so one law is scanned on the pairs i <= j, and
    the other only where the first holds off the diagonal.
    """
    stack = enumerate_operations(size, 2, "sd")
    S = stack.tables
    i, j = np.triu_indices(len(S))
    keep = _exchange_holds(S, i, j, size)
    i, j = i[keep], j[keep]
    off = np.flatnonzero(i != j)
    keep = np.ones(len(i), bool)
    keep[off] = _exchange_holds(S, j[off], i[off], size)
    mutual = np.zeros((len(S), len(S)), bool)
    mutual[i[keep], j[keep]] = mutual[j[keep], i[keep]] = True
    ops = list(stack)
    return [(ops[a], ops[b]) for a, b in np.argwhere(mutual).tolist()]


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


def _check_iso_size(size: int):
    if size > limits.ISO_SIZE_LIMIT:
        raise InputError(
            f"refusing isomorphism search over {size}! relabelings "
            f"(carrier size limit {limits.ISO_SIZE_LIMIT})")


def _check_iso_shape(op_a: OpTable, op_b: OpTable):
    if op_a.size != op_b.size or op_a.arity != op_b.arity:
        raise InputError(
            f"shape mismatch: size {op_a.size} arity {op_a.arity} vs "
            f"size {op_b.size} arity {op_b.arity}")
    _check_iso_size(op_a.size)


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
    """Partition a stack, or a list of same-shape tables, into isomorphism
    classes.

    Each table's key is its canonical form, the lexicographically least of
    its N! relabelings, and two tables are isomorphic exactly when their
    keys agree.  Returns a list of lists of indices into ops, each sorted,
    ordered by their smallest member.
    """
    if isinstance(ops, TableStack):
        tables = ops.tables
    else:
        ops = list(ops)
        for op in ops[1:]:
            _check_iso_shape(ops[0], op)
        tables = [op.table for op in ops]
    if len(ops) < 2:
        return [[i] for i in range(len(ops))]
    size, arity = ops[0].size, ops[0].arity
    _check_iso_size(size)
    tables = np.asarray(tables).astype(np.uint8)
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
