"""Exhaustive searches for self-distributive tables on tiny carriers.

A full scan of kind "all" lays out every table of the requested shape, so
it is only feasible while size^(size^arity) stays small: binary carriers up
to size 3 (3^9 tables) and ternary carriers up to size 2 (2^8 tables).  The
other kinds search over translations.  A table is one translation
R_t: x -> W(x, t) for each of the N^(k-1) tails t, and self-distributivity
says that every R_z is an endomorphism: R_z o R_y = R_{R_z.y} o R_z, where
R_z.y moves the tail y digit by digit.  That condition involves three
translations at a time, so a search that assigns the tails in order can drop
a partial table as soon as the three tails of a failing condition are all
assigned.  A full scan of kind "sd", "rack" or "quandle" runs that search
level by level, over every surviving partial table at once, with any map,
any permutation, or a permutation fixing x at the diagonal tail (x, .., x)
as the candidates of a tail, and checks at each level only the conditions
that its tail decides.  `enumerate_racks` is the same search under the
label "translations"; it reaches the 1708 racks on 5 points and the 129
ternary racks on 3.  Affine tables over Z_m are a third, structural filter.

No law is stated here.  The survivors of a search take their verdict from
the batched self-distributivity law of `kernels`, over the whole stack of
them at once.  Mutual pairs read the exchange law through translations:
it says that every right translation of one table is an endomorphism of
the other, so one batched unary exchange law decides every
self-distributive table against every translation column.  Affine scans
test nothing, since the kinds follow from the form.

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

KINDS = ("all", "sd", "rack", "quandle")


def _check_kind(kind: str, allowed=KINDS):
    if kind not in allowed:
        raise InputError(f"unknown predicate {kind!r}, expected one of {allowed}")


def _tuples(size: int, length: int) -> np.ndarray:
    """All tuples of `length` digits in 0..size-1, one per row, in
    lexicographic order, laid out in one int64 array: column j repeats each
    digit size^(length-1-j) times, a pattern written by broadcasting."""
    out = np.empty((size ** length, length), dtype=np.int64)
    for j in range(length):
        out.reshape(size ** j, size, -1, length)[..., j] = np.arange(size)[:, None]
    return out


def _translations(size: int, arity: int, kind: str):
    """The lookup tables of a search over translations.

    A table is one translation R_t: x -> W(x, t) for each of the N^(k-1)
    tails t, and is self-distributive exactly when R_z o R_y equals
    R_{R_z.y} o R_z for all tails y and z, where R_z.y is y moved digit by
    digit.  Returns (maps, compose, act, least, cands):
      maps[a]        a candidate translation, as its N images; every map for
                     "sd", every permutation in lexicographic order otherwise;
      compose[a, b]  the base-N code of maps[a] o maps[b];
      act[y, a]      the tail y moved digit-wise by maps[a];
      least[t, a]    the least tail y with act[y, a] == t, or N^(k-1) when
                     there is none: the inverse of act[:, a] for a
                     permutation;
      cands[t]       the indices of the maps tail t may take: all of them,
                     except that a quandle's diagonal tail (x, .., x) takes
                     only the permutations that fix x.
    """
    maps = _tuples(size, size) if kind == "sd" else _permutations(size).astype(np.int64)
    compose = maps[:, maps] @ size ** np.arange(size - 1, -1, -1)
    act = digit_map(maps, size, arity - 1).T.copy()
    n_tails, n_maps = act.shape
    least = np.full_like(act, n_tails)
    np.minimum.at(least, (act, np.arange(n_maps)), np.arange(n_tails)[:, None])
    cands = [np.arange(n_maps)] * n_tails
    if kind == "quandle":
        # (N - 1)! permutations fix each point
        fixing = np.nonzero((maps == np.arange(size)).T)[1].reshape(size, -1)
        for x, t in enumerate(diagonal_indices(size, arity - 1).tolist()):
            cands[t] = fixing[x]
    return maps, compose, act, least, cands


def _sorted_tables(maps: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """The flat tables whose translations are maps[chosen[t, r]], sorted
    lexicographically: entry (x, t) of table r is maps[chosen[t, r], x]."""
    tails, count = chosen.shape
    tables = maps.T[:, chosen].transpose(2, 0, 1).reshape(count, -1)
    return tables[np.lexsort(tables.T[::-1])]


# bytes charged for each condition a level checks: the int64 grids of the
# tails it reads, of the maps at them, of both sides' indices into compose
# and of the codes read there, and the masks
_PAIR_BYTES = 48


def _consistent(chosen: np.ndarray, compose: np.ndarray, act: np.ndarray,
                least: np.ndarray) -> np.ndarray:
    """The partial tables, chosen[t, r] the map index of tail t in table r
    for the tails 0..j, that pass the 3j + 1 conditions
    R_z o R_y == R_{R_z.y} o R_z that tail j newly decides, each wherever
    z, y and R_z.y are all assigned: the row z = j, the column y = j, and
    for each z < j the pair whose R_z.y is j, its y read from `least`.  A
    permutation moves exactly one tail to j, so a table of permutations
    whose parent passed every condition on the tails 0..j-1 is kept exactly
    when it passes every condition on 0..j.  Other maps may move several
    tails to j and only the least is checked, so a kept table may still
    fail; the verdict of `_search` drops it.

    Conditions, like tails, are rows over the tables, so that each step
    runs along whole rows."""
    j1, count = chosen.shape
    j = j1 - 1
    m = len(compose)
    new, old = chosen[j], chosen[:j]
    # the tail each condition reads: R_j.y for every y <= j, then R_z.j and
    # the y with R_z.y = j for every z < j
    tail = np.concatenate([act[:j1].take(new, axis=1), act[j].take(old),
                           least[j].take(old)])
    # an unassigned tail reads some other entry, and its condition holds
    ok = tail > j
    tail *= count
    tail += np.arange(count)
    got = chosen.take(tail, mode="clip")
    del tail
    # both sides, z m + y and t m + z, as flat indices into compose: (j, y,
    # got) for y <= j, then (z, j, got) and (z, got, j) for z < j
    at = chosen * m
    left = np.empty_like(got)
    np.add(at[j], chosen, out=left[:j1])
    np.add(at[:j], new, out=left[j1:2 * j + 1])
    np.add(at[:j], got[2 * j + 1:], out=left[2 * j + 1:])
    got[:2 * j + 1] *= m
    got[:j1] += new
    got[j1:2 * j + 1] += old
    np.add(at[j], old, out=got[2 * j + 1:])
    flat = compose.ravel()
    left = flat.take(left)
    ok |= left == flat.take(got)
    return ok.all(axis=0)


def _search(size: int, arity: int, kind: str, what: str) -> np.ndarray:
    """The tables of the kind, sorted lexicographically: every choice of one
    candidate translation a tail (see `_translations`) that the batched
    self-distributivity law of `kernels` accepts.

    Tails are assigned one level at a time, over every surviving partial
    table at once, held as chosen[t, r], the map index of tail t in table
    r: level j appends each candidate of tail j to every survivor of level
    j - 1 and drops the tables that fail one of the 3j + 1 conditions of
    `_consistent`.  Level 0's one condition sets R_0 o R_0 against itself,
    so it is not evaluated.  The survivors of the last level take their
    verdict from the law.

    Everything is charged before it is built.  Up front: the lookup tables'
    bytes, then as steps their entries (n_maps^2 compositions, 2 n_maps
    N^(k-1) tail actions and preimages, N^(k-1) (k - 1) tail digits) plus
    the first descent, |cands_j| (3j + 1) summed over the levels.  Level j
    holds at least |cands_j| tables, since the first candidates of all
    tails, the constant map 0 or the identity, make a self-distributive
    table.  Then, at each level, (3j + 1) more steps a table, and in bytes
    its parents, its tables and `_PAIR_BYTES` a condition; the last level's
    charge, N^(k-1) >= N conditions an entry of each of its tables, covers
    the tables it leaves, gathered and sorted.
    """
    n_maps = limits.power(size, size) if kind == "sd" else math.factorial(min(size, 21))
    n_tails = limits.power(size, arity - 1)
    # the maps, their compositions gathered as n_maps^2 maps before they are
    # read as codes, and four n_maps x n_tails arrays while act and least
    # are built
    limits.charge_bytes(8 * (n_maps * size + n_maps * n_maps * (size + 1)
                             + 4 * n_maps * n_tails),
                        f"the translation tables of {what}")
    searched = f"the translation search of {what}"
    work = n_maps ** 2 + 2 * n_maps * n_tails + n_tails * (arity - 1)
    # 3j + 1 checks a candidate at level j, over the levels 0..N^(k-1) - 1;
    # a quandle's N diagonal tails, at the levels x (N^(k-1) - 1) / (N - 1),
    # take only the n_maps / N permutations fixing x
    descent = n_maps * (3 * n_tails * (n_tails - 1) // 2 + n_tails)
    if kind == "quandle":
        descent -= (n_maps - n_maps // size) * (3 * size * (n_tails - 1) // 2 + size)
    limits.charge_steps(work + descent, searched)
    maps, compose, act, least, cands = _translations(size, arity, kind)
    chosen = np.zeros((0, 1), dtype=np.int64)
    for j, cand in enumerate(cands):
        parents = chosen.shape[1]
        count = parents * len(cand)
        work += count * (3 * j + 1)
        limits.charge_steps(work, searched)
        limits.charge_bytes(8 * (parents * j + count * (j + 1))
                            + _PAIR_BYTES * count * (3 * j + 1),
                            f"level {j} of {searched}")
        if not j:
            chosen = cand[None]
            continue
        grown = np.empty((j + 1, parents, len(cand)), dtype=np.int64)
        grown[:j] = chosen[:, :, None]
        grown[j] = cand
        chosen = grown.reshape(j + 1, count)
        chosen = chosen[:, _consistent(chosen, compose, act, least)]
    tables = _sorted_tables(maps, chosen)
    law = kernels.exchange_law(tables, tables, size, arity, arity, batch=len(tables))
    return tables[kernels.holds(law)]


def _stack(tables: np.ndarray, size: int, arity: int, scan: str,
           kind: str) -> TableStack:
    return TableStack(size, arity, tables, meta={
        "construction": "enumeration", "scan": scan, "predicate": kind})


def enumerate_operations(size: int, arity: int, kind: str = "sd") -> TableStack:
    """Every table of the given shape passing the predicate, as a stack in
    lex order.

    kind is one of "all", "sd", "rack", "quandle".  "all" lays out all
    N^(N^k) tables.  The others search over translations: a table is one
    translation x -> W(x, tail) for each of the N^(k-1) tails, any of the
    N^N maps for "sd", a permutation for "rack", and for "quandle" a
    permutation that fixes x at the diagonal tail (x, .., x).  `_search`
    assigns the tails one level at a time, over every surviving partial
    table at once, drops the partial tables on which
    R_z o R_y != R_{R_z.y} o R_z for tails z, y and R_z.y that are all
    assigned (for "sd", as far as `_consistent` looks), and takes the
    survivors' verdict from one batched law of `kernels`; `enumerate_racks`
    runs the same search.  Refuses shapes whose scan would not fit the
    budgets of `limits`: the tables of "all", and the lookup tables, the
    first descent and each level of a search, are charged before they are
    built.
    """
    _check_kind(kind)
    check_shape(size, arity)
    what = f"a full scan of size {size} arity {arity}"
    # every table of "all", or one table of a search, and the N^(k-1) tails
    # of k-1 digits that a search moves digit by digit: this refuses a
    # one-point carrier of huge arity before anything is built
    entries = limits.power(size, arity)
    tails = limits.power(size, arity - 1) * (arity - 1)
    count = limits.power(size, entries) if kind == "all" else 1
    limits.charge_bytes(8 * (count * entries + tails), what)
    if kind == "all":
        return _stack(_tuples(size, size ** arity), size, arity, "full", kind)
    return _stack(_search(size, arity, kind, what), size, arity, "full", kind)


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
    # then, besides them, the coefficient rows twice while they are
    # sorted, the sort order, and the tables
    limits.charge_bytes(8 * arity * entries, f"the carrier digits of {what}")
    limits.charge_bytes(8 * (arity * entries + heads * (2 * arity + 1)
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
    """The racks or quandles of the given shape, as a stack in lex order.

    A table whose first-argument translations are bijections is a choice of
    one permutation a tail, and self-distributivity a condition between
    three of them.  This is the search of a full scan of the same kind,
    labelled "translations": the ternary racks on 3 points are 6^9 tables,
    of which the search builds a few thousand, and a quandle's diagonal
    tail (x, .., x) only takes the permutations that fix x.  Refuses when
    the budgets of `limits` do not cover the lookup tables, the levels and
    consistency checks of the search, or the verdict; the lookup tables and
    the first descent of the search are charged before anything is built.
    """
    _check_kind(kind, ("rack", "quandle"))
    check_shape(size, arity)
    what = (f"a translation scan on size {size} arity {arity} (table entries"
            " and consistency checks)")
    return _stack(_search(size, arity, kind, what), size, arity, "translations", kind)


def _endomorphisms(tables: np.ndarray, maps: np.ndarray, size: int,
                   arity: int) -> np.ndarray:
    """endo[i, f]: f(t(x, y..)) == t(f(x), f(y)..) for table t = tables[i]
    and map f = maps[f], every table against every map in one batched
    unary exchange law."""
    n, count = len(tables), len(maps)
    batch = n * count
    limits.charge_bytes(8 * batch * (size ** arity + size),
                        f"the endomorphism table of {n} tables and {count} maps")
    law = kernels.exchange_law(np.repeat(tables, count, axis=0),
                               np.tile(maps, (n, 1)), size, arity, 1, batch=batch)
    return kernels.holds(law).reshape(n, count)


def enumerate_mutual_pairs(size: int) -> list:
    """All ordered pairs of self-distributive binary tables satisfying both
    exchange laws, in lexicographic order on (first table, second table).

    The law (x *0 y) *1 z == (x *1 z) *0 (y *1 z) reads *1 only through its
    right translations R_z: x -> x *1 z, and says that each is an
    endomorphism of *0.  So the distinct translation columns of the
    self-distributive tables are listed once (all 27 maps on 3 points), and
    `_endomorphisms` decides every table against every column at once.
    Table j acts on table i when each of j's columns is an endomorphism of
    i, and a pair is mutual when each acts on the other.  Diagonal pairs
    (t, t) appear for every self-distributive t, since the exchange laws
    then restate self-distributivity.
    """
    stack = enumerate_operations(size, 2, "sd")
    S = stack.tables
    n = len(S)
    # column z of table j, read down x, as one base-N code
    cols = S.reshape(n, size, size).transpose(0, 2, 1).reshape(n * size, size)
    _, first, col = np.unique(cols @ size ** np.arange(size - 1, -1, -1),
                              return_index=True, return_inverse=True)
    endo = _endomorphisms(S, cols[first], size, 2)
    acts = endo[:, col.reshape(n, size)].all(axis=-1)
    ops = list(stack)
    return [(ops[a], ops[b]) for a, b in np.argwhere(acts & acts.T).tolist()]


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


def _charge_relabelings(count: int, size: int, arity: int) -> None:
    """Charge relabeling `count` tables along all N! permutations, before
    any is listed (see `limits`).  A listed permutation takes 0.5 us and
    up to 160 bytes, overpriced so that 9 points are refused; a block
    holds 27 bytes an entry, and the uint8 tables are held twice."""
    perms = math.factorial(min(size, 21))       # 21! passes 2^64
    entries = size ** arity                     # the tables exist
    what = f"isomorphism search over {count} x {size}! relabelings"
    limits.charge_steps(19 * perms + count * perms * entries // 12, what)
    limits.charge_bytes(160 * perms + 2 * count * entries
                        + 32 * max(ISO_BLOCK_ENTRIES, entries), what)


def find_isomorphism(op_a: OpTable, op_b: OpTable):
    """Lexicographically first relabeling carrying op_a to op_b, or None.
    Refuses tables of two shapes, and before any work, relabelings over the
    budgets of `limits`, as on 9 or more points."""
    _check_iso_shape(op_a, op_b)
    _charge_relabelings(1, op_a.size, op_a.arity)
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
    ordered by their smallest member.  Refuses tables of two shapes, and
    before any work, relabelings over the budgets of `limits`.
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
    _charge_relabelings(len(ops), size, arity)
    tables = np.array(tables, dtype=np.uint8)
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
