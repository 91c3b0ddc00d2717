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


@functools.lru_cache(maxsize=None)
def _relabelers(size: int) -> tuple:
    """(perms, inverse): `_permutations` and their inverses, read-only rows
    kept for relabeling.

    The first call on a size lists them, unless a rack search already
    has, so it is charged here, before it runs: 19 steps a permutation,
    about what listing 9! costs (0.32 s on a 2-core Xeon).  Later calls
    list nothing and are not charged.
    """
    limits.charge_steps(19 * math.factorial(min(size, 21)),
                        f"listing the {size}! permutations of the carrier")
    perms = _permutations(size)
    inverse = np.empty_like(perms)
    inverse[np.arange(len(perms))[:, None], perms] = np.arange(size, dtype=np.uint8)
    inverse.setflags(write=False)
    return perms, inverse


@functools.lru_cache(maxsize=None)
def _word_plan(size: int, arity: int) -> tuple:
    """(c, powers, off) for relabeling tables of this shape word by word.

    A word is c consecutive entries, c the most with size^c < 2^63 (at most
    the table), read as one base-size int64 through `powers`, so that
    words compare as their entries do, lexicographically: 24 entries on 6
    points.  off is the narrowest integer type that indexes the flat list
    of permutations.
    """
    entries = size ** arity
    c = 63 if size < 2 else int(63 / math.log2(size))
    while c > 1 and size ** c >= 1 << 63:
        c -= 1
    c = min(c, entries)
    powers = size ** np.arange(c - 1, -1, -1, dtype=np.int64)
    powers.setflags(write=False)
    return c, powers, np.min_scalar_type(math.factorial(min(size, 21)) * size)


def _moved(inverse: np.ndarray, lo: int, hi: int, size: int,
           arity: int) -> np.ndarray:
    """src[r, j]: the entry that relabeling along the permutation whose
    inverse is inverse[r] carries to entry lo + j, that entry's tuple moved
    digit-wise by the inverse.

    With size^m <= hi - lo < size^(m+1), the entries share all but their m
    lowest digits, up to size carries: the low digits are read from the
    moved tuples of m digits, the rest from the few heads lo // size^m ..
    (hi - 1) // size^m, so the work does not grow with the arity."""
    m = 0
    while m < arity and size ** (m + 1) <= hi - lo:
        m += 1
    low = digit_map(inverse, size, m)
    heads = np.arange(lo // size ** m, (hi - 1) // size ** m + 1)
    head = heads[:, None] // size ** np.arange(arity - m - 1, -1, -1) % size
    high = inverse[:, head] @ size ** np.arange(arity - 1, m - 1, -1)
    q, r = np.divmod(np.arange(lo, hi), size ** m)
    return high.take(q - heads[0], axis=1) + low.take(r, axis=1)


@functools.lru_cache(maxsize=None)
def _source_map(size: int, arity: int) -> np.ndarray:
    """`_moved` for every permutation and every entry, kept for the shapes
    small enough to hold it: those whose N! N^k fits one block of
    ISO_BLOCK_ENTRIES, none on 7 or more points."""
    src = _moved(_relabelers(size)[1], 0, size ** arity, size, arity)
    src.setflags(write=False)
    return src


def _encode(rel: np.ndarray, c: int, powers: np.ndarray) -> np.ndarray:
    """The codes of the c-entry words of each row of rel, a short last
    word read as if padded with zeros."""
    n, length = rel.shape
    full = length // c
    if full * c == length:
        return rel.reshape(n, full, c) @ powers
    out = np.empty((n, full + 1), dtype=np.int64)
    out[:, :full] = rel[:, :full * c].reshape(n, full, c) @ powers
    out[:, full] = rel[:, full * c:] @ powers[:length - full * c]
    return out


# steps a table for what is done table by table: the uint8 copy, the key
# and its class in the sorted grouping of `_classes`
_TABLE_STEPS = 3


def _charge_relabelings(work: int, held: int, what: str) -> None:
    """Charge a span of words of `_least_words` before it runs (see
    `limits`).  `work` is the steps of the search so far with the span's:
    one per 12 entries relabeled, along every (table, permutation) pair for
    word 0 and along the pairs still tied after it, and _TABLE_STEPS a
    table: 40 to 110 ns a step on the calibration inputs of the tests, on
    a 2-core Xeon.  `held` is the bytes held while the span runs: the
    tables, the permutations, the codes and tied pairs and the largest
    block."""
    limits.charge_steps(work, what)
    limits.charge_bytes(held, what)


def _least_words(tables: np.ndarray, size: int, arity: int, what: str,
                 target=None):
    """Relabel uint8 tables along every carrier permutation, a word at a
    time, keeping only the relabelings still tied with the key.

    Words are those of `_word_plan`.  The key of a table is its least
    relabeling, or with `target`, the target's words.  Every (table,
    permutation) pair is relabeled on the first words; each later word only
    on the pairs whose words so far equal the key's.  Words go a span at a
    time, as many as fit ISO_BLOCK_ENTRIES for the pairs left and at least
    one: a small stack is relabeled whole in one pass, a large one word by
    word, and a wide table with few ties many words a pass.  Returns (keys,
    pairs): keys[t, w] the least word w of table t (or the target's), and
    with `target`, pairs, the flat indices t N! + p, ascending, of the
    relabelings equal to the target in every word (without, the pairs
    still tied before the last span).

    Each span is charged before it runs, the first before any permutation
    is listed.
    """
    count, entries = tables.shape
    n_perms = math.factorial(min(size, 21))        # 21! passes 2^64
    c, powers, off = _word_plan(size, arity)
    n_words = -(-entries // c)
    keys = np.empty((count, n_words), dtype=np.int64) if target is None else target
    kept = n_perms * entries <= ISO_BLOCK_ENTRIES
    # the uint8 tables twice, the listing and the lists of permutations, the
    # keys, the source map when kept, and the largest block, 64 bytes an
    # entry: its source index and the two reads `_moved` adds it from, the
    # table value, the index into the permutations, the relabeled value and
    # its int64 cast
    held = (2 * count * entries + 160 * n_perms + 8 * keys.size
            + 8 * kept * n_perms * entries + 64 * max(ISO_BLOCK_ENTRIES, c))

    def sources(rows, lo, hi):
        if kept:
            return _source_map(size, arity)[rows, lo:hi]
        return _moved(_relabelers(size)[1][rows], lo, hi, size, arity)

    n, pairs, work, w = count * n_perms, None, _TABLE_STEPS * count, 0
    while w < n_words and n:
        span = min(n_words - w, max(1, ISO_BLOCK_ENTRIES // (n * c)))
        lo, hi = w * c, min(entries, (w + span) * c)
        last = w + span == n_words and target is None
        work += n * (hi - lo) // 12
        # a pair's index, table and permutation and the codes of the span;
        # unless they are the last, its key, a sort and the ties kept
        _charge_relabelings(work, held + 8 * n * (3 + span if last else 5 + 3 * span),
                            what)
        if pairs is None:
            # every pair, table-major: the tables share the sources
            flat = _relabelers(size)[0].ravel()
            codes = np.empty((count, n_perms, span), dtype=np.int64)
            step = max(1, ISO_BLOCK_ENTRIES // (hi - lo))
            for p in range(0, n_perms, step):
                src = sources(slice(p, p + step), lo, hi)
                shift = np.arange(p * size, (p + len(src)) * size, size, dtype=off)
                rows = max(1, ISO_BLOCK_ENTRIES // src.size)
                for t in range(0, count, rows):
                    rel = flat.take(tables[t:t + rows].take(src, axis=1) + shift[:, None])
                    codes[t:t + rows, p:p + len(src)] = _encode(
                        rel.reshape(-1, hi - lo), c, powers).reshape(-1, len(src), span)
            codes = codes.reshape(n, span)
            starts, runs = np.arange(0, n, n_perms), n_perms
        else:
            t, p = np.divmod(pairs, n_perms)
            codes = np.empty((n, span), dtype=np.int64)
            rows = max(1, ISO_BLOCK_ENTRIES // (hi - lo))
            for r in range(0, n, rows):
                src = sources(p[r:r + rows], lo, hi)
                src += t[r:r + rows, None] * entries
                shift = (p[r:r + rows, None] * size).astype(off)
                rel = flat.take(tables.take(src) + shift)
                codes[r:r + rows] = _encode(rel, c, powers)
            # every table keeps a pair, and t is ascending
            runs = np.bincount(t, minlength=count)
            starts = np.cumsum(runs) - runs
        if target is None:
            # each table's pairs are a run of rows, in table order
            if n == count:
                least = codes
            elif span == 1:
                least = np.minimum.reduceat(codes[:, 0], starts)[:, None]
            elif pairs is None:
                grid = codes.reshape(count, n_perms, span)
                first = np.lexsort(grid.transpose(2, 0, 1)[::-1], axis=-1)[:, 0]
                least = grid[np.arange(count), first]
            else:
                table = np.repeat(np.arange(count), runs)
                least = codes[np.lexsort((*codes.T[::-1], table))[starts]]
            keys[:, w:w + span] = least
            if last:
                break
            least = np.repeat(least, runs, axis=0)
        else:
            least = keys[:, w:w + span]
        keep = (codes == least).all(axis=1)
        pairs = np.flatnonzero(keep) if pairs is None else pairs[keep]
        n, w = len(pairs), w + span
    return keys, pairs


def _classes(keys: np.ndarray) -> list:
    """The indices of equal rows of keys, each list ascending, the lists
    ordered by their least member."""
    # a row of several words is sorted as one opaque item, byte by byte
    words = keys.shape[1]
    items = keys[:, 0] if words == 1 else keys.view(f"V{8 * words}")[:, 0]
    order = np.argsort(items, kind="stable")
    ranked = items[order]
    cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    # the sort is stable, so each class starts at its least member
    members, bounds = order.tolist(), [0, *cuts.tolist(), len(order)]
    classes = [members[a:b] for a, b in zip(bounds, bounds[1:])]
    return [classes[i] for i in np.argsort(order[bounds[:-1]]).tolist()]


def _check_iso_shape(op_a: OpTable, op_b: OpTable):
    if op_a.size != op_b.size or op_a.arity != op_b.arity:
        raise InputError(
            f"shape mismatch: size {op_a.size} arity {op_a.arity} vs "
            f"size {op_b.size} arity {op_b.arity}")


def find_isomorphism(op_a: OpTable, op_b: OpTable):
    """Lexicographically first relabeling carrying op_a to op_b, or None.

    The permutations whose relabeling of op_a agrees with op_b in every word
    so far are kept, word by word (see `_least_words`); the first survivor,
    in itertools order, is the answer.  Refuses tables of two shapes, and
    each word and the listing of the permutations before they run, when
    over the budgets of `limits`.
    """
    _check_iso_shape(op_a, op_b)
    size, arity = op_a.size, op_a.arity
    c, powers = _word_plan(size, arity)[:2]
    target = _encode(op_b.table.astype(np.uint8)[None], c, powers)
    _, pairs = _least_words(op_a.table.astype(np.uint8)[None], size, arity,
                            f"isomorphism search over 1 x {size}! relabelings",
                            target)
    if not len(pairs):
        return None
    return tuple(int(v) for v in _relabelers(size)[0][pairs[0]])


def tables_isomorphic(op_a: OpTable, op_b: OpTable) -> bool:
    """Whether some carrier relabeling carries op_a to op_b."""
    return find_isomorphism(op_a, op_b) is not None


def isomorphism_classes(ops) -> list:
    """Partition a stack, or a list of same-shape tables, into isomorphism
    classes.

    Each table's key is its canonical form, the lexicographically least of
    its N! relabelings, found one word at a time by `_least_words`, and two
    tables are isomorphic exactly when their keys agree.  Returns a list of
    lists of indices into ops, each sorted, ordered by their smallest
    member.  Refuses tables of two shapes, and each word and the listing of
    the permutations before they run, when over the budgets of `limits`.
    """
    if isinstance(ops, TableStack):
        tables, shape = ops.tables, ops
    else:
        ops = list(ops)
        for op in ops[1:]:
            _check_iso_shape(ops[0], op)
        tables, shape = [op.table for op in ops], ops[0] if ops else None
    if len(ops) < 2:
        return [[i] for i in range(len(ops))]
    size, arity = shape.size, shape.arity
    keys, _ = _least_words(np.array(tables, dtype=np.uint8), size, arity,
                           f"isomorphism search over {len(ops)} x {size}! relabelings")
    return _classes(keys)
