import functools
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from selfdist import (InputError, OpTable, TableStack, affine_op,
                      are_mutually_distributive,
                      conj_quandle, core_quandle, cyclic_group, dihedral_group,
                      heap_op, is_nary_distributive, is_quandle, is_rack,
                      projection_op, relabel, symmetric_group, tuple_to_index)
from selfdist import enumeration, limits
from selfdist.optable import digit_map
from selfdist.enumeration import (KINDS, enumerate_affine, enumerate_mutual_pairs,
                                  enumerate_operations, enumerate_racks,
                                  find_isomorphism, isomorphism_classes,
                                  tables_isomorphic)
from formulas import make_op_table


def flat(op):
    return tuple(int(v) for v in op.table)


# ---------------------------------------------------------------------------
# reference oracles: row masks and an exchange-law loop that share no code
# with the scan engine

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


def kind_masks_ref(tables, size, arity):
    """The rows each kind keeps, by kind, from the three mask oracles."""
    sd = _sd_mask(tables, size, arity)
    rack = sd & _translation_mask(tables, size, arity)
    return {"all": np.ones(len(tables), bool), "sd": sd, "rack": rack,
            "quandle": rack & _diagonal_mask(tables, size, arity)}


def mutual_mask_ref(S: np.ndarray, n: int) -> np.ndarray:
    """mask[i, j]: rows i and j of S satisfy both exchange laws."""
    m = S.shape[0]
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
    return mask


def all_tables(size, arity):
    """Every flat table of the shape, one per row, in lexicographic order."""
    entries = size ** arity
    codes = np.arange(size ** entries)
    return np.stack([codes // size ** p % size
                     for p in range(entries - 1, -1, -1)], axis=1)


def stacked(ops):
    return np.stack([op.table for op in ops])


# every full-scan shape that fits the budgets, apart from one-point carriers
# of larger arity, which hold a single table
FULL_SHAPES = [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2)]
# the affine shapes of the benchmark's classify workload
CLASSIFY_AFFINE = [(5, 2), (7, 2), (4, 3), (5, 3), (3, 4), (9, 2), (6, 2), (8, 2),
                   (11, 2), (13, 2), (3, 3)]


def test_full_scans_match_mask_oracles():
    for size, arity in FULL_SHAPES:
        tables = all_tables(size, arity)
        for kind, mask in kind_masks_ref(tables, size, arity).items():
            got = stacked(enumerate_operations(size, arity, kind))
            assert np.array_equal(got, tables[mask]), (size, arity, kind)


def test_full_scans_take_their_verdict_from_the_scan_engine(monkeypatch):
    # with no row dropped by the search, the batched law alone still keeps
    # exactly the tables of the kind, through either entry point
    monkeypatch.setattr(enumeration, "_consistent",
                        lambda chosen, *lookups: np.ones(chosen.shape[1], bool))
    for size, arity in ((2, 2), (2, 3), (3, 2)):
        tables = all_tables(size, arity)
        for kind, mask in kind_masks_ref(tables, size, arity).items():
            got = stacked(enumerate_operations(size, arity, kind))
            assert np.array_equal(got, tables[mask]), (size, arity, kind)
            if kind in ("rack", "quandle"):
                got = stacked(enumerate_racks(size, arity, kind))
                assert np.array_equal(got, tables[mask]), (size, arity, kind)


def consistent_grid_ref(chosen, compose, act):
    """Rows of partial tables, chosen[r, t] the map index of tail t for the
    tails 0..j, on which R_z o R_y == R_{R_z.y} o R_z wherever z, y and
    R_z.y are all assigned, with R_z.y = act[chosen[r, z], y]: the whole
    (j + 1)^2 grid of pairs, one pair at a time."""
    j1 = chosen.shape[1]
    keep = np.ones(len(chosen), bool)
    for z in range(j1):
        for y in range(j1):
            t = act[chosen[:, z], y]
            ok = compose[chosen[:, z], chosen[:, y]] == compose[
                chosen[np.arange(len(chosen)), np.minimum(t, j1 - 1)], chosen[:, z]]
            keep &= ok | (t >= j1)
    return keep


def test_least_preimages_match_a_loop():
    # least[t, a] is the least tail that map a moves to t, or N^(k-1): the
    # inverse for permutations, one of several preimages or none for maps
    for size, arity, kind in ((3, 2, "sd"), (2, 3, "sd"), (2, 4, "sd"), (3, 3, "rack")):
        maps, _, act, least, _ = enumeration._translations(size, arity, kind)
        tails = len(act)
        for a in range(len(maps)):
            moved = act[:, a].tolist()
            want = [moved.index(t) if t in moved else tails for t in range(tails)]
            assert least[:, a].tolist() == want, (size, arity, kind, a)
        if kind == "sd":
            assert (least == tails).any()


def test_level_checks_match_the_whole_grid(monkeypatch):
    # at every level of a search, the conditions that tail j decides keep
    # exactly the rows of permutations that the whole grid keeps, and for
    # the arbitrary maps of "sd", which are checked at one preimage, at
    # least those rows
    consistent = enumeration._consistent
    seen = []

    def spy(chosen, compose, act, least):
        keep = consistent(chosen, compose, act, least)
        grid = consistent_grid_ref(chosen.T, compose, act.T)
        seen.append((chosen.shape[0], int(keep.sum()), int(grid.sum()), len(keep)))
        if kind == "sd":
            assert (keep >= grid).all()
        else:
            assert np.array_equal(keep, grid)
        return keep
    monkeypatch.setattr(enumeration, "_consistent", spy)
    cases = [(shape, kind) for shape in ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3))
             for kind in ("rack", "quandle")]
    cases += [(shape, "sd") for shape in ((3, 2), (2, 4))]
    dropped = {kind: 0 for kind in ("sd", "rack", "quandle")}
    passed = 0
    for (size, arity), kind in cases:
        seen.clear()
        stack = enumerate_operations(size, arity, kind)
        # one check at each level after the first
        assert len(seen) == size ** (arity - 1) - 1, (size, arity, kind)
        dropped[kind] += sum(rows - keep for _, keep, _, rows in seen)
        if kind == "sd":
            assert len(stack) == {(3, 2): 224, (2, 4): 3254}[size, arity]
            passed += sum(keep - grid for _, keep, grid, _ in seen)
    assert min(dropped.values()) > 0, dropped
    # the single preimage lets through rows that the grid drops (2 on the
    # last level of (3, 2)), which the verdict then drops
    assert passed > 0


def test_mutual_pairs_match_loop_oracle():
    for size in (1, 2, 3):
        ops = enumerate_operations(size, 2, "sd")
        S = np.stack([op.table for op in ops])
        want = [(flat(ops[i]), flat(ops[j]))
                for i, j in np.argwhere(mutual_mask_ref(S, size))]
        got = [(flat(a), flat(b)) for a, b in enumerate_mutual_pairs(size)]
        assert got == want, size


def endomorphism_ref(table, f, size, arity):
    """Whether f(t(a..)) == t(f(a)..) at every argument tuple, one at a time."""
    return all(f[table[tuple_to_index(a, size)]]
               == table[tuple_to_index(tuple(f[v] for v in a), size)]
               for a in itertools.product(range(size), repeat=arity))


def test_endomorphism_table_matches_loop():
    rng = np.random.default_rng(0xE4D0)
    cases = [(stacked(enumerate_operations(size, 2, "sd")), size, 2)
             for size in (1, 2, 3)]
    # drawn binary and ternary tables, with the affine and projection tables
    # whose endomorphisms are many
    for size, arity in ((3, 2), (4, 2), (2, 3), (3, 3)):
        drawn = rng.integers(0, size, (12, size ** arity))
        known = [affine_op(size, arity, [1] * (arity - 1)).table,
                 projection_op(size, arity).table]
        cases.append((np.concatenate([drawn, known]), size, arity))
    seen = {True: 0, False: 0}
    for tables, size, arity in cases:
        maps = all_tables(size, 1)
        got = enumeration._endomorphisms(tables, maps, size, arity)
        want = [[endomorphism_ref(t, f, size, arity) for f in maps] for t in tables]
        assert got.tolist() == want, (size, arity)
        for v in got.ravel().tolist():
            seen[v] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_affine_closed_form_matches_mask_oracles():
    for modulus, arity in CLASSIFY_AFFINE:
        tables = np.stack([
            affine_op(modulus, arity, head).table
            for head in itertools.product(range(modulus), repeat=arity - 1)])
        for kind, mask in kind_masks_ref(tables, modulus, arity).items():
            want = tables[mask]
            want = want[np.lexsort(want.T[::-1])]
            got = stacked(enumerate_affine(modulus, arity, kind))
            assert np.array_equal(got, want), (modulus, arity, kind)


# ---------------------------------------------------------------------------
# stacks, against the lists of validated tables the enumerators once returned

# the shapes of the translation scan tests
RACK_SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (5, 2)]


def old_list(rows, size, arity, scan, kind):
    """One validated OpTable per row, with the scan's provenance."""
    meta = {"construction": "enumeration", "scan": scan, "predicate": kind}
    return [OpTable(size, arity, row, meta=meta) for row in rows]


def assert_stack_is(stack, want):
    """The stack holds the tables of `want` in order, read-only, with the
    same provenance, whether iterated or indexed."""
    assert isinstance(stack, TableStack) and len(stack) == len(want)
    assert not stack.tables.flags.writeable
    for got in (list(stack), [stack[i] for i in range(len(stack))]):
        for op, exp in zip(got, want):
            assert op == exp and op.meta == exp.meta
            assert not op.table.flags.writeable
    if want:
        assert stack[-1] == want[-1]


def affine_rows_ref(modulus, arity, kind):
    """affine_op at every head, filtered by the mask oracles, lex order."""
    tables = np.stack([
        affine_op(modulus, arity, head).table
        for head in itertools.product(range(modulus), repeat=arity - 1)])
    want = tables[kind_masks_ref(tables, modulus, arity)[kind]]
    return want[np.lexsort(want.T[::-1])]


def test_stacks_match_old_lists():
    for size, arity in FULL_SHAPES:
        tables = all_tables(size, arity)
        for kind, mask in kind_masks_ref(tables, size, arity).items():
            assert_stack_is(enumerate_operations(size, arity, kind),
                            old_list(tables[mask], size, arity, "full", kind))
    for modulus, arity in CLASSIFY_AFFINE:
        for kind in KINDS:
            assert_stack_is(enumerate_affine(modulus, arity, kind),
                            old_list(affine_rows_ref(modulus, arity, kind),
                                     modulus, arity, "affine", kind))
    for size, arity in RACK_SHAPES:
        for kind in ("rack", "quandle"):
            stack = enumerate_racks(size, arity, kind)
            if size ** size ** arity <= 3 ** 9:
                rows = all_tables(size, arity)
                rows = rows[kind_masks_ref(rows, size, arity)[kind]]
            else:
                # beyond a full scan: strictly increasing rows, each of the kind
                rows = stack.tables
                assert all(tuple(a) < tuple(b) for a, b in zip(rows, rows[1:]))
                check = is_rack if kind == "rack" else is_quandle
                assert all(check(OpTable(size, arity, row)) for row in rows)
            assert_stack_is(stack, old_list(rows, size, arity, "translations", kind))


def test_stack_is_a_read_only_sequence():
    stack = enumerate_racks(3, 3)
    with pytest.raises(ValueError):
        stack.tables[0, 0] = 1
    with pytest.raises(ValueError):
        stack[0].table[0] = 1
    with pytest.raises(AttributeError):
        stack.meta = {}
    # each table owns its provenance
    stack[0].meta["scan"] = "changed"
    assert stack[0].meta["scan"] == stack.meta["scan"] == "translations"
    part = stack[5:17]
    assert isinstance(part, TableStack) and len(part) == 12
    assert np.array_equal(part.tables, stack.tables[5:17]) and part.meta == stack.meta
    assert part[0] == stack[5] and part[-1] == stack[16]
    assert list(stack[::-1]) == list(stack)[::-1]
    assert len(stack[200:]) == 0 and list(stack[200:]) == []
    for bad in (len(stack), -len(stack) - 1):
        with pytest.raises(IndexError):
            stack[bad]
    with pytest.raises(TypeError):
        stack[1.0]
    assert stack[np.int64(3)] == stack[3] and stack[3] in stack
    assert random.Random(3).sample(stack, 3) == [stack[i] for i in
                                                 random.Random(3).sample(range(len(stack)), 3)]
    assert repr(stack) == "TableStack(size=3, arity=3, count=129)"


def test_stack_validates_once_when_built():
    rows = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    stack = TableStack(2, 2, rows, meta={"k": 1})
    assert [op.table.tolist() for op in stack] == rows.tolist()
    assert stack[1].meta == {"k": 1} and len(TableStack(2, 2, np.zeros((0, 4)))) == 0
    for bad in ([[0, 0, 1]], [[0, 0, 1, 2]], [[0, 0, 1, -1]], [0, 0, 1, 1],
                [[0.0, 0, 1, 1]], [[True, False, True, False]]):
        with pytest.raises(InputError):
            TableStack(2, 2, bad)
    for size, arity in ((0, 2), (2, 1), (2.0, 2)):
        with pytest.raises(InputError):
            TableStack(size, arity, [[0]])


def test_isomorphism_classes_read_stacks():
    for name, stack in enumerated_lists().items():
        assert isinstance(stack, TableStack)
        assert isomorphism_classes(stack) == isomorphism_classes(list(stack)), name
    empty = enumerate_operations(2, 2, "quandle")[:0]
    assert isomorphism_classes(empty) == [] == isomorphism_classes([])
    with pytest.raises(InputError, match="refusing isomorphism search"):
        isomorphism_classes(enumerate_affine(9, 2, "rack"))
    assert isomorphism_classes(enumerate_affine(9, 2, "rack")[:1]) == [[0]]


def test_a_list_is_charged_before_it_is_read(monkeypatch):
    # a list's tables are checked and gathered one by one in Python, about
    # 12 steps a table, charged before the first shape check
    stack = enumerate_operations(2, 2, "sd")
    ops = list(stack)
    checked = []
    check = enumeration._check_iso_shape
    monkeypatch.setattr(enumeration, "_check_iso_shape",
                        lambda a, b: checked.append(1) or check(a, b))
    budget = limits.STEPS
    monkeypatch.setattr(limits, "STEPS", 12 * len(ops) - 1)
    with pytest.raises(InputError, match=f"refusing reading a list of {len(ops)} tables"):
        isomorphism_classes(ops)
    assert not checked
    # a stack is not read table by table, and its search fits
    partition = isomorphism_classes(stack)
    monkeypatch.setattr(limits, "STEPS", budget)
    assert isomorphism_classes(ops) == partition and len(checked) == len(ops) - 1


def test_affine_charge_covers_its_arrays(monkeypatch):
    # the numpy arrays the broadcast builds stay within the bytes it
    # charged; the allowance is for the few Python objects of a call
    charged = []
    charge = limits.charge_bytes
    monkeypatch.setattr(limits, "charge_bytes",
                        lambda need, what: charged.append(need) or charge(need, what))
    for modulus, arity, kind in [(150, 2, "sd"), (40, 2, "rack"), (12, 3, "all"),
                                 (6, 5, "sd"), (2, 12, "sd"), (3, 8, "quandle"),
                                 (7, 4, "sd")]:
        charged.clear()
        tracemalloc.start()
        try:
            enumerate_affine(modulus, arity, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charged) + 64 * 1024, (modulus, arity, kind, peak)


def test_scan_charges_cover_their_arrays(monkeypatch):
    # each charge covers everything the call holds until the next: the
    # tables of "all"; a search's lookup tables while they are built, and
    # each level with its parents and check grids, the last one also with
    # the tables it leaves; the verdict's narrow copies and largest block;
    # and the endomorphism table of mutual pairs
    charged = []
    charge = limits.charge_bytes
    monkeypatch.setattr(limits, "charge_bytes",
                        lambda need, what: charged.append(need) or charge(need, what))
    calls = [((size, arity, kind), enumerate_operations)
             for size, arity in FULL_SHAPES for kind in KINDS]
    calls += [((size, arity, kind), enumerate_operations)
              for size, arity in ((4, 2), (3, 3)) for kind in ("rack", "quandle")]
    calls += [((size,), enumerate_mutual_pairs) for size in (1, 2, 3)]
    for args, call in calls:
        charged.clear()
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charged) + 64 * 1024, (args, peak, charged)


def test_all_tables_are_laid_out_once():
    # the 2^16 tables of 16 entries of the arity-4 scan on 2 points are
    # written into one int64 array, 8 MiB, with no second copy
    tracemalloc.start()
    try:
        stack = enumerate_operations(2, 4, "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.tables.nbytes == 8 * 2 ** 16 * 16
    assert peak <= stack.tables.nbytes + 64 * 1024, peak


# ---------------------------------------------------------------------------
# full scans, frozen against an independent pure-python oracle

def test_binary_size_1():
    assert len(enumerate_operations(1, 2, "all")) == 1
    assert len(enumerate_operations(1, 2, "quandle")) == 1


def test_binary_size_2_lists():
    assert len(enumerate_operations(2, 2, "all")) == 16
    sd = enumerate_operations(2, 2, "sd")
    assert [flat(o) for o in sd] == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1),
        (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
    assert [flat(o) for o in enumerate_operations(2, 2, "rack")] == [
        (0, 0, 1, 1), (1, 1, 0, 0)]
    assert [flat(o) for o in enumerate_operations(2, 2, "quandle")] == [
        (0, 0, 1, 1)]


def test_binary_size_3_counts():
    sd = enumerate_operations(3, 2, "sd")
    assert len(sd) == 224
    assert flat(sd[0]) == (0,) * 9
    assert flat(sd[-1]) == (2,) * 9
    assert sum(int(o.table.sum()) for o in sd) == 2016
    assert len(enumerate_operations(3, 2, "rack")) == 13
    assert [flat(o) for o in enumerate_operations(3, 2, "quandle")] == [
        (0, 0, 0, 1, 1, 1, 2, 2, 2), (0, 0, 0, 2, 1, 1, 1, 2, 2),
        (0, 0, 1, 1, 1, 0, 2, 2, 2), (0, 2, 0, 1, 1, 1, 2, 0, 2),
        (0, 2, 1, 2, 1, 0, 1, 0, 2)]


def test_ternary_size_2():
    sd = enumerate_operations(2, 3, "sd")
    assert len(sd) == 56
    assert sum(int(o.table.sum()) for o in sd) == 224
    assert [flat(o) for o in enumerate_operations(2, 3, "rack")] == [
        (0, 0, 0, 0, 1, 1, 1, 1), (0, 1, 1, 0, 1, 0, 0, 1),
        (1, 0, 0, 1, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0, 0, 0)]
    quandles = enumerate_operations(2, 3, "quandle")
    assert flat(quandles[0]) == flat(projection_op(2, 3))
    assert flat(quandles[1]) == flat(heap_op(cyclic_group(2)))
    assert len(quandles) == 2


def test_full_scan_members_pass_axiom_checks():
    rng = random.Random(0x51D)
    sd = enumerate_operations(3, 2, "sd")
    for op in rng.sample(sd, 20):
        assert is_nary_distributive(op)
    for op in enumerate_operations(3, 2, "rack"):
        assert is_rack(op)
    for op in enumerate_operations(2, 3, "quandle"):
        assert is_quandle(op)


def test_full_scan_complement_fails():
    # completeness on the smallest shape: everything left out is not SD
    sd = {flat(o) for o in enumerate_operations(2, 2, "sd")}
    for op in enumerate_operations(2, 2, "all"):
        if flat(op) not in sd:
            assert not is_nary_distributive(op)


def test_full_scan_guardrail():
    # the searches that outgrow the budgets: the binary sd search on 4
    # points and the ternary one on 3 would need 20.6M and 9.7M steps, and
    # level 16 of the quandle search of arity 6 on 2 points would hold over
    # BYTES
    for size, arity, kind, unit in ((4, 2, "sd", "steps"), (3, 3, "sd", "steps"),
                                    (2, 6, "quandle", "bytes")):
        with pytest.raises(InputError, match=f"translation search .* {unit}"):
            enumerate_operations(size, arity, kind)
    with pytest.raises(InputError, match="level 16 .* needs 167247872 bytes"):
        enumerate_operations(2, 6, "quandle")
    # the racks on 5 points fit, and the two entry points share the search
    racks = enumerate_operations(5, 2, "rack")
    assert len(racks) == 1708
    assert np.array_equal(racks.tables, enumerate_racks(5, 2).tables)
    # the compositions of the 3125 maps on 5 points, before they are built
    with pytest.raises(InputError, match="translation tables .* bytes"):
        enumerate_operations(5, 2, "sd")
    # 24^4 and 2^16 permutation tables were too many tuples to scan; level
    # by level, the searches grow at most 2880 and 256 rows
    assert len(enumerate_operations(4, 2, "rack")) == 114
    assert len(enumerate_operations(2, 5, "quandle")) == 128
    with pytest.raises(InputError):
        enumerate_operations(2, 2, kind="proper")


def test_rack_full_scans_charge_their_candidates(monkeypatch):
    # the lookup tables, N!^2 compositions, 2 N! N tail actions and
    # preimages and N one-digit tails, then 3j + 1 conditions on each row
    # of level j, a survivor of level j - 1 extended by each candidate of
    # tail j.  Racks on 3 points: 6 rows, 6 * 6, then 11 survivors * 6.
    # Racks on 4: 24, 24 * 24, 120 * 24, 96 * 24.  Quandles on 4, the 6
    # permutations fixing each tail: 6, 6 * 6, 28 * 6, 28 * 6.  The
    # verdict's own charge is below each.
    for size, arity, kind, rows in ((3, 2, "rack", (6, 36, 66)),
                                    (4, 2, "rack", (24, 576, 2880, 2304)),
                                    (4, 2, "quandle", (6, 36, 168, 168))):
        perms = math.factorial(size)
        need = perms ** 2 + 2 * perms * size + size
        need += sum(r * (3 * j + 1) for j, r in enumerate(rows))
        monkeypatch.setattr(limits, "STEPS", need)
        enumerate_operations(size, arity, kind)
        monkeypatch.setattr(limits, "STEPS", need - 1)
        with pytest.raises(InputError, match=f"needs {need} steps"):
            enumerate_operations(size, arity, kind)


def test_scans_charge_their_tail_tuples():
    # one table on one point, but a billion-long tuple of tails to mask with
    for scan in (enumerate_operations, enumerate_affine):
        with pytest.raises(InputError, match="needs 8000000000 bytes"):
            scan(1, 10 ** 9)


# ---------------------------------------------------------------------------
# affine scans

def test_affine_counts():
    assert len(enumerate_affine(3, 2, "sd")) == 3
    assert len(enumerate_affine(3, 2, "rack")) == 2
    assert len(enumerate_affine(5, 2, "rack")) == 4
    assert len(enumerate_affine(4, 3, "rack")) == 8
    assert len(enumerate_affine(4, 3, "quandle")) == 8


def test_affine_ternary_mod3():
    racks = enumerate_affine(3, 3, "rack")
    assert len(racks) == 6
    assert sum(int(o.table.sum()) for o in racks) == 162
    assert flat(racks[0]) == flat(projection_op(3, 3))
    assert flat(racks[-1]) == (0, 2, 1, 1, 0, 2, 2, 1, 0, 1, 0, 2, 2, 1, 0,
                               0, 2, 1, 2, 1, 0, 0, 2, 1, 1, 0, 2)
    for op in racks:
        assert is_rack(op)


def test_affine_always_sd():
    assert len(enumerate_affine(6, 2, "all")) == len(enumerate_affine(6, 2, "sd")) == 6
    for op in enumerate_affine(6, 2, "sd"):
        assert is_nary_distributive(op)


def test_affine_guardrail():
    with pytest.raises(InputError):
        enumerate_affine(100000, 2)


def test_affine_scan_budgets():
    # no table is scanned, so only the stacked tables are charged
    sd, every = (stacked(enumerate_affine(150, 2, kind)) for kind in ("sd", "all"))
    assert np.array_equal(sd, every) and len(every) == 150
    for modulus, arity in ((300, 2), (40, 3), (2, 40)):
        with pytest.raises(InputError, match="bytes"):
            enumerate_affine(modulus, arity)


# ---------------------------------------------------------------------------
# translation-structured scans

def test_rack_scan_matches_full_scan():
    # both entry points run one search, and label its tables apart
    for size, arity in RACK_SHAPES + [(2, 4), (2, 5)]:
        for kind in ("rack", "quandle"):
            struct = enumerate_racks(size, arity, kind).tables
            full = enumerate_operations(size, arity, kind).tables
            assert np.array_equal(struct, full), (size, arity, kind)


def test_rack_scan_ternary_size_3():
    racks = enumerate_racks(3, 3)
    assert len(racks) == 129
    assert sum(int(o.table.sum()) for o in racks) == 3483
    assert flat(racks[0]) == flat(projection_op(3, 3))
    assert flat(racks[-1]) == tuple([2] * 9 + [1] * 9 + [0] * 9)
    rng = random.Random(0x51D)
    for op in rng.sample(racks, 12):
        assert is_rack(op)
    assert len(enumerate_racks(3, 3, "quandle")) == 63


def test_rack_scan_contains_affine_racks():
    racks = {flat(o) for o in enumerate_racks(3, 3)}
    for op in enumerate_affine(3, 3, "rack"):
        assert flat(op) in racks


def test_rack_scan_guardrail():
    with pytest.raises(InputError):
        enumerate_racks(3, 4)
    with pytest.raises(InputError):
        enumerate_racks(3, 3, kind="sd")


def test_rack_scan_size_5():
    # beyond reach of the old raw-candidate guard (120^5 candidates)
    racks = enumerate_racks(5, 2)
    assert len(racks) == 1708
    assert [flat(o) for o in racks] == sorted(flat(o) for o in racks)
    assert flat(racks[0]) == flat(projection_op(5, 2))
    for op in random.Random(5).sample(racks, 10):
        assert is_rack(op)
    assert len(enumerate_racks(5, 2, "quandle")) == 404


def test_rack_scan_work_budget():
    assert limits.STEPS == 2 ** 23
    # refused before any table is built: the bytes of 7!^2 compositions,
    # the steps of 10^7 tail digits
    with pytest.raises(InputError, match="consistency checks"):
        enumerate_racks(7, 2)
    with pytest.raises(InputError, match="consistency checks"):
        enumerate_racks(1, 10 ** 7)
    # refused by the first descent or while searching: the tables fit, the
    # search does not; with 1024 tails the all-identity row is consistent
    # at every level, so (2, 11) runs deep before the budget stops it
    for size, arity in [(6, 2), (2, 6), (4, 3), (2, 11), (3, 8)]:
        with pytest.raises(InputError, match="consistency checks"):
            enumerate_racks(size, arity)


def test_rack_scan_refuses_before_building(run_fresh):
    # the first descent alone, 6 * (3 * 3^11 * (3^11 - 1) / 2 + 3^11) steps,
    # is over the budget, so nothing is built.  The peak is read from
    # VmHWM, which starts afresh at exec, unlike ru_maxrss.
    code = ("from selfdist import InputError, enumerate_racks\n"
            "try:\n"
            "    enumerate_racks(3, 12)\n"
            "except InputError as exc:\n"
            "    print(exc)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM')))\n")
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    message, peak = proc.stdout.splitlines()
    assert "consistency checks" in message and "steps" in message
    assert int(peak) < 60 * 1024, f"peak {int(peak)} KiB"


def test_rack_search_peak_stays_under_its_largest_level(run_fresh):
    # the 5-point rack search's resident peak grows by less than the
    # largest level it charged (about 143 MB), read from VmHWM before and
    # after the search in a fresh process
    code = ("from selfdist import enumerate_operations, limits\n"
            "charged = []\n"
            "charge = limits.charge_bytes\n"
            "limits.charge_bytes = lambda need, what: ("
            "charged.append(need), charge(need, what))\n"
            "def peak():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')"
            " if line.startswith('VmHWM'))\n"
            "before = peak()\n"
            "print(len(enumerate_operations(5, 2, 'rack')), before, peak(), max(charged))\n")
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    count, before, after, largest = map(int, proc.stdout.split())
    assert count == 1708 and largest > 100 * 10 ** 6
    assert (after - before) * 1024 < largest, (before, after, largest)


def test_rack_scan_refusal_bound_is_the_first_descent(monkeypatch):
    # order 2: 2^2 compositions, 2 * 2 * 2 tail actions and preimages and
    # 2 one-digit tails (14), then the first descent: 2 checks at level 0
    # and 2 * (3 * 1 + 1) at level 1 (24 in all), refused up front below
    # that; level 1 holds 2 * 2 rows, which brings the search to 32.  The
    # verdict then charges 150 and 151 steps on its own.
    for budget, need in ((23, 24), (24, 32), (31, 32), (32, 150), (150, 151)):
        monkeypatch.setattr(limits, "STEPS", budget)
        with pytest.raises(InputError, match=f"needs {need} steps"):
            enumerate_racks(2, 2)
    monkeypatch.setattr(limits, "STEPS", 151)
    assert len(enumerate_racks(2, 2)) == 2
    # a quandle's diagonal tails take only the identity: 14, then 1 check at
    # level 0 and 1 * (3 * 1 + 1) at level 1, the whole search; its verdict
    # charges 150 steps
    for budget, need in ((18, 19), (149, 150)):
        monkeypatch.setattr(limits, "STEPS", budget)
        with pytest.raises(InputError, match=f"needs {need} steps"):
            enumerate_racks(2, 2, "quandle")
    monkeypatch.setattr(limits, "STEPS", 150)
    assert len(enumerate_racks(2, 2, "quandle")) == 1


def test_rack_scan_work_budget_is_counted(monkeypatch):
    # order 4: 24^2 compositions, 2 * 24 * 4 tail actions and preimages and
    # 4 one-digit tails up front, then 24 * (3 * level + 1) checks for each
    # of the 241 survivors that a level extends (1 + 24 + 120 + 96)
    need = 24 ** 2 + 2 * 24 * 4 + 4 + 45528
    monkeypatch.setattr(limits, "STEPS", need)
    assert len(enumerate_racks(4, 2)) == 114
    monkeypatch.setattr(limits, "STEPS", need - 1)
    with pytest.raises(InputError):
        enumerate_racks(4, 2)


# ---------------------------------------------------------------------------
# mutually distributive pairs

def test_mutual_pairs_size_2():
    pairs = enumerate_mutual_pairs(2)
    assert len(pairs) == 43
    assert sum(int(a.table.sum() + b.table.sum()) for a, b in pairs) == 172
    assert flat(pairs[0][0]) == flat(pairs[0][1]) == (0, 0, 0, 0)
    assert flat(pairs[-1][0]) == flat(pairs[-1][1]) == (1, 1, 1, 1)


def test_mutual_pairs_size_3():
    pairs = enumerate_mutual_pairs(3)
    assert len(pairs) == 4868
    assert sum(int(a.table.sum() + b.table.sum()) for a, b in pairs) == 87624


def test_mutual_pairs_members_verified():
    pairs = enumerate_mutual_pairs(3)
    rng = random.Random(0x51D)
    for a, b in rng.sample(pairs, 8):
        assert is_nary_distributive(a)
        assert is_nary_distributive(b)
        assert are_mutually_distributive(a, b)


def test_mutual_pairs_complement_fails():
    pairs = {(flat(a), flat(b)) for a, b in enumerate_mutual_pairs(2)}
    sd = enumerate_operations(2, 2, "sd")
    for a in sd:
        for b in sd:
            if (flat(a), flat(b)) not in pairs:
                assert not are_mutually_distributive(a, b)


def test_mutual_pairs_diagonal_present():
    pairs = {(flat(a), flat(b)) for a, b in enumerate_mutual_pairs(2)}
    for op in enumerate_operations(2, 2, "sd"):
        assert (flat(op), flat(op)) in pairs


# ---------------------------------------------------------------------------
# isomorphism testing, against the pairwise permutation search as oracle

def relabel_ref(table, size, arity, perm):
    """Scatter form of a relabeling: new(p a_1, .., p a_k) = p old(a_1, .., a_k)."""
    p = np.asarray(perm)
    new_idx = np.zeros(size ** arity, dtype=np.int64)
    for digits in np.indices((size,) * arity).reshape(arity, -1):
        new_idx = new_idx * size + p[digits]
    out = np.empty(size ** arity, dtype=np.int64)
    out[new_idx] = p[np.asarray(table)]
    return out


def find_isomorphism_ref(op_a, op_b):
    """First permutation in itertools order carrying op_a to op_b, or None."""
    for perm in itertools.permutations(range(op_a.size)):
        if np.array_equal(relabel_ref(op_a.table, op_a.size, op_a.arity, perm),
                          op_b.table):
            return perm
    return None


def isomorphism_classes_ref(ops):
    """Pairwise search: each unclaimed table collects the later isomorphic ones."""
    out, done = [], [False] * len(ops)
    for i, a in enumerate(ops):
        if done[i]:
            continue
        cls = [i]
        for j in range(i + 1, len(ops)):
            if not done[j] and find_isomorphism_ref(a, ops[j]) is not None:
                cls.append(j)
                done[j] = True
        out.append(cls)
    return out


def shuffled_copies(bases, copies, seed):
    """Seeded relabeled copies of each base table, shuffled together."""
    rng = random.Random(seed)
    items = []
    for op in bases:
        for _ in range(copies):
            perm = list(range(op.size))
            rng.shuffle(perm)
            items.append(make_op_table(op.size, op.arity,
                                       relabel_ref(op.table, op.size, op.arity, perm)))
    rng.shuffle(items)
    return items


def enumerated_lists():
    """Every table list this module enumerates, by name.

    The 1708 racks of order 5 are left to the published counts: the pairwise
    oracle would take minutes on them.
    """
    lists = {f"ops-{n}-{k}-{kind}": enumerate_operations(n, k, kind)
             for n, k, kinds in [(1, 2, KINDS), (2, 2, KINDS), (2, 3, KINDS),
                                 (3, 2, KINDS[1:])]
             for kind in kinds}
    lists.update({f"affine-{m}-{k}-{kind}": enumerate_affine(m, k, kind)
                  for m, k, kind in [(3, 2, "sd"), (3, 2, "rack"), (5, 2, "rack"),
                                     (4, 3, "rack"), (4, 3, "quandle"),
                                     (3, 3, "rack"), (6, 2, "sd")]})
    lists.update({f"racks-{n}-{k}-{kind}": enumerate_racks(n, k, kind)
                  for n, k in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]
                  for kind in ("rack", "quandle")})
    return lists


def test_isomorphism_classes_match_pairwise_oracle():
    for name, ops in enumerated_lists().items():
        assert isomorphism_classes(ops) == isomorphism_classes_ref(ops), name


def test_isomorphism_classes_of_shuffled_copies():
    bases = {5: [projection_op(5, 2), core_quandle(cyclic_group(5)),
                 affine_op(5, 2, [2]), affine_op(5, 2, [3])],
             6: [projection_op(6, 2), core_quandle(cyclic_group(6)),
                 conj_quandle(symmetric_group(3)), core_quandle(symmetric_group(3))],
             3: enumerate_racks(3, 3)[:12]}
    for seed, (order, copies) in enumerate([(5, 3), (6, 3), (6, 2), (3, 2)]):
        ops = shuffled_copies(bases[order], copies, seed)
        classes = isomorphism_classes(ops)
        assert classes == isomorphism_classes_ref(ops)
        assert all(c == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)


def test_find_isomorphism_matches_oracle():
    rng = random.Random(0x150)
    pool = [op for ops in enumerated_lists().values() for op in ops if op.size > 1]
    pool += [affine_op(5, 2, [2]), core_quandle(cyclic_group(6)),
             heap_op(cyclic_group(4)), projection_op(4, 3)]
    for _ in range(300):
        a = rng.choice(pool)
        if rng.random() < 0.5:
            perm = list(range(a.size))
            rng.shuffle(perm)
            b = make_op_table(a.size, a.arity,
                              relabel_ref(a.table, a.size, a.arity, perm))
        else:
            same = [op for op in pool if (op.size, op.arity) == (a.size, a.arity)]
            b = rng.choice(same)
        assert find_isomorphism(a, b) == find_isomorphism_ref(a, b)


def test_blocks_smaller_than_one_table(monkeypatch):
    # every permutation in its own block, every table in its own batch
    monkeypatch.setattr(enumeration, "ISO_BLOCK_ENTRIES", 1)
    ops = enumerate_operations(3, 2, "sd")
    assert isomorphism_classes(ops) == isomorphism_classes_ref(ops)
    ops = shuffled_copies([core_quandle(cyclic_group(4)), projection_op(4, 2),
                           affine_op(4, 2, [3])], 3, 7)
    assert isomorphism_classes(ops) == isomorphism_classes_ref(ops)
    for a in ops:
        for b in ops[:3]:
            assert find_isomorphism(a, b) == find_isomorphism_ref(a, b)


def test_size_8_ternary_through_blocks():
    heap = heap_op(cyclic_group(8))
    a = relabel(heap, (3, 1, 4, 0, 7, 5, 2, 6))
    b = relabel(heap, (7, 6, 5, 4, 3, 2, 1, 0))
    other = relabel(heap_op(dihedral_group(4)), (1, 0, 3, 2, 5, 4, 7, 6))
    entries = 8 ** 3
    # the 40320 relabelings of one table span several blocks
    assert math.factorial(8) * entries > 8 * enumeration.ISO_BLOCK_ENTRIES
    assert isomorphism_classes([a, other, b, heap]) == [[0, 2, 3], [1]]
    perm = find_isomorphism(a, b)
    assert perm == find_isomorphism_ref(a, b)
    assert relabel(a, perm) == b
    assert find_isomorphism(a, other) is None
    # a table with few symmetries, moved so that its first isomorphism lies
    # in a later block
    rng = np.random.default_rng(8)
    c = make_op_table(8, 3, rng.integers(0, 8, entries))
    perm = (4, 6, 0, 1, 2, 3, 7, 5)
    d = relabel(c, perm)
    assert find_isomorphism(c, d) == find_isomorphism_ref(c, d) == perm


def least_relabeling_ref(tables, size, arity):
    """The lexicographically least of the N! relabelings of each flat table,
    as uint8 rows, every relabeling built at once: row p of a table's block
    is the table relabeled along the p-th permutation in itertools order,
    and a row read as one opaque item sorts by its bytes."""
    entries = size ** arity
    tables = np.asarray(tables, dtype=np.uint8).reshape(-1, entries)
    perms = np.array(list(itertools.permutations(range(size))), dtype=np.uint8)
    inverse = np.argsort(perms, axis=1)
    # src[p, v]: the entry that perms[p] carries to entry v
    src = np.zeros((len(perms), entries), dtype=np.int64)
    for digit in np.indices((size,) * arity).reshape(arity, -1):
        src = src * size + inverse[:, digit]
    blocks = np.ascontiguousarray(perms[np.arange(len(perms))[:, None], tables[:, src]])
    least = np.sort(blocks.view(f"V{entries}")[..., 0], axis=1)[:, 0]
    return np.ascontiguousarray(least).view(np.uint8).reshape(-1, entries)


def words_ref(row, size):
    """A flat table's words: runs of c entries, c the most with
    size^c < 2^63, each read as a base-size number, the last padded with
    zeros."""
    c = min(len(row), max(c for c in range(1, 64) if size ** c < 2 ** 63))
    codes = []
    for lo in range(0, len(row), c):
        word = [int(v) for v in row[lo:lo + c]]
        codes.append(functools.reduce(lambda code, v: code * size + v,
                                      word + [0] * (c - len(word)), 0))
    return codes


def assert_matches_least_ref(ops):
    """Keys word by word and classes against the N! least relabelings."""
    size, arity = ops[0].size, ops[0].arity
    tables = [op.table for op in ops]
    least = least_relabeling_ref(tables, size, arity)
    keys, _ = enumeration._least_words(np.array(tables, dtype=np.uint8), size, arity,
                                       "a test")
    assert keys.tolist() == [words_ref(row, size) for row in least]
    classes = {}
    for i, row in enumerate(least):
        classes.setdefault(row.tobytes(), []).append(i)
    assert isomorphism_classes(ops) == list(classes.values())


def test_keys_match_least_relabeling_oracle():
    for ops in enumerated_lists().values():
        if len(ops):
            assert_matches_least_ref(list(ops))


def test_moved_sources_match_whole_tuples():
    # `_moved` reads a span's sources as a moved head plus moved low
    # digits; each equals the whole tuple moved digit by digit, on spans
    # of every length, aligned or not, and at arities far past the span
    rng = np.random.default_rng(11)
    for size, arity in ((1, 4), (2, 5), (2, 20), (3, 4), (5, 3), (7, 2), (8, 3)):
        inverse = enumeration._relabelers(size)[1]
        rows = inverse[rng.choice(len(inverse), min(len(inverse), 5), replace=False)]
        entries = size ** arity
        whole = digit_map(rows, size, arity)
        spans = [(0, entries), (entries - 1, entries), (0, 1)]
        for _ in range(8):
            lo = int(rng.integers(0, entries))
            spans.append((lo, int(rng.integers(lo + 1, min(entries, lo + 70_000) + 1))))
        for lo, hi in spans:
            assert np.array_equal(enumeration._moved(rows, lo, hi, size, arity),
                                  whole[:, lo:hi]), (size, arity, lo, hi)


def test_random_tables_match_least_relabeling_oracle():
    # seeded random tables and relabeled copies of some of them, on 2 to 6
    # points at arity 2 and 3, in one or several words (6 points at arity 3
    # is 216 entries, 9 words of 24)
    rng = random.Random(0x28)
    for size in range(2, 7):
        for arity in (2, 3):
            nprng = np.random.default_rng(100 * size + arity)
            bases = [make_op_table(size, arity, nprng.integers(0, size, size ** arity))
                     for _ in range(4)]
            ops = bases + shuffled_copies(bases[:2], 2, 10 * size + arity)
            rng.shuffle(ops)
            assert_matches_least_ref(ops)
            for a, b in zip(ops, ops[1:] + ops[:1]):
                assert find_isomorphism(a, b) == find_isomorphism_ref(a, b)


def test_projections_tie_in_every_word():
    # every relabeling of a projection is the projection, so all N! pairs
    # stay tied through every word and the first isomorphism is the identity
    for size, arity in ((2, 7), (3, 4), (4, 3), (5, 2), (6, 3)):
        entries = size ** arity
        for axis in range(arity):
            table = np.indices((size,) * arity).reshape(arity, -1)[axis]
            op = make_op_table(size, arity, table)
            assert_matches_least_ref([op, op])
            keys, pairs = enumeration._least_words(
                op.table.astype(np.uint8)[None], size, arity, "a test",
                np.array([words_ref(op.table, size)]))
            assert len(keys[0]) == -(-entries // min(entries, max(
                c for c in range(1, 64) if size ** c < 2 ** 63)))
            assert pairs.tolist() == list(range(math.factorial(size)))
            assert find_isomorphism(op, op) == tuple(range(size))


def test_least_forms_agree_on_word_0_and_differ_later():
    # on 2 points at arity 7 a table is 128 entries, words of 62, 62 and 4;
    # the swap carries entry v to 127 - v.  Both tables start 0, 0 and end
    # 0, so the swap makes either larger at entry 0 or 1: each is its own
    # least form, and the two differ only in entry 127, in the last word
    nprng = np.random.default_rng(7)
    first = nprng.integers(0, 2, 128)
    first[[0, 1, 126, 127]] = 0
    second = first.copy()
    second[127] = 1
    a, b = make_op_table(2, 7, first), make_op_table(2, 7, second)
    moved = relabel(b, (1, 0))
    least = least_relabeling_ref([a.table, b.table], 2, 7)
    assert np.array_equal(least[0], first) and np.array_equal(least[1], second)
    words = [words_ref(row, 2) for row in least]
    assert words[0][:2] == words[1][:2] and words[0][2] != words[1][2]
    assert_matches_least_ref([a, b, moved])
    assert isomorphism_classes([a, b, moved]) == [[0], [1, 2]]
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(b, moved) == (1, 0)


def test_ties_on_word_0_broken_later_at_any_block(monkeypatch):
    # on 3 points at arity 4 (81 entries, words of 39, 39 and 3) a table
    # that is 0 but for a 2 at (1, 1, 1, 2) ties on word 0 with its
    # relabeling along (0, 2, 1), which is 0 but for a 1 at (2, 2, 2, 1)
    # and is the least.  With four random tables, each block size below
    # relabels the words one at a time, all at once, or word 0 and then
    # the last two together
    table = np.zeros(81, dtype=np.int64)
    table[tuple_to_index((1, 1, 1, 2), 3)] = 2
    tied = make_op_table(3, 4, table)
    nprng = np.random.default_rng(34)
    ops = [tied] + [make_op_table(3, 4, nprng.integers(0, 3, 81)) for _ in range(4)]
    ops.append(relabel(tied, (1, 2, 0)))
    least = least_relabeling_ref([tied.table], 3, 4)[0]
    assert np.array_equal(least, relabel(tied, (0, 2, 1)).table)
    for block in (1, 6 * 5 * 39, enumeration.ISO_BLOCK_ENTRIES):
        monkeypatch.setattr(enumeration, "ISO_BLOCK_ENTRIES", block)
        assert_matches_least_ref(ops)
        for a in ops:
            assert find_isomorphism(tied, a) == find_isomorphism_ref(tied, a)


def test_alexander_quandle_on_9_points():
    # x * y = 2x - y on Z9 against a relabeled copy: word 0 along the 9!
    # permutations (574,563 steps), then the last words on the few pairs
    # left; listing 9! is charged on its own, 19 steps each.  The pairs
    # carrying one onto the other are a coset of Aut, 54 affine maps
    z9 = make_op_table(9, 2, lambda x, y: 2 * x - y)
    copy = relabel(z9, (4, 7, 1, 8, 0, 3, 6, 2, 5))
    perm = find_isomorphism(z9, copy)
    assert relabel(z9, perm) == copy
    _, pairs = enumeration._least_words(z9.table.astype(np.uint8)[None], 9, 2, "a test",
                                        np.array([words_ref(copy.table, 9)]))
    assert len(pairs) == 54
    assert find_isomorphism(z9, projection_op(9, 2)) is None


def test_projection_on_9_points_is_answered(monkeypatch):
    # every one of the 9! relabelings ties in all 5 words (19 entries each,
    # 5 in the last), so the search relabels all 81 entries along each:
    # 2,449,443 steps with 3 for the table, within the budget
    op = projection_op(9, 2)
    perms = math.factorial(9)
    need = 3 + 4 * (perms * 19 // 12) + perms * 5 // 12
    assert need == 2_449_443
    enumeration._relabelers(9)
    monkeypatch.setattr(limits, "STEPS", need)
    assert find_isomorphism(op, op) == tuple(range(9))
    monkeypatch.setattr(limits, "STEPS", need - 1)
    with pytest.raises(InputError, match=f"needs {need} steps"):
        find_isomorphism(op, op)


def test_published_counts_up_to_isomorphism():
    # racks and quandles of orders 3, 4, 5 (Vojtechovsky-Yang, arXiv:1805.05908)
    for size, racks, quandles in [(3, 6, 3), (4, 19, 7), (5, 74, 22)]:
        assert len(isomorphism_classes(enumerate_racks(size, 2))) == racks
        assert len(isomorphism_classes(enumerate_racks(size, 2, "quandle"))) == quandles
    # all 256 ternary tables on 2 points fall into 136 orbits under the swap
    # (Burnside: (256 + 16) / 2)
    assert len(isomorphism_classes(enumerate_operations(2, 3, "all"))) == 136


def test_find_isomorphism_positive():
    a = make_op_table(3, 2, [0, 0, 0, 1, 2, 2, 2, 1, 1])
    b = make_op_table(3, 2, [1, 1, 0, 0, 0, 1, 2, 2, 2])
    assert find_isomorphism(a, b) == (2, 0, 1)
    assert tables_isomorphic(b, a)
    # more arguments than numpy has array dimensions
    one = OpTable(1, 70, [0])
    assert relabel(one, [0]) == one
    assert find_isomorphism(one, one) == (0,)
    assert isomorphism_classes([one, one]) == [[0, 1]]


def test_functor_order_matters_up_to_isomorphism():
    # the two orderings of (x, 2y - x) on Z_3 feed to different ternary
    # tables that no relabeling identifies
    ta = make_op_table(3, 3, lambda x, y, z: 2 * z - x)
    tb = make_op_table(3, 3, lambda x, y, z: 2 * y - x)
    assert flat(ta) != flat(tb)
    assert not tables_isomorphic(ta, tb)


def test_dihedral_not_trivial():
    dih = make_op_table(3, 2, lambda x, y: 2 * y - x)
    assert not tables_isomorphic(dih, projection_op(3, 2))
    assert tables_isomorphic(dih, dih)


def test_isomorphism_classes_of_small_racks():
    cls = isomorphism_classes(enumerate_operations(3, 2, "rack"))
    assert len(cls) == 6
    assert sorted(len(c) for c in cls) == [1, 1, 2, 3, 3, 3]
    cls_q = isomorphism_classes(enumerate_operations(3, 2, "quandle"))
    assert len(cls_q) == 3


def test_isomorphism_guardrails():
    with pytest.raises(InputError):
        find_isomorphism(projection_op(2, 2), projection_op(2, 3))
    with pytest.raises(InputError):
        find_isomorphism(projection_op(3, 2), projection_op(2, 2))
    with pytest.raises(InputError):
        find_isomorphism(projection_op(10, 2), projection_op(10, 2))


def _random_tables(count, size, arity, seed):
    rng = np.random.default_rng(seed)
    return [OpTable(size, arity, rng.integers(0, size, size ** arity))
            for _ in range(count)]


def test_isomorphism_search_is_refused_before_relabeling(monkeypatch):
    # 200 binary tables on 8 points: word 0, 20 entries, along each of the
    # 8! permutations of each table, 13.4M steps with 3 a table, refused
    # before any permutation is listed
    called = []
    for lister in ("_permutations", "_relabelers"):
        monkeypatch.setattr(enumeration, lister, lambda size: called.append(size))
    ops = _random_tables(200, 8, 2, 200)
    need = 200 * math.factorial(8) * 20 // 12 + 3 * 200
    for tables in (ops, TableStack(8, 2, [op.table for op in ops])):
        with pytest.raises(InputError, match=(
                "refusing isomorphism search over 200 x 8! relabelings:"
                f" needs {need} steps, budget {limits.STEPS}")):
            isomorphism_classes(tables)
    # one binary table on 10 points: word 0, 18 entries, fits the steps
    # (5.4M), but its 10! codes and tied pairs (64 bytes each) and the
    # listing of 10! (160 each) do not fit the bytes
    perms = math.factorial(10)
    need = 224 * perms + 2 * 100 + 8 * 6 + 64 * enumeration.ISO_BLOCK_ENTRIES
    with pytest.raises(InputError, match=f"needs {need} bytes"):
        find_isomorphism(projection_op(10, 2), projection_op(10, 2))
    assert called == []


def test_isomorphism_search_charges(monkeypatch):
    # listing the 4! permutations, the first time: 19 steps each, charged
    # after the search's own first charge (35 steps for the one table below)
    enumeration._relabelers.cache_clear()
    racks = enumerate_racks(4, 2)
    listing = "listing the 4! permutations of the carrier: needs 456 steps"
    monkeypatch.setattr(limits, "STEPS", 455)
    with pytest.raises(InputError, match=listing):
        find_isomorphism(racks[0], racks[1])
    monkeypatch.setattr(limits, "STEPS", 456)
    assert find_isomorphism(racks[0], racks[1]) is None
    monkeypatch.undo()
    # listed now: one word of 16 entries, one step per 12 relabeled and 3 a
    # table; in bytes the uint8 tables twice, 160 a permutation, 8 a key
    # word, the kept source map (8 an entry of each relabeling) and a block
    # of ISO_BLOCK_ENTRIES at 64 bytes an entry; then 8 (3 + 1) a pair for
    # its index, table, permutation and code when the word is the last,
    # else 8 (5 + 3) with the ties kept
    fixed = 160 * 24 + 8 * 24 * 16 + 64 * enumeration.ISO_BLOCK_ENTRIES
    for call, steps, size in (
            (lambda: isomorphism_classes(racks), 3 * 114 + 114 * 24 * 16 // 12,
             fixed + 2 * 114 * 16 + 8 * 114 + 32 * 114 * 24),
            (lambda: find_isomorphism(racks[0], racks[1]), 3 + 24 * 16 // 12,
             fixed + 2 * 16 + 8 + 64 * 24)):
        for budget, need, unit in (("STEPS", steps, "steps"),
                                   ("BYTES", size, "bytes")):
            monkeypatch.setattr(limits, budget, need)
            call()
            monkeypatch.setattr(limits, budget, need - 1)
            with pytest.raises(InputError, match=f"needs {need} {unit}"):
                call()
            monkeypatch.undo()


def test_isomorphism_charge_covers_its_arrays(monkeypatch):
    # the permutation list, listed afresh, the uint8 tables and the largest
    # block stay within the bytes charged; the allowance is for the few
    # Python objects of a call
    charged = []
    charge = limits.charge_bytes
    monkeypatch.setattr(limits, "charge_bytes",
                        lambda need, what: charged.append(need) or charge(need, what))
    racks, wide = enumerate_racks(5, 2), _random_tables(3, 2, 20, 2)
    a, b = _random_tables(2, 7, 3, 7)
    for call in (lambda: isomorphism_classes(racks),
                 lambda: isomorphism_classes(wide),
                 lambda: find_isomorphism(a, b)):
        enumeration._permutations.cache_clear()
        charged.clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charged[-1] + 64 * 1024, (peak, charged)


def test_isomorphism_charge_covers_a_first_listing(monkeypatch):
    # the permutations are listed by the first search on a size, after
    # its first charge, which covers the listing (160 bytes a permutation)
    # with everything else the search holds: on 9 points, the list of 9!
    # tuples is the larger part
    charged = []
    charge = limits.charge_bytes
    monkeypatch.setattr(limits, "charge_bytes",
                        lambda need, what: charged.append(need) or charge(need, what))
    a, b = _random_tables(2, 9, 2, 9)
    enumeration._permutations.cache_clear()
    enumeration._relabelers.cache_clear()
    tracemalloc.start()
    try:
        find_isomorphism(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charged) + 64 * 1024, (peak, charged)


def test_isomorphism_charge_calibration(monkeypatch):
    # seconds per charged step, best of three, on the inputs of classes
    # that charge at least 2000 steps (below that the fixed cost of a call
    # dominates), on the 8-point cases of test_size_8_ternary_through_blocks,
    # on a stack of 100,000 tables on 2 points, priced mostly by their 3
    # steps a table, and on three random tables of arity 20 on 2 points,
    # too wide for a kept source map, so that `_moved` computes the sources
    # of every span: every rate lies within a factor 3 of their median
    # (40-110 ns a step on a 2-core Xeon).  Listing the 8! permutations lies
    # at or below that band (about 30 ns a step there).
    charged = []
    charge = limits.charge_steps
    monkeypatch.setattr(limits, "charge_steps",
                        lambda need, what: charged.append(need) or charge(need, what))
    heap = heap_op(cyclic_group(8))
    a = relabel(heap, (3, 1, 4, 0, 7, 5, 2, 6))
    other = relabel(heap_op(dihedral_group(4)), (1, 0, 3, 2, 5, 4, 7, 6))
    order6 = [projection_op(6, 2), core_quandle(cyclic_group(6)),
              conj_quandle(symmetric_group(3)), core_quandle(symmetric_group(3))]
    rng = np.random.default_rng(6)
    copies = [relabel(q, rng.permutation(6)) for q in order6 for _ in range(3)]
    inputs = {"racks on 4": enumerate_racks(4, 2),
              "affine racks mod 5": enumerate_affine(5, 3, "rack"),
              "copies of order 6": copies,
              "racks on 5": enumerate_racks(5, 2),
              "quandles on 5": enumerate_racks(5, 2, "quandle"),
              "4 ternary on 8": [a, other, heap, a],
              "stack on 2": TableStack(2, 2, rng.integers(0, 2, (100_000, 4))),
              "arity 20 on 2": [OpTable(2, 20, rng.integers(0, 2, 2 ** 20))
                                for _ in range(3)]}
    calls = {name: functools.partial(isomorphism_classes, ops)
             for name, ops in inputs.items()}
    calls["no isomorphism on 8"] = functools.partial(find_isomorphism, a, other)
    # the permutation lists are cached, so the searches above list none
    calls["listing 8!"] = lambda: (enumeration._permutations.cache_clear(),
                                   enumeration._relabelers.__wrapped__(8))
    rates = {}
    for name, call in calls.items():
        best = math.inf
        for _ in range(3):
            charged.clear()
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        rates[name] = best / charged[-1]
    ns = {name: round(r * 1e9) for name, r in rates.items()}
    listing = rates.pop("listing 8!")
    median = float(np.median(list(rates.values())))
    assert all(median / 3 <= r <= 3 * median for r in rates.values()), ns
    assert listing <= 3 * median, ns
