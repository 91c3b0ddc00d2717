import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from selfdist import (InputError, OpTable, TableStack, affine_op,
                      are_mutually_distributive,
                      conj_quandle, core_quandle, cyclic_group, dihedral_group,
                      heap_op, is_nary_distributive, is_quandle, is_rack,
                      make_op_table, projection_op, relabel, symmetric_group,
                      tuple_to_index)
from selfdist import enumeration, limits
from selfdist.enumeration import (KINDS, enumerate_affine, enumerate_mutual_pairs,
                                  enumerate_operations, enumerate_racks,
                                  find_isomorphism, isomorphism_classes,
                                  tables_isomorphic)


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


def test_mutual_pairs_match_loop_oracle(monkeypatch):
    for size in (1, 2, 3):
        ops = enumerate_operations(size, 2, "sd")
        S = np.stack([op.table for op in ops])
        want = [(flat(ops[i]), flat(ops[j]))
                for i, j in np.argwhere(mutual_mask_ref(S, size))]
        # the default bands, bands of one row, and on 3 points (224 tables
        # of 9 entries) bands of five rows with a shorter last band
        for entries in (enumeration.PAIR_BLOCK_ENTRIES, 1, 5 * 224 * 9):
            monkeypatch.setattr(enumeration, "PAIR_BLOCK_ENTRIES", entries)
            got = [(flat(a), flat(b)) for a, b in enumerate_mutual_pairs(size)]
            assert got == want, (size, entries)


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
    with pytest.raises(InputError):
        enumerate_operations(4, 2)
    with pytest.raises(InputError):
        enumerate_operations(3, 3)
    with pytest.raises(InputError):
        enumerate_operations(2, 2, kind="proper")


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
    for size, arity in [(2, 2), (3, 2), (2, 3)]:
        struct = [flat(o) for o in enumerate_racks(size, arity)]
        full = [flat(o) for o in enumerate_operations(size, arity, "rack")]
        assert struct == full


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
    # refused before any table is built: 7!^2 compositions, 10^7 tail digits
    with pytest.raises(InputError, match="consistency checks"):
        enumerate_racks(7, 2)
    with pytest.raises(InputError, match="consistency checks"):
        enumerate_racks(1, 10 ** 7)
    # refused while searching: the tables fit, the search does not; with
    # 1024 and 2187 tails the all-identity branch is consistent at every
    # level, so (2, 11) and (3, 8) run deep before the budget stops them
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


def test_rack_scan_refusal_bound_is_the_first_descent(monkeypatch):
    # order 2: 2^2 compositions, 2 * 2 * 2 tail actions and 2 one-digit
    # tails (14), then the first descent: 2 checks at level 0 and
    # 2 * (3 * 1 + 1) on entering level 1 (24 in all), refused up front
    # below that; the second branch at level 1 brings the search to 32
    for budget, need in ((23, 24), (24, 32), (31, 32)):
        monkeypatch.setattr(limits, "STEPS", budget)
        with pytest.raises(InputError, match=f"needs {need} steps"):
            enumerate_racks(2, 2)
    monkeypatch.setattr(limits, "STEPS", 32)
    assert len(enumerate_racks(2, 2)) == 2


def test_rack_scan_work_budget_is_counted(monkeypatch):
    # order 4: 24^2 compositions, 2 * 24 * 4 tail actions and 4 one-digit
    # tails up front, then 24 * (3 * level + 1) checks at each of the 241
    # inner nodes of the search
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
        find_isomorphism(projection_op(9, 2), projection_op(9, 2))
