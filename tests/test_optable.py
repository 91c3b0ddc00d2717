import itertools
import random
import time

import numpy as np
import pytest

from selfdist import (FiniteGroup, InputError, OpTable, are_compatible_ternary,
                      are_mutually_distributive, cyclic_group, dihedral_group,
                      direct_product, evaluate, exchange_holds, group_from_cayley,
                      heap_op, heap_vs_core_directional, inverse_translations,
                      is_nary_distributive, is_quandle, is_rack, relabel,
                      symmetric_group)
from selfdist import kernels, limits
from selfdist.enumeration import enumerate_racks
from formulas import make_op_table

DIHEDRAL3 = [0, 2, 1, 2, 1, 0, 1, 0, 2]  # x*y = 2y-x mod 3


def z8_ternary():
    return make_op_table(8, 3, lambda x, y, z: 3 * x + 2 * y + 4 * z)


def test_make_op_table_validation():
    with pytest.raises(InputError):
        make_op_table(2, 2, [0, 1, 1])          # length 3 != 4
    with pytest.raises(InputError):
        make_op_table(2, 2, [0, 1, 1, 2])       # entry out of range
    with pytest.raises(InputError):
        OpTable(2, 1, [0, 1])                   # arity below 2
    assert make_op_table(1, 3, [0]).size == 1


def test_non_integer_entries_rejected():
    # truncation would turn [0.7, 1.2, 0, 1] into the different table [0, 1, 0, 1]
    for table in ([0.7, 1.2, 0, 1], [0.0, 1.0, 0.0, 1.0], [True, False, False, True],
                  np.array([0, 1, 0, 1], dtype=np.float32), ["0", "1", "0", "1"],
                  [0, 1, 0, 10 ** 30], [0, True, 1, 0], [[0, 1], [False, 1]]):
        with pytest.raises(InputError, match="integers"):
            OpTable(2, 2, table)
    with pytest.raises(InputError):
        OpTable.from_json({"size": 2, "arity": 2, "table": [0.7, 1.2, 0, 1]})
    # a bool is found at any depth, behind mixed lists and tuples, and in a
    # row after rows without one; the same nesting without it is accepted
    for table in ([[[0], [1]], [[0], [True]]], ([0, 1], (1, False)),
                  [[0, 1], [[1], False]], [(0, 1), [[1, 0]], [[[[True]]]]]):
        with pytest.raises(InputError, match="integers, got booleans"):
            OpTable(2, 2, table)
    assert OpTable(2, 2, [[[0], [1]], ([0], [1])]) == make_op_table(2, 2, [0, 1, 0, 1])
    for dtype in (np.uint8, np.int32, np.uint64):
        assert make_op_table(2, 2, np.array([0, 1, 0, 1], dtype=dtype)) == \
            make_op_table(2, 2, [0, 1, 0, 1])


def test_index_convention_first_argument_most_significant():
    rng = random.Random(2)
    entries = [rng.randrange(3) for _ in range(9)]
    op = make_op_table(3, 2, entries)
    for a in range(3):
        for b in range(3):
            assert evaluate(op, (a, b)) == entries[3 * a + b]
    # callable fill walks tuples in the same order
    fn = make_op_table(2, 3, lambda x, y, z: x + z)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert fn.table[4 * x + 2 * y + z] == (x + z) % 2


def test_evaluate_examples():
    assert evaluate(z8_ternary(), (1, 2, 3)) == 3
    heap3 = make_op_table(3, 3, lambda x, y, z: x - y + z)
    assert evaluate(heap3, (1, 2, 0)) == 2
    one = make_op_table(1, 3, [0])
    assert evaluate(one, (0, 0, 0)) == 0


def test_evaluate_errors():
    op = make_op_table(2, 2, [0, 0, 1, 1])
    with pytest.raises(InputError):
        evaluate(op, (0,))
    with pytest.raises(InputError):
        evaluate(op, (0, 2))


def test_distributive_z8_affine():
    assert is_nary_distributive(z8_ternary())


def test_distributive_projection_all_arities():
    for size in (1, 2, 3, 4):
        for arity in (2, 3, 4):
            table = np.repeat(np.arange(size), size ** (arity - 1))
            assert is_nary_distributive(OpTable(size, arity, table))


def test_distributive_counterexample_frozen():
    res = is_nary_distributive(make_op_table(3, 2, lambda x, y: x + y))
    assert not res
    assert res.counterexample.witness == (0, 0, 1)
    assert res.counterexample.lhs == 1
    assert res.counterexample.rhs == 2


def test_counterexample_reevaluates():
    rng = random.Random(7)
    found = 0
    while found < 12:
        size = rng.randrange(2, 5)
        arity = rng.choice((2, 3))
        table = make_op_table(size, arity,
                              [rng.randrange(size) for _ in range(size ** arity)])
        res = is_nary_distributive(table)
        if res:
            continue
        found += 1
        cex = res.counterexample
        x, rest = cex.witness[0], cex.witness[1:]
        y, z = rest[:arity - 1], rest[arity - 1:]
        lhs = evaluate(table, (evaluate(table, (x,) + y),) + z)
        rhs = evaluate(table, (evaluate(table, (x,) + z),)
                       + tuple(evaluate(table, (yj,) + z) for yj in y))
        assert (lhs, rhs) == (cex.lhs, cex.rhs)
        assert lhs != rhs


def test_counterexample_is_lexicographically_first():
    rng = random.Random(19)
    for _ in range(60):
        size = rng.randrange(2, 4)
        arity = rng.choice((2, 3))
        table = make_op_table(size, arity,
                              [rng.randrange(size) for _ in range(size ** arity)])
        res = is_nary_distributive(table)
        if res:
            continue
        # naive scan must find the same tuple first
        import itertools
        for tup in itertools.product(range(size), repeat=2 * arity - 1):
            x, y, z = tup[0], tup[1:arity], tup[arity:]
            lhs = evaluate(table, (evaluate(table, (x,) + y),) + z)
            rhs = evaluate(table, (evaluate(table, (x,) + z),)
                           + tuple(evaluate(table, (yj,) + z) for yj in y))
            if lhs != rhs:
                assert tup == res.counterexample.witness
                break


def test_is_rack():
    assert is_rack(make_op_table(3, 2, DIHEDRAL3))
    assert is_rack(z8_ternary())
    res = is_rack(make_op_table(4, 2, lambda x, y: 2 * y))
    assert not res


def test_is_quandle():
    assert is_quandle(make_op_table(3, 2, DIHEDRAL3))
    assert is_quandle(z8_ternary())  # 3+2+4 = 9 = 1 mod 8
    shifted = make_op_table(2, 2, lambda x, y: x + 1)
    assert is_rack(shifted)
    res = is_quandle(shifted)
    assert not res
    assert res.counterexample.witness == (0, 0)
    assert res.counterexample.lhs == 1 and res.counterexample.rhs == 0


def test_mutual_product_pair():
    d = make_op_table(3, 2, DIHEDRAL3)
    op0 = make_op_table(9, 2, lambda a, b: (evaluate(d, (a // 3, b // 3))) * 3 + a % 3)
    op1 = make_op_table(9, 2, lambda a, b: (a // 3) * 3 + evaluate(d, (a % 3, b % 3)))
    assert are_mutually_distributive(op0, op1)


def test_mutual_power_pair_dihedral_z5():
    d = make_op_table(5, 2, lambda x, y: 2 * y - x)
    d2 = make_op_table(5, 2, lambda x, y: evaluate(d, (evaluate(d, (x, y)), y)))
    assert are_mutually_distributive(d, d2)


def test_mutual_self_reduces_to_distributivity():
    rng = random.Random(11)
    for _ in range(40):
        size = rng.randrange(2, 4)
        arity = rng.choice((2, 3))
        table = make_op_table(size, arity,
                              [rng.randrange(size) for _ in range(size ** arity)])
        mu = are_mutually_distributive(table, table)
        sd = is_nary_distributive(table)
        assert bool(mu) == bool(sd)
        if not mu:
            assert mu.counterexample == sd.counterexample


def test_mutual_size_mismatch():
    with pytest.raises(InputError):
        are_mutually_distributive(make_op_table(2, 2, [0] * 4),
                                  make_op_table(3, 2, [0] * 9))


def test_compatible_z8_pair():
    T1 = make_op_table(8, 3, lambda x, y, z: -x + 2 * y)
    assert are_compatible_ternary(z8_ternary(), T1)


def test_compatible_self_reduces_to_distributivity():
    rng = random.Random(13)
    for _ in range(30):
        size = rng.randrange(2, 4)
        table = make_op_table(size, 3,
                              [rng.randrange(size) for _ in range(size ** 3)])
        assert bool(are_compatible_ternary(table, table)) == \
            bool(is_nary_distributive(table))


def test_compatible_failure_frozen():
    A = make_op_table(4, 3, lambda x, y, z: 0 * x + 1 * y + 0 * z)  # (t,s)=(0,1)
    B = make_op_table(4, 3, lambda x, y, z: 0 * x + 3 * y + 2 * z)  # (t,s)=(0,3)
    res = are_compatible_ternary(A, B)
    assert not res
    assert res.counterexample.witness == (0, 0, 0, 0, 1)
    assert (res.counterexample.lhs, res.counterexample.rhs) == (2, 0)
    assert "identity 2" in res.detail


def test_compatible_arity_errors():
    with pytest.raises(InputError):
        are_compatible_ternary(make_op_table(2, 2, [0] * 4),
                               make_op_table(2, 3, [0] * 8))


def test_heap_vs_core_directions():
    assert heap_vs_core_directional(symmetric_group(3)) == (True, False)
    assert heap_vs_core_directional(cyclic_group(1)) == (True, True)
    assert heap_vs_core_directional(cyclic_group(2)) == (True, True)
    assert heap_vs_core_directional(cyclic_group(4)) == (True, True)


def test_relabel_preserves_axioms():
    rng = random.Random(23)
    d = make_op_table(3, 2, DIHEDRAL3)
    t8 = z8_ternary()
    for op in (d, t8):
        perm = list(range(op.size))
        rng.shuffle(perm)
        moved = relabel(op, perm)
        assert is_nary_distributive(moved)
        assert is_quandle(moved)
    # non-distributive tables stay non-distributive under relabeling
    bad = make_op_table(3, 2, lambda x, y: x + y)
    perm = [2, 0, 1]
    assert not is_nary_distributive(relabel(bad, perm))


def test_relabel_formula():
    op = make_op_table(3, 2, DIHEDRAL3)
    perm = [1, 2, 0]
    moved = relabel(op, perm)
    for a in range(3):
        for b in range(3):
            assert evaluate(moved, (perm[a], perm[b])) == perm[evaluate(op, (a, b))]


def test_relabel_matches_scatter_formula():
    # new[p a_1, .., p a_k] = p old[a_1, .., a_k], written as a scatter
    rng = np.random.default_rng(31)
    for size, arity in [(1, 2), (2, 3), (3, 2), (4, 3), (5, 2), (3, 4)]:
        table = rng.integers(0, size, size ** arity)
        perm = rng.permutation(size)
        new_idx = np.zeros(size ** arity, dtype=np.int64)
        for digits in np.indices((size,) * arity).reshape(arity, -1):
            new_idx = new_idx * size + perm[digits]
        want = np.empty_like(table)
        want[new_idx] = perm[table]
        assert np.array_equal(relabel(OpTable(size, arity, table), perm).table, want)


def test_inverse_translations_roundtrip():
    op = z8_ternary()
    inv = inverse_translations(op)
    inner = op.table.reshape(8, 64)
    for tail in range(64):
        assert np.array_equal(inner[inv[tail], tail], np.arange(8))
    with pytest.raises(InputError):
        inverse_translations(make_op_table(4, 2, lambda x, y: 2 * y))


def inverse_translations_loop(op):
    """The per-tail loop: inv[tail, W(x, tail)] = x for every x."""
    N, P = op.size, op.size ** (op.arity - 1)
    cols = op.table.reshape(N, P)
    inv = np.empty((P, N), np.int64)
    for tail in range(P):
        inv[tail, cols[:, tail]] = np.arange(N)
    return inv


def test_inverse_translations_match_the_loop():
    ops = [op for size in (1, 2, 3) for arity in (2, 3)
           for op in enumerate_racks(size, arity)]
    assert len(ops) == 1 + 1 + 2 + 4 + 13 + 129
    ops.append(heap_op(symmetric_group(3)))
    for op in ops:
        got = inverse_translations(op)
        assert got.dtype == np.int64
        assert np.array_equal(got, inverse_translations_loop(op))


def test_group_validation():
    g = symmetric_group(3)
    assert g.size == 6
    assert g.mul(g.inv(4), 4) == g.identity
    assert dihedral_group(4).size == 8
    with pytest.raises(InputError):
        group_from_cayley([0, 1, 1, 1], size=2)    # 1 has no inverse
    with pytest.raises(InputError):
        group_from_cayley([1, 0, 0, 0], size=2)    # no identity row/col pair
    with pytest.raises(InputError):
        group_from_cayley([0, 1, 2, 3], size=2)    # out of range


def test_group_names_least_element_without_inverse():
    # multiplication mod 6 is an associative table with identity 1, where
    # 0, 2, 3 and 4 have no inverse; relabeled, the least of their labels
    # is named, not the label of the least old element
    C = np.arange(6)[:, None] * np.arange(6) % 6
    for perm in ([5, 0, 3, 2, 4, 1], [3, 4, 0, 1, 2, 5], [0, 1, 2, 3, 4, 5]):
        p = np.array(perm)
        D = np.empty_like(C)
        D[np.ix_(p, p)] = p[C]
        least = min(p[[0, 2, 3, 4]])
        with pytest.raises(InputError,
                           match=rf"^element {least} has no two-sided inverse$"):
            group_from_cayley(D.ravel())
    # two elements without inverses in a monoid on 3 points: 1 is the
    # identity and 0, 2 are absorbing on the left
    with pytest.raises(InputError, match="^element 0 has no two-sided inverse$"):
        group_from_cayley([0, 0, 0, 0, 1, 2, 2, 2, 2])


def test_group_finds_identity_not_at_zero():
    # a o b = a + b - 2 mod 5 has identity 2 and inverse 4 - a
    g = group_from_cayley(((np.arange(5)[:, None] + np.arange(5) - 2) % 5).ravel())
    assert g.identity == 2
    assert g.inverse.tolist() == [4, 3, 2, 1, 0]
    assert g.inverse.dtype == np.int64
    rng = random.Random(20)
    for h in (symmetric_group(4), dihedral_group(5)):
        C = relabeled_cayley(h, rng)
        k = group_from_cayley(C.ravel())
        e = int(np.flatnonzero((C == np.arange(h.size)).all(axis=1))[0])
        assert k.identity == e
        assert (C[np.arange(h.size), k.inverse] == e).all()
        assert (C[k.inverse, np.arange(h.size)] == e).all()


def dense_associative(C):
    # the N^3 oracle: (a·b)·c against a·(b·c) for every triple
    return bool(np.array_equal(C[C], C[:, C]))


def relabeled_cayley(g, rng):
    perm = np.array(rng.sample(range(g.size), g.size))
    C = np.empty((g.size, g.size), np.int64)
    C[np.ix_(perm, perm)] = perm[g.cayley.reshape(g.size, g.size)]
    return C


def associativity_verdict(C):
    """None for an accepted table, else the triple the error names, which
    must fail."""
    try:
        group_from_cayley(C.ravel())
    except InputError as exc:
        x, a, y = map(int, str(exc).split("at (")[1].rstrip(")").split(", "))
        assert C[C[x, a], y] != C[x, C[a, y]]
        return x, a, y
    return None


def test_light_associativity_matches_dense_oracle():
    rng = random.Random(0x119)
    groups = [cyclic_group(n) for n in (1, 2, 7, 12, 60)] + [
        symmetric_group(3), symmetric_group(4), dihedral_group(5),
        dihedral_group(30), direct_product(symmetric_group(3), cyclic_group(4))]
    failures = 0
    for g in groups:
        for trial in range(6):
            C = relabeled_cayley(g, rng)
            assert dense_associative(C)
            assert group_from_cayley(C.ravel()).size == g.size
            if g.size < 4:
                continue
            # swap two products in one row, keeping the identity row and
            # column and every inverse: a loop that is usually not a group
            e = int(np.flatnonzero((C == np.arange(g.size)).all(axis=1))[0])
            a = rng.choice([x for x in range(g.size) if x != e])
            b, c = rng.sample([y for y in range(g.size)
                               if y != e and C[a, y] != e], 2)
            C[a, b], C[a, c] = C[a, c], C[a, b]
            verdict = associativity_verdict(C)
            assert (verdict is None) == dense_associative(C)
            if verdict is not None and g.size <= 30:
                failures += 1
                # times C2, labeled (l, c) -> 2l + c: the first generator,
                # (identity, 1), is central and passes, so a later one
                # must find the failure
                c2 = (np.arange(2)[:, None] + np.arange(2)) % 2
                P = (2 * C[:, None, :, None] + c2[None, :, None, :]).reshape(
                    2 * g.size, 2 * g.size)
                assert not dense_associative(P)
                assert associativity_verdict(P) is not None
    assert failures >= 20


def generating_set_oracle(C, ident):
    """Greedy generators by a two-sided numpy frontier: each is the first
    element outside the submagma that the earlier ones and the identity
    generate, grown by the products of its new elements with everything
    reached, both ways."""
    reached = np.zeros(len(C), bool)
    reached[ident] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.array(gens[-1:])
        while frontier.size:
            reached[frontier] = True
            have = np.flatnonzero(reached)
            products = np.concatenate((C[np.ix_(frontier, have)].ravel(),
                                       C[np.ix_(have, frontier)].ravel()))
            frontier = np.flatnonzero(np.bincount(products[~reached[products]]))
    return gens


def closure_steps(C, ident):
    """(generator, covered before, covered after) of each step of the
    closure that group validation runs Light's test on."""
    return [(s, before, len(covered)) for s, before, covered
            in kernels._closure(len(C), ident, lambda s: C[:, s].tolist())]


def test_closure_generators_match_the_frontier_oracle():
    rng = random.Random(0x35)
    groups = ([cyclic_group(n) for n in (1, 2, 3, 4, 6, 7, 12, 30, 60, 120)]
              + [dihedral_group(n) for n in (1, 2, 3, 4, 5, 6, 8, 10, 20, 30)]
              + [symmetric_group(n) for n in range(7)]
              + [direct_product(g, h) for g, h in (
                  (symmetric_group(3), cyclic_group(4)),
                  (dihedral_group(3), symmetric_group(3)),
                  (cyclic_group(1), dihedral_group(4)),
                  (cyclic_group(2), cyclic_group(3)),
                  (symmetric_group(4), cyclic_group(5)),
                  (dihedral_group(6), cyclic_group(10)),
                  (cyclic_group(6), cyclic_group(6)),
                  (direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)))])
    for g in groups:
        tables = [(g.cayley.reshape(g.size, g.size), g.identity)]
        if g.size <= 120:
            for _ in range(2):
                C = relabeled_cayley(g, rng)
                tables.append((C, group_from_cayley(C.ravel()).identity))
        for C, e in tables:
            steps = closure_steps(C, e)
            assert [s for s, _, _ in steps] == generating_set_oracle(C, e), g.size
            # every generator at least doubles the subgroup, the last covers it all
            assert all(after >= 2 * before for _, before, after in steps), g.size
            assert (steps[-1][2] if steps else 1) == g.size


def test_light_test_needs_few_generators():
    g = symmetric_group(6)
    steps = closure_steps(g.cayley.reshape(720, 720), g.identity)
    assert len(steps) <= 9                      # log2(720) < 9.5
    assert closure_steps(np.zeros((1, 1), np.int64), 0) == []


def test_light_tests_are_bounded_on_tables_with_inverses(monkeypatch):
    # a table with an identity and inverses that is not a group: the
    # generators that pass Light's test generate a subgroup, so at most
    # log2(size) + 1 of them are tested before one fails
    closure, tested = kernels._closure, []

    def spy(n, start, compose):
        for step in closure(n, start, compose):
            tested.append(step[0])
            yield step

    monkeypatch.setattr(kernels, "_closure", spy)
    rng = random.Random(0x36)
    refused = 0
    for g in (cyclic_group(64), symmetric_group(4), dihedral_group(16),
              direct_product(cyclic_group(2), dihedral_group(8))):
        for trial in range(4):
            C = relabeled_cayley(g, rng)
            e = int(np.flatnonzero((C == np.arange(g.size)).all(axis=1))[0])
            a = rng.choice([x for x in range(g.size) if x != e])
            b, c = rng.sample([y for y in range(g.size) if y != e and C[a, y] != e], 2)
            C[a, b], C[a, c] = C[a, c], C[a, b]
            tested.clear()
            refused += associativity_verdict(C) is not None
            assert len(tested) <= g.size.bit_length(), (g.size, tested)
    assert refused == 16


def test_a_monoid_without_inverses_is_refused_at_once():
    # the max-semilattice is associative with identity 0, and no element
    # but 0 has an inverse: refused before any Light test
    C = np.maximum.outer(np.arange(1000), np.arange(1000))
    start = time.perf_counter()
    with pytest.raises(InputError, match="^element 1 has no two-sided inverse$"):
        group_from_cayley(C.ravel())
    assert time.perf_counter() - start < 0.5


def test_group_validation_is_charged_for_lights_test():
    # 25 bytes an entry: the table, Light's two products and their
    # comparison; the tracemalloc peak of building a cyclic group stays
    # within 1.5 times the charge either way
    import tracemalloc
    charged = []

    def spy(need, what):
        if what.startswith("the validation of a Cayley table"):
            charged.append(need)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(limits, "charge_bytes", spy)
        for n in (300, 700, 1200, 2000):
            charged.clear()
            tracemalloc.start()
            try:
                cyclic_group(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert charged == [25 * n * n]
            assert charged[0] / 1.5 <= peak <= 1.5 * charged[0], (n, peak)
    # 2,529 points is the largest order admitted, and a table is charged
    # before anything is checked: a Cayley table of 2,530 points is refused
    # whatever its entries
    assert 25 * 2529 ** 2 <= limits.BYTES < 25 * 2530 ** 2
    want = ("^refusing the validation of a Cayley table of 6400900 entries:"
            " needs 160022500 bytes")
    with pytest.raises(InputError, match=want):
        cyclic_group(2530)
    with pytest.raises(InputError, match=want):
        group_from_cayley(np.zeros(2530 ** 2, np.int64))


def test_group_non_integer_entries_rejected():
    # truncation would turn [0.0, 1.0, 1.0, 0.2] into the Z2 table
    for cayley in ([0.0, 1.0, 1.0, 0.2], [0.0, 1.0, 1.0, 0.0],
                   [False, True, True, False], ["0", "1", "1", "0"],
                   [0, 1, 1, 10 ** 30]):
        with pytest.raises(InputError, match="integers"):
            group_from_cayley(cayley)
    with pytest.raises(InputError, match="integers"):
        FiniteGroup.from_json({"size": 2, "cayley": [0, 1, 1, 0.5]})
    for dtype in (np.uint8, np.int32):
        g = group_from_cayley(np.array([0, 1, 1, 0], dtype=dtype))
        assert g.cayley.tolist() == [0, 1, 1, 0]


# loop oracles for the broadcast group builders


def symmetric_group_ref(n):
    elems = list(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(elems)}
    return [idx[tuple(b[a[t]] for t in range(n))] for a in elems for b in elems]


def dihedral_group_ref(n):
    C = np.empty((2 * n, 2 * n), np.int64)
    for i1, j1, i2, j2 in itertools.product(range(n), range(2), range(n), range(2)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        C[2 * i1 + j1, 2 * i2 + j2] = 2 * i + (j1 + j2) % 2
    return C.ravel().tolist()


def direct_product_ref(g, h):
    n = g.size * h.size
    C = np.empty((n, n), np.int64)
    for a0, a1, b0, b1 in itertools.product(
            range(g.size), range(h.size), range(g.size), range(h.size)):
        C[a0 * h.size + a1, b0 * h.size + b1] = \
            g.mul(a0, b0) * h.size + h.mul(a1, b1)
    return C.ravel().tolist()


def assert_inverses(g):
    for a in range(g.size):
        assert g.mul(a, g.inv(a)) == g.identity == g.mul(g.inv(a), a)


def test_group_builders_match_loop_oracles():
    for n in range(6):
        g = symmetric_group(n)
        assert g.cayley.tolist() == symmetric_group_ref(n)
        assert_inverses(g)
    for n in range(1, 9):
        g = dihedral_group(n)
        assert g.cayley.tolist() == dihedral_group_ref(n)
        assert_inverses(g)
    for g, h in ((symmetric_group(3), cyclic_group(4)),
                 (dihedral_group(3), symmetric_group(3)),
                 (cyclic_group(1), dihedral_group(4)),
                 (cyclic_group(2), cyclic_group(3))):
        gh = direct_product(g, h)
        assert gh.cayley.tolist() == direct_product_ref(g, h)
        assert_inverses(gh)
    with pytest.raises(InputError):
        dihedral_group(0)


@pytest.mark.parametrize("build, n, name", [
    (cyclic_group, 0, "cyclic group of order 0"),
    (cyclic_group, -3, "cyclic group of order -3"),
    (dihedral_group, 0, "dihedral group of order 0"),
    (dihedral_group, -2, "dihedral group of order -4"),
    (symmetric_group, -1, "symmetric group on -1 points")])
def test_group_orders_below_the_least_are_refused(build, n, name):
    with pytest.raises(InputError, match=f"there is no {name}"):
        build(n)


def test_smallest_groups():
    # S_0 is the trivial group, as are C_1 and S_1; D_1 has order 2
    for g in (symmetric_group(0), symmetric_group(1), cyclic_group(1)):
        assert (g.size, g.cayley.tolist(), g.identity) == (1, [0], 0)
    assert dihedral_group(1).cayley.tolist() == [0, 1, 1, 0]


def test_group_product_convention():
    # "a then b": with a=(0,2,1) (index 1) and b=(1,0,2) (index 2),
    # r(i) = b(a(i)) gives (1,2,0), index 3
    g = symmetric_group(3)
    assert g.mul(1, 2) == 3


def test_json_roundtrip():
    op = z8_ternary()
    again = OpTable.from_json(op.as_json())
    assert again == op
    g = symmetric_group(3)
    g2 = FiniteGroup.from_json(g.as_json())
    assert np.array_equal(g2.cayley, g.cayley)
    assert g2.identity == g.identity
    with pytest.raises(InputError):
        OpTable.from_json({"size": 2, "arity": 2})
    with pytest.raises(InputError):
        FiniteGroup.from_json({"size": 2})


def test_exchange_holds_is_directional():
    # shift distributes over the dihedral one way round only
    d = make_op_table(3, 2, DIHEDRAL3)
    shift = make_op_table(3, 2, lambda x, y: x + 1)
    assert exchange_holds(d, shift)
    assert not exchange_holds(shift, d)
    assert not are_mutually_distributive(d, shift)
