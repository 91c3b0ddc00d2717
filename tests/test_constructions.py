import itertools
import json
import random

import numpy as np
import pytest

from selfdist import (FiniteGroup, InputError, OpTable, PreconditionError,
                      affine_op, affine_ternary_compat_conditions,
                      are_compatible_ternary,
                      are_mutually_distributive, augmented_ternary,
                      commuting_automorphisms, compose_mn, conj_quandle,
                      core_quandle, cyclic_group, dihedral_group,
                      direct_product, doubling_binary,
                      doubling_ternary, evaluate, f_functor, g_functor,
                      generalized_alexander, heap_op, is_nary_distributive,
                      is_quandle, is_rack, monoid_product,
                      power_op, product_mutual_pair, projection_op,
                      relabel, symmetric_group, verify_functor_identities)
from selfdist.enumeration import (enumerate_affine, enumerate_mutual_pairs,
                                  enumerate_operations, enumerate_racks)
from formulas import make_op_table

DIHEDRAL3 = [0, 2, 1, 2, 1, 0, 1, 0, 2]


def test_affine_binary_dihedral():
    op = affine_op(3, 2, (2,))   # 2x + 2y = -x - y = 2y - x mod 3
    assert list(op.table) == DIHEDRAL3
    assert is_quandle(op)


def test_affine_ternary_z8():
    op = affine_op(8, 3, (3, 2))
    assert evaluate(op, (1, 2, 3)) == 3
    assert is_quandle(op)
    assert op.meta["coefficients"] == [3, 2, 4]


def test_affine_projection():
    for size, arity in ((4, 2), (3, 3), (2, 4)):
        op = affine_op(size, arity, (1,) + (0,) * (arity - 2))
        assert op == projection_op(size, arity)


def test_affine_always_distributive_even_without_units():
    rng = random.Random(3)
    for _ in range(20):
        size = rng.randrange(2, 9)
        arity = rng.choice((2, 3))
        coeffs = [rng.randrange(size) for _ in range(arity - 1)]
        op = affine_op(size, arity, coeffs)
        assert is_nary_distributive(op)


def test_affine_non_unit_warns_not_rack():
    op = affine_op(4, 2, (2,))
    assert "warning" in op.meta
    assert is_nary_distributive(op)
    assert not is_rack(op)
    with pytest.raises(InputError):
        affine_op(4, 3, (1,))    # wrong coefficient count


def test_conj_quandle():
    assert conj_quandle(cyclic_group(5)) == projection_op(5, 2)
    op = conj_quandle(symmetric_group(3))
    assert is_quandle(op)
    assert op != projection_op(6, 2)


def test_core_quandle():
    assert list(core_quandle(cyclic_group(3)).table) == DIHEDRAL3
    assert is_quandle(core_quandle(symmetric_group(3)))
    assert is_quandle(core_quandle(dihedral_group(4)))


def test_heap_op():
    h = heap_op(cyclic_group(3))
    assert evaluate(h, (1, 2, 0)) == 2
    for g in (cyclic_group(4), symmetric_group(3), dihedral_group(4)):
        h = heap_op(g)
        assert is_rack(h)
        for x in range(g.size):
            for y in range(g.size):
                assert evaluate(h, (x, x, y)) == y
                assert evaluate(h, (x, y, y)) == x


def test_generalized_alexander():
    g = cyclic_group(5)
    doubler = [(2 * x) % 5 for x in range(5)]
    op = generalized_alexander(g, doubler)
    assert op == affine_op(5, 2, (2,))
    ident = list(range(5))
    assert generalized_alexander(g, ident) == projection_op(5, 2)
    quad = [(4 * x) % 5 for x in range(5)]
    assert commuting_automorphisms(g, doubler, quad)
    assert are_mutually_distributive(op, generalized_alexander(g, quad))
    with pytest.raises(InputError):
        generalized_alexander(g, [1, 0, 2, 3, 4])   # not a homomorphism
    with pytest.raises(InputError):
        generalized_alexander(g, [0, 0, 1, 2, 3])   # not a permutation


# per-entry reference formulas for the gather builders


def conj_ref(g):
    return make_op_table(g.size, 2, lambda a, b: g.mul(g.inv(b), g.mul(a, b)))


def core_ref(g):
    return make_op_table(g.size, 2, lambda a, b: g.mul(b, g.mul(g.inv(a), b)))


def heap_ref(g):
    return make_op_table(g.size, 3,
                         lambda x, y0, y1: g.mul(g.mul(x, g.inv(y0)), y1))


def alexander_ref(g, f):
    return make_op_table(g.size, 2,
                         lambda x, y: g.mul(int(f[g.mul(x, g.inv(y))]), y))


def relabeled_group_json(g, seed):
    """A group file whose identity is not 0: g's table under a seeded relabeling."""
    p = list(range(g.size))
    random.Random(seed).shuffle(p)
    C = g.cayley.reshape(g.size, g.size)
    cayley = [0] * (g.size * g.size)
    for a in range(g.size):
        for b in range(g.size):
            cayley[p[a] * g.size + p[b]] = p[int(C[a, b])]
    return FiniteGroup.from_json(json.loads(json.dumps(
        {"size": g.size, "cayley": cayley})))


def oracle_groups():
    return ([cyclic_group(n) for n in range(1, 8)]
            + [dihedral_group(n) for n in range(3, 7)]
            + [symmetric_group(3), symmetric_group(4),
               direct_product(symmetric_group(3), cyclic_group(4)),
               relabeled_group_json(direct_product(symmetric_group(3),
                                                   cyclic_group(2)), 5)])


def inner_automorphism(g, h):
    """x -> h^-1 x h as a permutation of the group."""
    return [g.mul(g.mul(g.inv(h), x), h) for x in range(g.size)]


def test_group_builders_match_per_entry_oracles():
    groups = oracle_groups()
    assert groups[-1].identity != 0
    for g in groups:
        for build, ref, name in ((conj_quandle, conj_ref, "conjugation"),
                                 (core_quandle, core_ref, "core"),
                                 (heap_op, heap_ref, "heap")):
            op = build(g)
            assert op == ref(g)
            assert op.meta == {"construction": name}
        # every element's inner automorphism, the identity map included
        for h in range(g.size):
            f = inner_automorphism(g, h)
            op = generalized_alexander(g, f)
            assert op == alexander_ref(g, f)
            assert op.meta == {"construction": "generalized_alexander"}
    s4 = symmetric_group(4)
    assert inner_automorphism(s4, 5) != list(range(24))
    # an outer automorphism: multiplication by the unit 3 on Z7
    f = [(3 * x) % 7 for x in range(7)]
    assert generalized_alexander(cyclic_group(7), f) == \
        alexander_ref(cyclic_group(7), f)


def test_power_op():
    d = affine_op(3, 2, (2,))
    assert power_op(d, 2) == projection_op(3, 2)
    assert power_op(d, 1) == d
    assert power_op(d, 0) == projection_op(3, 2)
    t8 = affine_op(8, 3, (3, 2))
    assert power_op(t8, 2) == projection_op(8, 3)
    with pytest.raises(InputError):
        power_op(d, -1)
    with pytest.raises(PreconditionError):
        power_op(make_op_table(3, 2, lambda x, y: x + y), 2)


def power_loop(op, n):
    # the n-fold iterate one translation step at a time
    N, k = op.size, op.arity
    P = N ** (k - 1)
    inner = op.table.reshape(N, P)
    cur = np.broadcast_to(np.arange(N)[:, None], (N, P)).copy()
    for _ in range(n):
        cur = inner[cur, np.arange(P)[None, :]]
    return cur.ravel()


def test_power_by_squaring_matches_loop():
    tables = (list(enumerate_operations(3, 2, "sd"))
              + list(enumerate_operations(2, 3, "sd")))
    assert len(tables) == 280
    for op in tables:
        for n in range(40):
            out = power_op(op, n, verify=False)
            assert np.array_equal(out.table, power_loop(op, n)), (op.table, n)
            assert out.meta["exponent"] == n
    # a huge exponent costs about 67 squarings, not 10^20 steps
    a200 = affine_op(200, 2, [2])
    assert power_op(a200, 10 ** 20) == affine_op(200, 2, [pow(2, 10 ** 20, 200)])


def test_power_pair_mutually_distributive():
    d = affine_op(5, 2, (2,))
    for m, n in ((1, 2), (2, 3), (1, 3)):
        assert are_mutually_distributive(power_op(d, m), power_op(d, n))


def test_product_mutual_pair():
    d = affine_op(3, 2, (2,))
    op0, op1 = product_mutual_pair(d, d)
    assert op0.size == 9
    assert are_mutually_distributive(op0, op1)
    assert is_rack(op0) and is_rack(op1)
    # left factor acts only on the left coordinate
    assert evaluate(op0, (1 * 3 + 2, 0 * 3 + 1)) == evaluate(d, (1, 0)) * 3 + 2
    assert evaluate(op1, (1 * 3 + 2, 0 * 3 + 1)) == 1 * 3 + evaluate(d, (2, 1))
    one = make_op_table(1, 2, [0])
    p0, p1 = product_mutual_pair(d, one)
    assert p0 == d and p1 == projection_op(3, 2)


def test_doubling_binary_closed_form():
    d = affine_op(3, 2, (2,))
    db = doubling_binary(projection_op(3, 2), d)
    for x0, x1, y0, y1 in itertools.product(range(3), repeat=4):
        got = evaluate(db, (x0 * 3 + x1, y0 * 3 + y1))
        assert got == ((2 * y1 - x0) % 3) * 3 + (2 * y1 - x1) % 3


def test_doubling_binary_axioms_and_refusal():
    d = affine_op(3, 2, (2,))
    assert is_rack(doubling_binary(d, d))
    assert doubling_binary(projection_op(2, 2), projection_op(2, 2)) == \
        projection_op(4, 2)
    shift = make_op_table(3, 2, lambda x, y: x + 1)
    with pytest.raises(PreconditionError):
        doubling_binary(shift, d)            # racks but not mutually distributive
    with pytest.raises(PreconditionError):
        doubling_binary(make_op_table(3, 2, lambda x, y: x + y), d)


def test_doubling_ternary():
    h = heap_op(cyclic_group(2))
    dt = doubling_ternary(h, h)
    assert dt.size == 4
    assert is_nary_distributive(dt)
    p = projection_op(2, 3)
    assert doubling_ternary(p, p) == projection_op(4, 3)
    A = affine_op(4, 3, (0, 1))
    B = affine_op(4, 3, (0, 3))
    with pytest.raises(PreconditionError):
        doubling_ternary(A, B)


def test_f_functor_tables():
    d = affine_op(3, 2, (2,))
    triv = projection_op(3, 2)
    assert f_functor(d, d) == make_op_table(3, 3, lambda x, y, z: x + y + 2 * z)
    t1 = f_functor(triv, d)
    t2 = f_functor(d, triv)
    assert t1 == make_op_table(3, 3, lambda x, y, z: 2 * z - x)
    assert t2 == make_op_table(3, 3, lambda x, y, z: 2 * y - x)
    assert t1 != t2
    assert f_functor(triv, triv) == projection_op(3, 3)
    for t in (t1, t2):
        assert is_rack(t)


def test_f_functor_image_diagonal_obstruction():
    # for T built from a pair with idempotent first operation, the slice
    # (x, y) -> T(x, x, y) recovers the second operation, hence is a rack;
    # for the heap on a nontrivial group that slice is the right projection,
    # which is no rack, so the heap is outside the image
    for pair in ((affine_op(5, 2, (2,)), power_op(affine_op(5, 2, (2,)), 2)),
                 (affine_op(3, 2, (2,)), affine_op(3, 2, (2,)))):
        t = f_functor(*pair)
        slice_table = make_op_table(t.size, 2,
                                    lambda x, y: evaluate(t, (x, x, y)))
        assert slice_table == pair[1]
        assert is_rack(slice_table)
    h = heap_op(cyclic_group(3))
    hslice = make_op_table(3, 2, lambda x, y: evaluate(h, (x, x, y)))
    assert hslice == make_op_table(3, 2, lambda x, y: y)
    assert not is_rack(hslice)


def test_g_functor():
    h = heap_op(cyclic_group(2))
    r = g_functor(h, h)
    assert r.size == 4
    assert is_rack(r)
    p = projection_op(2, 3)
    assert g_functor(p, p) == projection_op(4, 2)


def test_functor_identities():
    d3 = affine_op(3, 2, (2,))
    d5 = affine_op(5, 2, (2,))
    assert verify_functor_identities(d3, d3)
    assert verify_functor_identities(d5, d5)
    A = affine_op(8, 3, (3, 2))
    B = make_op_table(8, 3, lambda x, y, z: -x + 2 * y)
    assert verify_functor_identities(A, B)
    assert verify_functor_identities(projection_op(2, 2), projection_op(2, 2))
    with pytest.raises(InputError):
        verify_functor_identities(d3, A)


def test_doublings_of_enumerated_mutual_rack_pairs():
    # every mutually distributive pair of racks on 2 and 3 points: its
    # doubling is a rack, and the F/G round trip reproduces the doubling
    pairs = [(a, b) for size in (2, 3) for a, b in enumerate_mutual_pairs(size)
             if is_rack(a) and is_rack(b)]
    assert len(pairs) == 61
    for a, b in pairs:
        assert is_rack(doubling_binary(a, b))
        assert verify_functor_identities(a, b)


def test_doublings_of_enumerated_compatible_ternary_racks():
    # every compatible pair of ternary racks on 2 points, and the first 100
    # compatible pairs on 3 points in a seeded order of all 129^2 ordered
    # pairs (970 of them are compatible)
    small = enumerate_racks(2, 3)
    pairs = [(a, b) for a in small for b in small if are_compatible_ternary(a, b)]
    assert len(pairs) == 6
    racks = enumerate_racks(3, 3)
    order = random.Random(0xD0B).sample(range(len(racks) ** 2), len(racks) ** 2)
    sample = (divmod(i, len(racks)) for i in order)
    sample = ((racks[i], racks[j]) for i, j in sample
              if are_compatible_ternary(racks[i], racks[j]))
    pairs += list(itertools.islice(sample, 100))
    assert len(pairs) == 106
    for a, b in pairs:
        assert is_rack(doubling_ternary(a, b))
        assert verify_functor_identities(a, b)


# per-entry formulas for the pair builders, read straight off their
# definitions on an N x N or N x N x N array of each input table


def doubling_binary_ref(op0, op1):
    N = op0.size
    s0, s1 = op0.table.reshape(N, N), op1.table.reshape(N, N)

    def entry(x, y):
        (x0, x1), (y0, y1) = divmod(x, N), divmod(y, N)
        return s1[s0[x0, y0], y1] * N + s1[s0[x1, y0], y1]
    return make_op_table(N * N, 2, entry)


def f_functor_ref(op0, op1):
    N = op0.size
    s0, s1 = op0.table.reshape(N, N), op1.table.reshape(N, N)
    return make_op_table(N, 3, lambda x, y0, y1: s1[s0[x, y0], y1])


def doubling_ternary_ref(T0, T1):
    N = T0.size
    A, B = T0.table.reshape(N, N, N), T1.table.reshape(N, N, N)

    def entry(x, y, z):
        (x0, x1), (y0, y1), (z0, z1) = divmod(x, N), divmod(y, N), divmod(z, N)
        return A[A[x0, y0, y1], z0, z1] * N + B[B[x1, y0, y1], z0, z1]
    return make_op_table(N * N, 3, entry)


def g_functor_ref(T0, T1):
    N = T0.size
    A, B = T0.table.reshape(N, N, N), T1.table.reshape(N, N, N)

    def entry(x, y):
        (x0, x1), (y0, y1) = divmod(x, N), divmod(y, N)
        return A[x0, y0, y1] * N + B[x1, y0, y1]
    return make_op_table(N * N, 2, entry)


def relabeled_by(op, seed):
    perm = list(range(op.size))
    random.Random(seed).shuffle(perm)
    return relabel(op, perm)


def test_pair_builders_match_per_entry_formulas():
    # mutually distributive pairs of racks from nonabelian groups, the
    # conj(S4)/power pair relabeled as the construct benchmark builds it,
    # and an affine pair; with verify off, any two tables must build too
    rng = np.random.default_rng(20)
    conj_s4 = relabeled_by(conj_quandle(symmetric_group(4)), 4)
    conj_d4 = conj_quandle(dihedral_group(4))
    binary = [(conj_quandle(symmetric_group(3)),) * 2,
              (conj_s4, power_op(conj_s4, 2)),
              (conj_d4, power_op(conj_d4, 3)),
              (affine_op(7, 2, [3]), affine_op(7, 2, [5]))]
    for op0, op1 in binary:
        assert is_rack(op0) and is_rack(op1)
        assert are_mutually_distributive(op0, op1)
    loose = [(make_op_table(4, 2, rng.integers(0, 4, 16)),
              make_op_table(4, 2, rng.integers(0, 4, 16)))]
    for pairs, verify in ((binary, True), (binary + loose, False)):
        for op0, op1 in pairs:
            for build, ref in ((doubling_binary, doubling_binary_ref),
                               (f_functor, f_functor_ref)):
                got = build(op0, op1, verify=verify)
                assert got == ref(op0, op1)
                assert got.table.dtype == np.int64
    heap_s3 = relabeled_by(heap_op(symmetric_group(3)), 3)
    heap_d4 = heap_op(dihedral_group(4))
    ternary = [(heap_s3, heap_s3), (heap_d4, heap_d4),
               (affine_op(5, 3, [2, 4]), affine_op(5, 3, [3, 0]))]
    for T0, T1 in ternary:
        assert is_rack(T0) and is_rack(T1) and are_compatible_ternary(T0, T1)
    loose = [(make_op_table(3, 3, rng.integers(0, 3, 27)),
              make_op_table(3, 3, rng.integers(0, 3, 27)))]
    for pairs, verify in ((ternary, True), (ternary + loose, False)):
        for T0, T1 in pairs:
            for build, ref in ((doubling_ternary, doubling_ternary_ref),
                               (g_functor, g_functor_ref)):
                got = build(T0, T1, verify=verify)
                assert got == ref(T0, T1)
                assert got.table.dtype == np.int64


def test_compose_mn():
    d = affine_op(3, 2, (2,))
    assert compose_mn(d, d) == f_functor(d, d)
    bi = affine_op(3, 2, (2,))
    te = affine_op(3, 3, (2, 1))
    w = compose_mn(bi, te)
    assert w.arity == 4
    assert is_nary_distributive(w)
    w5 = compose_mn(affine_op(5, 2, (2,)), affine_op(5, 3, (2, 1)))
    assert w5.arity == 4
    proj = projection_op(3, 3)
    padded = compose_mn(d, proj, verify=False)
    for x, y, z0, z1 in itertools.product(range(3), repeat=4):
        assert evaluate(padded, (x, y, z0, z1)) == evaluate(d, (x, y))


def test_monoid_product():
    t8 = affine_op(8, 3, (3, 2))
    ident = projection_op(8, 3)
    assert monoid_product(t8, ident) == t8
    assert monoid_product(ident, t8) == t8
    assert monoid_product(t8, t8) == power_op(t8, 2)
    d = affine_op(3, 2, (2,))
    assert monoid_product(d, d) == projection_op(3, 2)
    rng = random.Random(31)
    for _ in range(15):
        size = rng.randrange(2, 4)
        arity = rng.choice((2, 3))
        tabs = [make_op_table(size, arity,
                              [rng.randrange(size) for _ in range(size ** arity)])
                for _ in range(3)]
        a, b, c = tabs
        assert monoid_product(monoid_product(a, b), c) == \
            monoid_product(a, monoid_product(b, c))
    with pytest.raises(InputError):
        monoid_product(t8, d)


def test_augmented_ternary_right_multiplication_is_heap():
    g = symmetric_group(3)
    n = g.size
    act = [[g.mul(x, h) for h in range(n)] for x in range(n)]
    pair = [[g.mul(g.inv(a), b) for b in range(n)] for a in range(n)]
    t = augmented_ternary(n, g, act, pair)
    assert t == heap_op(g)


def test_augmented_ternary_conjugation_action():
    g = symmetric_group(3)
    n = g.size
    act = [[g.mul(g.inv(h), g.mul(x, h)) for h in range(n)] for x in range(n)]
    pair = [[g.mul(g.inv(a), b) for b in range(n)] for a in range(n)]
    t = augmented_ternary(n, g, act, pair)
    assert is_nary_distributive(t)
    for x, y0, y1 in itertools.product(range(n), repeat=3):
        p = g.mul(g.inv(y0), y1)
        assert evaluate(t, (x, y0, y1)) == g.mul(g.inv(p), g.mul(x, p))


def test_augmented_ternary_constant_pairing_is_projection():
    g = cyclic_group(4)
    act = [[g.mul(x, h) for h in range(4)] for x in range(4)]
    pair = [[g.identity] * 4 for _ in range(4)]
    assert augmented_ternary(4, g, act, pair) == projection_op(4, 3)


def test_augmented_ternary_refusals():
    g = symmetric_group(3)
    n = g.size
    act = [[g.mul(x, h) for h in range(n)] for x in range(n)]
    bad_pair = [[(a + b) % n for b in range(n)] for a in range(n)]
    with pytest.raises(PreconditionError):
        augmented_ternary(n, g, act, bad_pair)
    bad_act = [[(x + h) % n for h in range(n)] for x in range(n)]
    with pytest.raises(PreconditionError):
        augmented_ternary(n, g, bad_act, bad_pair)


def test_augmented_ternary_input():
    # tables of integers with the stated shapes, refused before any build
    g = cyclic_group(2)
    act = [[0, 1], [1, 0]]
    pair = [[0, 1], [1, 0]]
    assert augmented_ternary(2, g, act, pair).size == 2
    for bad_act in ([[0.7, 1.2], [1, 0]], [[0, 1], [True, 0]], [0, 1, 1],
                    [0, 1, 1, 0], [[0, 1], [1]], [[0, 1], [1, 2 ** 64]]):
        with pytest.raises(InputError):
            augmented_ternary(2, g, bad_act, pair)
    for bad_pair in ([[0, 1.5], [1, 0]], [[0, 1, 0], [1, 0, 1]], [0, 1]):
        with pytest.raises(InputError):
            augmented_ternary(2, g, act, bad_pair)


@pytest.mark.parametrize("build", [
    lambda: affine_op(100000, 2, [2]),
    lambda: affine_op(3000, 3, [2, 1]),
    lambda: projection_op(100, 5),
    lambda: projection_op(2, 10 ** 12),
    lambda: conj_quandle(symmetric_group(8)),
    lambda: cyclic_group(60000),
    lambda: dihedral_group(10 ** 9),
    lambda: direct_product(cyclic_group(300), cyclic_group(300)),
    lambda: heap_op(cyclic_group(2000)),
    lambda: doubling_binary(*[affine_op(200, 2, [2])] * 2, verify=False),
    lambda: doubling_ternary(*[affine_op(40, 3, [2, 2])] * 2),
    lambda: f_functor(*[affine_op(600, 2, [2])] * 2),
    lambda: g_functor(*[affine_op(70, 3, [2, 2])] * 2),
    lambda: compose_mn(*[affine_op(60, 3, [2, 2])] * 2),
    lambda: product_mutual_pair(affine_op(100, 2, [3]),
                                affine_op(100, 2, [3])),
    lambda: augmented_ternary(600, cyclic_group(1), [[0]] * 600,
                              [[0] * 600] * 600),
])
def test_builders_refuse_oversized_tables_before_verifying(build):
    with pytest.raises(InputError, match="refusing .*: needs .* bytes, budget"):
        build()


def test_affine_op_shape_is_checked():
    for modulus, arity in ((0, 2), (-3, 2), (3, 1), (3, -2)):
        with pytest.raises(InputError):
            affine_op(modulus, arity, [1] * max(arity - 1, 0))
    # more arguments than numpy has array dimensions
    assert affine_op(1, 70, [0] * 69).table.tolist() == [0]
    for kind in ("all", "sd", "rack", "quandle"):
        assert [op.table.tolist() for op in enumerate_affine(1, 70, kind)] == [[0]]


def test_affine_compat_conditions_match_brute_force():
    rng = random.Random(41)
    for _ in range(60):
        N = rng.choice((2, 3, 4, 5, 6))
        t, s, tp, sp = (rng.randrange(N) for _ in range(4))
        brute = bool(are_compatible_ternary(affine_op(N, 3, (t, s)),
                                            affine_op(N, 3, (tp, sp))))
        conds = affine_ternary_compat_conditions(N, t, s, tp, sp)
        assert brute == all(c == 0 for c in conds), (N, t, s, tp, sp)


def test_affine_compat_conditions_unit_case():
    # t = 1, s = 0 against t' = 2, s' = 4 over Z5: all coefficients units or
    # zero, yet the pair fails compatibility; the residue list pinpoints it
    assert not are_compatible_ternary(affine_op(5, 3, (1, 0)),
                                      affine_op(5, 3, (2, 4)))
    assert affine_ternary_compat_conditions(5, 1, 0, 2, 4) == [0, 0, 4, 1]


# ---------------------------------------------------------------------------
# pair hypotheses: which inputs each builder and check admits, and the first
# hypothesis it reports on the others

def _hypothesis_inputs():
    R3, T3 = affine_op(3, 2, (2,)), heap_op(cyclic_group(3))
    # x * y = 0 is self-distributive and not a rack; x + y is not
    # self-distributive
    const, constT = OpTable(3, 2, [0] * 9), OpTable(3, 3, [0] * 27)
    plus = OpTable(3, 2, [(x + y) % 3 for x, y in itertools.product(range(3), repeat=2)])
    plusT = OpTable(3, 3, [sum(t) % 3 for t in itertools.product(range(3), repeat=3)])
    other = next(r for r in enumerate_racks(3, 2) if not are_mutually_distributive(R3, r))
    otherT = next(r for r in enumerate_racks(3, 3) if not are_compatible_ternary(T3, r))
    cases = {}
    for arity, good, sd_nonrack, non_sd, unpaired in ((2, R3, const, plus, other),
                                                      (3, T3, constT, plusT, otherT)):
        cases[arity] = [(good, good), (sd_nonrack, sd_nonrack), (sd_nonrack, good),
                        (good, sd_nonrack), (non_sd, good), (good, non_sd),
                        (good, unpaired)]
    return cases


def _hypothesis_builders():
    from selfdist import cocycles as C
    from selfdist.braid import (BraidWord, braid_act, twist_op,
                                verify_equivariance)
    from selfdist.homology import chain_map_F, labeled_boundary
    zero = lambda k: C.zero_cochain(3, k, 3)
    # name: (arity, call, names of the two operations, the outcome on each
    # of the seven cases of `_hypothesis_inputs`: "." admitted, R1 or R2
    # the first or second operation is not a rack, S1 or S2 not
    # self-distributive, M the operations are not mutually distributive, C
    # not compatible)
    pair = ("first operation", "second operation")
    one = ("operation", None)
    acting = ("acting operation", "acted operation")
    return {
        "f_functor": (2, f_functor, pair, ". R1 R1 R2 R1 R2 M"),
        "doubling_binary": (2, doubling_binary, pair, ". R1 R1 R2 R1 R2 M"),
        "compose_mn": (2, compose_mn, pair, ". . M M S1 S2 M"),
        "product_mutual_pair": (2, product_mutual_pair, pair, ". R1 R1 R2 R1 R2 ."),
        "verify_equivariance": (2, verify_equivariance, acting, ". . M M S1 S2 M"),
        "twist_op": (2, lambda a, b: twist_op(compose_mn(b, b, verify=False), a,
                                              BraidWord(2, (1,))),
                     ("acting operation", "twisted operation"), ". R1 R1 M R1 S2 M"),
        "labeled_boundary": (2, lambda a, b: labeled_boundary([a, b], 2), pair,
                             ". . M M S1 S2 M"),
        "chain_map_F": (2, lambda a, b: chain_map_F(a, b, 2), pair, ". . M M S1 S2 M"),
        "are_mutually_distributive_cocycles": (
            2, lambda a, b: C.are_mutually_distributive_cocycles(zero(2), zero(2), a, b),
            pair, ". . M M M M M"),
        "extend_mutual_pair": (2, lambda a, b: C.extend_mutual_pair(a, b, zero(2), zero(2)),
                               pair, ". . M M M M M"),
        "ternary_cocycle_from_pair": (
            2, lambda a, b: C.ternary_cocycle_from_pair(zero(2), zero(2), a, b),
            pair, ". . M M M M M"),
        "doubled_binary_cocycle": (
            2, lambda a, b: C.doubled_binary_cocycle(zero(2), zero(2), a, b),
            pair, ". . M M M M M"),
        "power_op": (2, lambda a, b: power_op(a, 2), one, ". . . . S1 . ."),
        "braid_act": (2, lambda a, b: braid_act(a, BraidWord(2, (-1,)), (0, 1)), one,
                      ". R1 R1 . R1 . ."),
        "g_functor": (3, g_functor, pair, ". R1 R1 R2 R1 R2 C"),
        "doubling_ternary": (3, doubling_ternary, pair, ". . C C S1 S2 C"),
        "compose_mn ternary": (3, compose_mn, pair, ". . M M S1 S2 ."),
        "labeled_boundary ternary": (3, lambda a, b: labeled_boundary([a, b], 2), pair,
                                     ". . M M S1 S2 ."),
        "are_compatible_ternary_cocycles": (
            3, lambda a, b: C.are_compatible_ternary_cocycles(zero(3), zero(3), a, b),
            pair, ". . C C C C C"),
        "binary_cocycle_from_ternary_pair": (
            3, lambda a, b: C.binary_cocycle_from_ternary_pair(zero(3), zero(3), a, b),
            pair, ". . C C C C C"),
        "doubled_ternary_cocycle": (
            3, lambda a, b: C.doubled_ternary_cocycle(zero(3), zero(3), a, b),
            pair, ". . C C C C C"),
    }


def test_pair_hypotheses_admit_and_refuse_in_one_phrasing():
    # the admitted inputs are those the builders admitted before their
    # hypotheses were stated once; each refusal reads "<subject> is not
    # <property>"
    cases = _hypothesis_inputs()
    properties = {"R": "is not a rack", "S": "is not self-distributive"}
    laws = {"M": "operations are not mutually distributive",
            "C": "operations are not compatible"}
    for name, (arity, call, names, outcomes) in _hypothesis_builders().items():
        for (a, b), want in zip(cases[arity], outcomes.split()):
            try:
                res = call(a, b)
                got = "admitted" if getattr(res, "holds", True) else res.detail
            except PreconditionError as exc:
                got = str(exc).split(" at ")[0].split(" (")[0]
            expected = ("admitted" if want == "." else laws.get(want) or
                        f"{names[int(want[1]) - 1]} {properties[want[0]]}")
            assert got == expected, (name, want)


def _count_scans(monkeypatch):
    from selfdist import kernels
    scans = []
    for name in ("exchange_scan", "compat_scan"):
        scan = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, scan=scan, **k:
                            scans.append(1) or scan(*a, **k))
    return scans


def test_a_diagonal_pair_scans_its_law_once(monkeypatch):
    # on two equal tables the own tests, both exchange laws and both
    # compatibility identities are one law, the table's self-distributivity
    from selfdist import cocycles as C
    from selfdist.homology import labeled_boundary
    scans = _count_scans(monkeypatch)
    R3, T3 = affine_op(3, 2, (2,)), heap_op(cyclic_group(3))
    copy = OpTable(3, 2, R3.table.copy())
    zero = lambda k: C.zero_cochain(3, k, 3)
    calls = {
        "f_functor": lambda: f_functor(R3, R3),
        "doubling_binary": lambda: doubling_binary(R3, R3),
        "compose_mn": lambda: compose_mn(R3, R3),
        "labeled_boundary on a copy": lambda: labeled_boundary([R3, copy], 2),
        "g_functor": lambda: g_functor(T3, T3),
        "doubling_ternary": lambda: doubling_ternary(T3, T3),
        "mutual cocycles": lambda: C.are_mutually_distributive_cocycles(
            zero(2), zero(2), R3, R3),
        "compatible cocycles": lambda: C.are_compatible_ternary_cocycles(
            zero(3), zero(3), T3, T3),
        "are_mutually_distributive": lambda: are_mutually_distributive(R3, copy),
        "are_compatible_ternary": lambda: are_compatible_ternary(T3, T3),
    }
    for name, call in calls.items():
        scans.clear()
        assert getattr(call(), "holds", True), name
        assert len(scans) == 1, (name, len(scans))
    # two different tables still scan each law
    other = core_quandle(symmetric_group(3))
    pair = (projection_op(6, 2), other)
    scans.clear()
    compose_mn(*pair)
    assert len(scans) == 4


def test_a_non_sd_diagonal_pair_is_refused_as_before(monkeypatch):
    # the refusal names the first hypothesis that fails, with the witness
    # and detail of that hypothesis' own check, after one scan
    from selfdist import cocycles as C
    scans = _count_scans(monkeypatch)
    plus = OpTable(3, 2, [(x + y) % 3 for x, y in itertools.product(range(3), repeat=2)])
    plusT = OpTable(3, 3, [sum(t) % 3 for t in itertools.product(range(3), repeat=3)])
    zero = lambda k: C.zero_cochain(3, k, 3)

    def at(op):
        cex = is_nary_distributive(op).counterexample
        return f" at {cex.witness}: {cex.lhs} != {cex.rhs}"

    sd = "(self-distributivity fails)"
    cases = [
        (lambda: f_functor(plus, plus), f"first operation is not a rack{at(plus)} {sd}"),
        (lambda: compose_mn(plus, plus),
         f"first operation is not self-distributive{at(plus)} {sd}"),
        (lambda: C.are_mutually_distributive_cocycles(zero(2), zero(2), plus, plus),
         f"operations are not mutually distributive{at(plus)}"
         " (second operation fails to distribute over the first)"),
        (lambda: g_functor(plusT, plusT), f"first operation is not a rack{at(plusT)} {sd}"),
        (lambda: doubling_ternary(plusT, plusT),
         f"first operation is not self-distributive{at(plusT)} {sd}"),
        (lambda: C.are_compatible_ternary_cocycles(zero(3), zero(3), plusT, plusT),
         f"operations are not compatible{at(plusT)} (compatibility identity 1 fails)"),
    ]
    for call, message in cases:
        scans.clear()
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == message
        assert len(scans) == 1, message
