import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from selfdist import (ComonoidObject, Field, HopfAlgebraObject, InputError,
                      LieAlgebraObject, LinMap, PreconditionError, SDObject,
                      augmented_operation, categorical_double,
                      check_augmented_hopf, check_nary_sd, cyclic_group,
                      group_algebra_hopf, hopf_adjoint_ternary, hopf_heap,
                      lie_to_binary_sd, shuffle_perm, shuffle_positions,
                      switching_lemmas_check, symmetric_group)
from selfdist.constructions import conj_quandle, heap_op

F2, F3, F5, F7, F0 = Field(2), Field(3), Field(5), Field(7), Field(0)


def z2_hopf(field=F3):
    return group_algebra_hopf(cyclic_group(2), field)


def nonabelian_lie():
    # two-dimensional algebra over GF(5): bracket of the two basis vectors
    # is the second one
    B = np.zeros((2, 4), np.int64)
    B[1, 1] = 1
    B[1, 2] = 4
    return LieAlgebraObject(2, LinMap(F5, 2, 2, 1, B))


def basis_table(obj):
    # operation restricted to basis vectors, when every column is a basis
    # vector; flat list in lexicographic argument order
    m = obj.w.matrix
    out = []
    for c in range(m.shape[1]):
        nz = np.flatnonzero(m[:, c])
        assert nz.size == 1 and m[nz[0], c] == 1
        out.append(int(nz[0]))
    return out


def inv_mod(M, p):
    n = M.shape[0]
    A = np.concatenate([M % p, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r, col] % p)
        A[[col, piv]] = A[[piv, col]]
        A[col] = (A[col] * pow(int(A[col, col]), -1, p)) % p
        for r in range(n):
            if r != col and A[r, col]:
                A[r] = (A[r] - A[r, col] * A[col]) % p
    return A[:, n:]


# ---------------------------------------------------------------------------
# fields and maps

def test_field_validation():
    assert Field(7).characteristic == 7
    assert Field(0) == Field(0)
    assert Field(3) != Field(5)
    with pytest.raises(InputError):
        Field(4)
    with pytest.raises(InputError):
        Field(-3)


def test_field_reduce():
    assert list(F3.reduce([-1, 5, 3])) == [2, 2, 0]
    out = F0.reduce([[1, 2]])
    assert out.dtype == object and out[0, 0] == Fraction(1)


def test_linmap_shape_validation():
    LinMap(F3, 2, 2, 1, np.zeros((2, 4), np.int64))
    with pytest.raises(InputError):
        LinMap(F3, 2, 2, 1, np.zeros((2, 3), np.int64))
    with pytest.raises(InputError):
        LinMap(F3, 2, -1, 1, np.zeros((2, 4), np.int64))
    with pytest.raises(InputError):
        LinMap("GF(3)", 2, 2, 1, np.zeros((2, 4), np.int64))


def test_linmap_rejects_inexact_entries():
    # over F_p a float, bool, fraction or oversized integer would be
    # truncated or overflow; over Q floats and bools are refused alike
    for bad in ([[1.5]], [[1e30]], [[True]], [[10 ** 30]], [[Fraction(1, 2)]]):
        with pytest.raises(InputError, match="integers"):
            LinMap(F5, 1, 1, 1, bad)
    for bad in ([[1.5]], [[True]]):
        with pytest.raises(InputError, match="integers"):
            LinMap(Field(0), 1, 1, 1, bad)
    assert LinMap(Field(0), 1, 1, 1, [[10 ** 30]]).matrix[0, 0] == 10 ** 30
    assert LinMap(F5, 1, 1, 1, [[-3]]).matrix.tolist() == [[2]]


def test_linmap_compose_and_tensor():
    a = LinMap(F5, 2, 1, 1, [[1, 2], [3, 4]])
    b = LinMap(F5, 2, 1, 1, [[0, 1], [1, 0]])
    assert (a @ b).matrix.tolist() == [[2, 1], [4, 3]]
    t = a.tensor(b)
    assert t.src_power == 2 and t.matrix.shape == (4, 4)
    # first factor most significant: top-left block is a[0,0] * b
    assert t.matrix[:2, :2].tolist() == [[0, 1], [1, 0]]
    with pytest.raises(InputError):
        a @ LinMap(F5, 2, 1, 2, np.zeros((4, 2), np.int64))
    with pytest.raises(InputError):
        a @ LinMap(F3, 2, 1, 1, np.eye(2, dtype=np.int64))
    with pytest.raises(InputError):
        a.tensor(LinMap(F5, 3, 1, 1, np.eye(3, dtype=np.int64)))


def test_linmap_immutable_and_identity():
    a = LinMap.identity(F3, 2, 0)
    assert a.matrix.shape == (1, 1)
    with pytest.raises(AttributeError):
        a.dim = 5
    with pytest.raises(ValueError):
        LinMap.identity(F3, 2).matrix[0, 0] = 2


def test_linmap_json_round_trip():
    a = LinMap(F5, 2, 2, 1, [[1, 2, 3, 4], [0, 1, 0, 1]])
    back = LinMap.from_json(json.loads(json.dumps(a.as_json())))
    assert back == a
    q = LinMap(F0, 2, 1, 1, [[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    back = LinMap.from_json(json.loads(json.dumps(q.as_json())))
    assert back == q and back.matrix[0, 0] == Fraction(1, 3)
    with pytest.raises(InputError):
        LinMap.from_json({"field": 3, "dim": 2})


# ---------------------------------------------------------------------------
# the regrouping permutation

def test_shuffle_positions_frozen():
    assert shuffle_positions(2) == [0, 2, 1, 3]
    assert shuffle_positions(3) == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    with pytest.raises(InputError):
        shuffle_positions(1)


def test_shuffle_perm_involution():
    sp = shuffle_perm(2, 2, F3)
    assert (sp @ sp) == LinMap.identity(F3, 2, 4)
    sp3 = shuffle_perm(3, 2, F2)
    assert (sp3 @ sp3) == LinMap.identity(F2, 2, 9)


def test_shuffle_perm_guardrail():
    with pytest.raises(InputError):
        shuffle_perm(3, 3)


# ---------------------------------------------------------------------------
# comonoids

def test_comonoid_validation():
    H = z2_hopf()
    com = H.comonoid()
    assert com.dim == 2
    # a non-coassociative delta: send both basis vectors to e0 x e1
    bad = np.zeros((4, 2), np.int64)
    bad[1, 0] = bad[1, 1] = 1
    with pytest.raises(InputError):
        ComonoidObject(2, LinMap(F3, 2, 1, 2, bad), H.counit)
    # grouplike delta with a counit that misses one basis vector
    eps = LinMap(F3, 2, 1, 0, [[1, 0]])
    with pytest.raises(InputError):
        ComonoidObject(2, H.delta, eps)


def test_delta_n_grouplike_and_primitive():
    com = z2_hopf().comonoid()
    d3 = com.delta_n(3)
    assert d3.dst_power == 3
    for g in range(2):
        col = np.flatnonzero(d3.matrix[:, g])
        assert list(col) == [g * 4 + g * 2 + g]
    assert com.delta_n(0) == com.counit
    assert com.delta_n(1) == LinMap.identity(F3, 2)
    # ground-field-plus-carrier comonoid: the carrier line is primitive, so
    # the triple copy has one term per slot
    lie = lie_to_binary_sd(nonabelian_lie())
    d3 = lie.comonoid.delta_n(3)
    col = d3.matrix[:, 1]
    hits = {int(i) for i in np.flatnonzero(col)}
    assert hits == {1 * 9, 1 * 3, 1} and all(col[i] == 1 for i in hits)


def test_delta_n_counit_collapse():
    com = lie_to_binary_sd(nonabelian_lie()).comonoid
    ident = LinMap.identity(com.field, com.dim)
    d3 = com.delta_n(3)
    assert ident.tensor(ident).tensor(com.counit) @ d3 == com.delta_n(2)
    assert com.counit.tensor(ident).tensor(ident) @ d3 == com.delta_n(2)


# ---------------------------------------------------------------------------
# the distributivity check itself

def test_heap_z2_holds_and_matches_table():
    heap = hopf_heap(z2_hopf())
    assert check_nary_sd(heap).holds
    assert basis_table(heap) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert basis_table(heap) == list(heap_op(cyclic_group(2)).table)


def test_perturbed_entry_fails_with_witness():
    heap = hopf_heap(z2_hopf())
    bad = np.array(heap.w.matrix)
    bad[0, 0] = (bad[0, 0] + 1) % 3
    obj = SDObject(heap.comonoid, 3, LinMap(F3, 2, 3, 1, bad), verify=False)
    res = check_nary_sd(obj)
    assert not res.holds
    assert res.counterexample.witness == (0, (1, 1, 1, 0, 1))
    assert (res.counterexample.lhs, res.counterexample.rhs) == (1, 2)
    assert "self-distributivity" in res.detail
    with pytest.raises(PreconditionError):
        SDObject(heap.comonoid, 3, LinMap(F3, 2, 3, 1, bad))


def test_projection_with_counits_holds():
    com = z2_hopf().comonoid()
    ident = LinMap.identity(F3, 2)
    w = ident.tensor(com.counit).tensor(com.counit)
    assert check_nary_sd(SDObject(com, 3, w, verify=False)).holds
    # and at arity 4, which exercises the longer copy chain
    w4 = w.tensor(com.counit)
    assert check_nary_sd(SDObject(com, 4, w4, verify=False)).holds


def test_group_multiplication_is_not_sd():
    H = group_algebra_hopf(cyclic_group(3), F5)
    obj = SDObject(H.comonoid(), 2, H.mult, verify=False)
    res = check_nary_sd(obj)
    assert not res.holds and res.counterexample is not None


def big_grouplike_comonoid(d):
    delta = np.zeros((d * d, d), np.int64)
    for a in range(d):
        delta[a * d + a, a] = 1
    return ComonoidObject(d, LinMap(F3, d, 1, 2, delta),
                          LinMap(F3, d, 1, 0, np.ones((1, d), np.int64)))


def test_check_guardrail():
    com = big_grouplike_comonoid(16)
    w = LinMap.identity(F3, 16).tensor(com.counit).tensor(com.counit)
    with pytest.raises(InputError):
        check_nary_sd(SDObject(com, 3, w, verify=False))


def test_basis_change_invariance():
    # conjugating every structure map by an invertible matrix preserves the
    # verdict, both ways
    obj = lie_to_binary_sd(nonabelian_lie())
    d, p = obj.comonoid.dim, 5
    rng = random.Random(0xC4A)
    for _ in range(4):
        while True:
            P = np.array([[rng.randrange(p) for _ in range(d)]
                          for _ in range(d)], dtype=np.int64)
            try:
                Pi = inv_mod(P, p)
                break
            except StopIteration:
                continue
        Pm = LinMap(F5, d, 1, 1, P)
        Pim = LinMap(F5, d, 1, 1, Pi)
        delta = Pm.tensor(Pm) @ obj.comonoid.delta @ Pim
        counit = obj.comonoid.counit @ Pim
        com = ComonoidObject(d, delta, counit)
        w = Pm @ obj.w @ Pim.tensor(Pim)
        assert check_nary_sd(SDObject(com, 2, w, verify=False)).holds
        bad = np.array(w.matrix)
        bad[1, 2] = (bad[1, 2] + 1) % p
        res = check_nary_sd(SDObject(com, 2, LinMap(F5, d, 2, 1, bad),
                                     verify=False))
        assert not res.holds


# ---------------------------------------------------------------------------
# Lie carriers

def test_lie_validation():
    nonabelian_lie()
    B = np.zeros((2, 4), np.int64)
    B[0, 0] = 1                      # [e1, e1] nonzero
    with pytest.raises(InputError):
        LieAlgebraObject(2, LinMap(F5, 2, 2, 1, B))
    B = np.zeros((2, 4), np.int64)
    B[1, 1] = 1
    B[1, 2] = 1                      # [e1,e2] = [e2,e1], not antisymmetric
    with pytest.raises(InputError):
        LieAlgebraObject(2, LinMap(F5, 2, 2, 1, B))
    # antisymmetric but failing the Jacobi identity in dimension 3
    B = np.zeros((3, 9), np.int64)
    B[0, 0 * 3 + 1] = 1
    B[0, 1 * 3 + 0] = 4              # [e1,e2] = e1
    B[2, 0 * 3 + 2] = 1
    B[2, 2 * 3 + 0] = 4              # [e1,e3] = e3
    with pytest.raises(InputError):
        LieAlgebraObject(3, LinMap(F5, 3, 2, 1, B))


def test_lie_to_binary_sd_families():
    # abelian, dimension 1: (a,x),(b,y) -> (ab, bx)
    La = LieAlgebraObject(1, LinMap(F5, 1, 2, 1, np.zeros((1, 1), np.int64)))
    obj = lie_to_binary_sd(La)
    assert obj.w.matrix.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]
    # zero-dimensional carrier: just the ground field
    L0 = LieAlgebraObject(0, LinMap(F5, 0, 2, 1, np.zeros((0, 0), np.int64)))
    triv = lie_to_binary_sd(L0)
    assert triv.comonoid.dim == 1 and triv.w.matrix.tolist() == [[1]]
    # the nonabelian two-dimensional algebra passes construction-time checks
    assert lie_to_binary_sd(nonabelian_lie()).arity == 2


def test_categorical_double_closed_formula():
    dbl = categorical_double(lie_to_binary_sd(nonabelian_lie()))
    nz = sorted((int(r), int(c), int(dbl.w.matrix[r, c]))
                for r, c in zip(*np.nonzero(dbl.w.matrix)))
    assert nz == [(0, 0, 1), (1, 9, 1), (2, 11, 1), (2, 15, 1), (2, 16, 4),
                  (2, 18, 1), (2, 19, 4), (2, 21, 4), (2, 22, 1)]
    with pytest.raises(InputError):
        categorical_double(dbl)


def test_double_equals_formula_on_heisenberg():
    # independent route: build the ternary operation from the closed formula
    # (a,x),(b,y),(c,z) -> (abc, bc x + c[x,y] + b[x,z] + [[x,y],z]) and
    # compare with doubling, on a second algebra over another prime
    dl, p = 3, 7
    B = np.zeros((dl, dl * dl), np.int64)
    B[2, 0 * dl + 1] = 1
    B[2, 1 * dl + 0] = p - 1          # [e1,e2] = e3, center e3
    L = LieAlgebraObject(dl, LinMap(F7, dl, 2, 1, B))
    dbl = categorical_double(lie_to_binary_sd(L))
    d = dl + 1

    def br(i, j):
        return B[:, i * dl + j]

    T = np.zeros((d, d ** 3), np.int64)
    T[0, 0] = 1
    for i in range(dl):
        T[1 + i, (1 + i) * d * d] = 1
        for j in range(dl):
            for col, vec in (
                    (((1 + i) * d + (1 + j)) * d, br(i, j)),
                    ((1 + i) * d * d + (1 + j), br(i, j))):
                T[1:, col] = (T[1:, col] + vec) % p
            for k in range(dl):
                col = ((1 + i) * d + (1 + j)) * d + (1 + k)
                acc = np.zeros(dl, np.int64)
                for t in range(dl):
                    acc = (acc + br(i, j)[t] * br(t, k)) % p
                T[1:, col] = (T[1:, col] + acc) % p
    assert np.array_equal(dbl.w.matrix, T)


def test_abelian_double_formula():
    La = LieAlgebraObject(1, LinMap(F5, 1, 2, 1, np.zeros((1, 1), np.int64)))
    dbl = categorical_double(lie_to_binary_sd(La))
    nz = sorted((int(r), int(c)) for r, c in zip(*np.nonzero(dbl.w.matrix)))
    # (abc, bc x): only the all-units column and the x-only column survive
    assert nz == [(0, 0), (1, 4)]


def test_char_zero_lie():
    B = F0.zeros((2, 4))
    B[1, 1] = Fraction(1, 2)
    B[1, 2] = Fraction(-1, 2)
    L = LieAlgebraObject(2, LinMap(F0, 2, 2, 1, B))
    dbl = categorical_double(lie_to_binary_sd(L))
    assert dbl.w.matrix[2, 15] == Fraction(1, 2)
    assert dbl.w.matrix[2, 16] == Fraction(-1, 4)
    back = SDObject.from_json(json.loads(json.dumps(dbl.as_json())))
    assert back == dbl


# ---------------------------------------------------------------------------
# Hopf carriers

def test_group_algebra_axioms():
    assert z2_hopf().dim == 2
    assert group_algebra_hopf(symmetric_group(3), F2).dim == 6
    assert group_algebra_hopf(cyclic_group(1), F5).dim == 1


def test_hopf_validation_catches_bad_antipode():
    g = cyclic_group(3)
    H = group_algebra_hopf(g, F5)
    with pytest.raises(InputError) as err:
        HopfAlgebraObject(3, H.unit, H.mult, H.delta, H.counit,
                          LinMap.identity(F5, 3))
    assert "antipode" in str(err.value)


def test_hopf_validation_catches_bad_compat():
    # multiplication from Z4, comultiplication duplicating: fine; break the
    # multiplication into a non-associative table instead
    d = 2
    mult = np.zeros((d, d * d), np.int64)
    mult[0, 0] = mult[1, 1] = mult[1, 2] = mult[1, 3] = 1
    H = z2_hopf()
    with pytest.raises(InputError):
        HopfAlgebraObject(2, H.unit, LinMap(F3, 2, 2, 1, mult), H.delta,
                          H.counit, H.antipode)


def test_hopf_guardrail():
    with pytest.raises(InputError):
        group_algebra_hopf(cyclic_group(25), F3)


def test_hopf_json_round_trip():
    H = z2_hopf()
    back = HopfAlgebraObject.from_json(json.loads(json.dumps(H.as_json())))
    assert back.mult == H.mult and back.antipode == H.antipode


def test_s3_heap():
    s3 = symmetric_group(3)
    heap = hopf_heap(group_algebra_hopf(s3, F2))
    assert basis_table(heap) == list(heap_op(s3).table)


def test_adjoint_tables():
    adj = hopf_adjoint_ternary(z2_hopf())
    assert basis_table(adj) == [0, 0, 0, 0, 1, 1, 1, 1]
    s3 = symmetric_group(3)
    adj6 = hopf_adjoint_ternary(group_algebra_hopf(s3, F2))
    tab = basis_table(adj6)
    assert [tab[(1 * 6 + 2) * 6 + 3], tab[(3 * 6 + 1) * 6 + 0],
            tab[(5 * 6 + 4) * 6 + 2]] == [2, 4, 5]
    # iterated conjugation: acting by the second tail after the first
    conj = conj_quandle(s3).table
    for g, h, k in itertools.product(range(6), repeat=3):
        assert tab[(g * 6 + h) * 6 + k] == conj[conj[g * 6 + h] * 6 + k]


def test_char_zero_heap():
    heap = hopf_heap(z2_hopf(F0))
    assert check_nary_sd(heap).holds
    assert heap.w.matrix[0, 0] == Fraction(1)


# ---------------------------------------------------------------------------
# augmented operations

def test_augmented_heap_pairing():
    H = z2_hopf()
    com = H.comonoid()
    ident = LinMap.identity(F3, 2)
    p_map = H.mult @ H.antipode.tensor(ident)
    assert check_augmented_hopf(p_map, H, com, H.mult).holds
    derived = augmented_operation(p_map, H, com, H.mult)
    assert derived.w == hopf_heap(H).w


def test_augmented_constant_pairing():
    H = z2_hopf()
    com = H.comonoid()
    p_const = H.unit @ com.counit.tensor(com.counit)
    assert check_augmented_hopf(p_const, H, com, H.mult).holds


def test_augmented_perturbed_pairing_fails():
    # redirect one basis pair to the other group element: still a coalgebra
    # morphism, but the axiom breaks
    H = z2_hopf()
    com = H.comonoid()
    pm = np.zeros((2, 4), np.int64)
    for a, b in itertools.product(range(2), repeat=2):
        pm[(a + b) % 2, a * 2 + b] = 1
    pm[:, 3] = [0, 1]
    res = check_augmented_hopf(LinMap(F3, 2, 2, 1, pm), H, com, H.mult)
    assert not res.holds
    assert res.detail == "augmentation axiom fails"
    assert res.counterexample.witness == (0, (0, 0, 1))
    assert (res.counterexample.lhs, res.counterexample.rhs) == (0, 1)


def test_augmented_preconditions_are_distinct_errors():
    H = z2_hopf()
    com = H.comonoid()
    ident = LinMap.identity(F3, 2)
    p_map = H.mult @ H.antipode.tensor(ident)
    with pytest.raises(PreconditionError) as err:
        check_augmented_hopf(LinMap(F3, 2, 2, 1, np.zeros((2, 4), np.int64)),
                             H, com, H.mult)
    assert "coalgebra" in str(err.value)
    bad_action = LinMap(F3, 2, 2, 1, np.eye(2, 4, dtype=np.int64))
    with pytest.raises(PreconditionError) as err:
        check_augmented_hopf(p_map, H, com, bad_action)
    assert "module" in str(err.value)
    with pytest.raises(InputError):
        check_augmented_hopf(p_map, group_algebra_hopf(cyclic_group(3), F3),
                             com, H.mult)


def test_augmented_guardrail(monkeypatch):
    from selfdist import linear as linear_mod
    monkeypatch.setattr(linear_mod, "MAX_AUGMENTED_ENTRIES", 100)
    H = z2_hopf()
    com = H.comonoid()
    ident = LinMap.identity(F3, 2)
    with pytest.raises(InputError):
        check_augmented_hopf(H.mult @ H.antipode.tensor(ident), H, com,
                             H.mult)


def test_augmented_s3():
    H = group_algebra_hopf(symmetric_group(3), F2)
    com = H.comonoid()
    ident = LinMap.identity(F2, 6)
    p_map = H.mult @ H.antipode.tensor(ident)
    assert check_augmented_hopf(p_map, H, com, H.mult).holds
    assert augmented_operation(p_map, H, com, H.mult).w == hopf_heap(H).w


# ---------------------------------------------------------------------------
# switching lemmas

def test_switching_lemmas():
    assert switching_lemmas_check(lie_to_binary_sd(nonabelian_lie())).holds
    La = LieAlgebraObject(1, LinMap(F5, 1, 2, 1, np.zeros((1, 1), np.int64)))
    assert switching_lemmas_check(lie_to_binary_sd(La)).holds
    # binary conjugation slice of a group algebra, on the grouplike basis
    s3 = symmetric_group(3)
    conj = conj_quandle(s3).table
    q = np.zeros((6, 36), np.int64)
    for c in range(36):
        q[conj[c], c] = 1
    com = group_algebra_hopf(s3, F2).comonoid()
    obj = SDObject(com, 2, LinMap(F2, 6, 2, 1, q))
    assert switching_lemmas_check(obj).holds
    with pytest.raises(InputError):
        switching_lemmas_check(hopf_heap(z2_hopf()))
