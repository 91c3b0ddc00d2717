import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from selfdist import (ComonoidObject, Field, HopfAlgebraObject, InputError,
                      LieAlgebraObject, LinMap, OpTable, PreconditionError,
                      SDObject, augmented_operation, categorical_double,
                      check_augmented_hopf, check_nary_sd, cyclic_group,
                      dihedral_group, enumerate_operations, group_algebra_hopf,
                      hopf_adjoint_ternary, hopf_heap, is_nary_distributive,
                      lie_to_binary_sd, switching_lemmas_check,
                      symmetric_group)
from selfdist import limits
from selfdist import linear as linear_mod
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
# the regrouping permutation, which the composite oracle below applies


def shuffle_positions(n: int) -> list:
    """Source slot order regrouping n heads and n-1 copied tails.

    Source order: x_1..x_n followed by n-1 blocks a_k1..a_kn (the k-th copy
    block); target order: the n groups (x_j, a_1j, ..., a_(n-1)j).  Returned
    as 0-based source slots listed in target order.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    out = []
    for j in range(n):
        out.append(j)
        for k in range(n - 1):
            out.append(n + k * n + j)
    return out


def shuffle_perm(n: int, d: int, field: Field | None = None) -> LinMap:
    """The regrouping permutation on the n^2-th power."""
    field = field if field is not None else F0
    return linear_mod._perm_map(field, d, n * n, shuffle_positions(n))


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
    # 3^9 sparse entries fit the budget; 7^9 do not, and 10^25 basis
    # vectors do not fit int64 at all
    sp = shuffle_perm(3, 3, F2)
    assert sp.nnz == 3 ** 9 and sp @ sp == LinMap.identity(F2, 3, 9)
    with pytest.raises(InputError, match="budget"):
        shuffle_perm(3, 7)
    with pytest.raises(InputError, match="int64"):
        shuffle_perm(5, 10)


def test_huge_tensor_power_is_refused_without_computing_it():
    # 2^(2^63) basis vectors: refused from saturated powers, not computed
    obj = {"field": 3, "dim": 2, "src_power": 2 ** 63, "dst_power": 1,
           "matrix": [[0, 0, 0, 0], [0, 1, 2, 0]]}
    with pytest.raises(InputError, match="int64"):
        LinMap.from_json(obj)
    with pytest.raises(InputError, match="int64"):
        LinMap.identity(F3, 2, 2 ** 70)


# ---------------------------------------------------------------------------
# comonoids

def test_comonoid_validation():
    H = z2_hopf()
    com = H.comonoid()
    assert com.dim == 2
    # validated once, when the Hopf algebra was built
    assert H.comonoid() is com
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
    # the first failing input: W(2 e0, e0, e1) = 2 e1 against
    # W(e1, e1, e1) = e1, which differ first in row 1
    assert res.counterexample.witness == (1, (0, 0, 0, 0, 1))
    assert (res.counterexample.lhs, res.counterexample.rhs) == (2, 1)
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


def test_check_refuses_many_term_combinations():
    # the function comonoid of D7 copies delta_g into the 14^2 terms
    # delta_h x delta_k x delta_l with hkl = g.  Its ternary check fits the
    # dense budget (14^6 entries) but has 2744^2 term combinations, each a
    # 14^4-entry block, so it is refused before any of them is formed.
    g = dihedral_group(7)
    d = g.size
    delta = np.zeros((d * d, d), np.int64)
    for h in range(d):
        for k in range(d):
            delta[h * d + k, g.mul(h, k)] = 1
    counit = np.zeros((1, d), np.int64)
    counit[0, g.identity] = 1
    com = ComonoidObject(d, LinMap(F3, d, 1, 2, delta),
                         LinMap(F3, d, 1, 0, counit))
    assert com.delta_n(3).nnz == d ** 3
    w = LinMap.identity(F3, d).tensor(com.counit).tensor(com.counit)
    with pytest.raises(InputError, match="term combinations"):
        check_nary_sd(SDObject(com, 3, w, verify=False))


def test_basis_change_invariance():
    # conjugating every structure map by an invertible matrix preserves the
    # verdict, both ways; the conjugated comultiplication has terms with
    # coefficients other than 1, which the ternary check multiplies
    p = 5
    rng = random.Random(0xC4A)
    for obj in (lie_to_binary_sd(nonabelian_lie()),
                hopf_heap(group_algebra_hopf(cyclic_group(2), F5))):
        d, n = obj.comonoid.dim, obj.arity
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
            spread = Pim
            for _ in range(n - 1):
                spread = spread.tensor(Pim)
            w = Pm @ obj.w @ spread
            assert check_nary_sd(SDObject(com, n, w, verify=False)).holds
            bad = np.array(w.matrix)
            bad[1, 2] = (bad[1, 2] + 1) % p
            res = check_nary_sd(SDObject(com, n, LinMap(F5, d, n, 1, bad),
                                         verify=False))
            assert not res.holds


# ---------------------------------------------------------------------------
# Lie carriers

def test_lie_validation():
    nonabelian_lie()
    for col in (0, 3):               # [e1, e1], then [e2, e2], nonzero
        B = np.zeros((2, 4), np.int64)
        B[0, col] = 1
        with pytest.raises(InputError, match="with itself"):
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
    # the group algebra of C25 costs about 25^4 entries as sparse maps, once
    # refused as 25^6 dense ones; C60's 60^4-entry tensor square is over
    H = group_algebra_hopf(cyclic_group(25), F3)
    assert H.dim == 25 and H.mult.nnz == 25 ** 2
    with pytest.raises(InputError, match="budget"):
        group_algebra_hopf(cyclic_group(60), F3)


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
    H = z2_hopf()
    com = H.comonoid()
    p_map = H.mult @ H.antipode.tensor(LinMap.identity(F3, 2))
    monkeypatch.setattr(limits, "BYTES", 24 * 8)        # 8 sparse terms
    with pytest.raises(InputError, match="budget"):
        check_augmented_hopf(p_map, H, com, H.mult)


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


# ---------------------------------------------------------------------------
# sparse maps against dense arithmetic

def random_map(rng, field, dim, src, dst, density):
    p = field.characteristic
    mat = field.zeros((dim ** dst, dim ** src))
    for r, c in itertools.product(range(mat.shape[0]), range(mat.shape[1])):
        if rng.random() < density:
            mat[r, c] = (rng.randrange(1, p) if p
                         else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
    return mat, LinMap(field, dim, src, dst, mat)


def dense_reduce(field, mat):
    return mat % field.characteristic if field.characteristic else mat


@pytest.mark.parametrize("field", [F2, F5, F0])
def test_sparse_maps_match_dense_oracle(field):
    rng = random.Random(0x5EED + field.characteristic)
    for trial in range(12):
        dim = rng.choice([1, 2, 3])
        a_src, mid, b_dst = (rng.randrange(0, 3) for _ in range(3))
        density = rng.choice([0.0, 0.1, 0.4, 1.0])
        A, a = random_map(rng, field, dim, mid, b_dst, density)
        B, b = random_map(rng, field, dim, a_src, mid, density)
        assert np.array_equal(a.matrix, A) and np.array_equal(b.matrix, B)
        assert a.nnz == int(np.count_nonzero(A != 0))
        assert np.array_equal((a @ b).matrix, dense_reduce(field, np.dot(A, B)))
        assert np.array_equal(a.tensor(b).matrix,
                              dense_reduce(field, np.kron(A, B)))
        assert a @ b == LinMap(field, dim, a_src, b_dst, np.dot(A, B))
        assert (a + (-a)).nnz == 0
        assert np.array_equal((a + a).matrix, dense_reduce(field, A + A))
        if a.nnz:
            bumped = np.array(A)
            r, c = int(a.rows[0]), int(a.cols[0])
            bumped[r, c] = bumped[r, c] + 1
            assert LinMap(field, dim, mid, b_dst, bumped) != a
            assert a.entry(r, c) == A[r, c]


def test_sparse_storage_is_canonical():
    # column-major order with zeros dropped, and read-only arrays
    m = LinMap(F5, 2, 1, 1, [[0, 3], [5, 2]])
    assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == \
        ([0, 1], [1, 1], [3, 2])
    with pytest.raises(ValueError):
        m.vals[0] = 1
    swap = linear_mod._perm_map(F5, 2, 2, [1, 0])
    assert swap.matrix.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0],
                                    [0, 1, 0, 0], [0, 0, 0, 1]]


def test_entry_refuses_positions_outside_the_map():
    # entries are keyed column * rows + row, so row 2 of column 0 would
    # read row 0 of column 1
    m = LinMap(F5, 2, 1, 1, [[1, 2], [3, 4]])
    assert [m.entry(r, c) for r in range(2) for c in range(2)] == [1, 2, 3, 4]
    for r, c in ((2, 0), (-1, 0), (0, 5), (0, -1), (0, 2)):
        with pytest.raises(InputError, match="outside a 2 x 2 map"):
            m.entry(r, c)
    assert LinMap(F0, 2, 1, 0, [[0, 1]]).entry(0, 1) == Fraction(1)


def test_budget_is_charged_before_allocation(monkeypatch):
    ident = LinMap.identity(F2, 2, 20)          # 2^20 entries, sparse
    with pytest.raises(InputError, match="dense matrix"):
        ident.matrix                             # 2^40 dense entries
    monkeypatch.setattr(limits, "BYTES", 24 * 1000)     # 1000 sparse terms
    monkeypatch.setattr(limits, "STEPS", 1000)
    with pytest.raises(InputError, match="tensor product"):
        LinMap.identity(F2, 2, 5).tensor(LinMap.identity(F2, 2, 5))
    with pytest.raises(InputError, match="composition"):
        full = LinMap(F2, 2, 5, 5, np.ones((32, 32), np.int64))
        full @ full                              # 32^3 products
    # the copy of the monoid {e, a}, a·a = a, has 16 terms at arity 4, so
    # 16^3 combinations, where the dense sides hold only 2^8 entries
    com = monoid_dual_comonoid([[0, 1], [1, 1]], F2)
    proj = LinMap.identity(F2, 2).tensor(com.counit).tensor(
        com.counit).tensor(com.counit)
    with pytest.raises(InputError, match="combinations"):
        check_nary_sd(SDObject(com, 4, proj, verify=False))


def dense_adjoint_w(H):
    # the dense construction: spread the tails, reorder by transposing, apply
    # the antipodes by tensordot, multiply out
    d, field = H.dim, H.field
    delta = H.delta.matrix
    spread = np.kron(np.kron(np.eye(d, dtype=np.int64), delta), delta)
    M = spread.reshape((d,) * 5 + (d ** 3,))
    M = M.transpose(3, 1, 0, 2, 4, 5).reshape(d * d, d ** 3, d ** 3)
    SS = np.kron(H.antipode.matrix, H.antipode.matrix)
    M = field.reduce(np.tensordot(SS, M, axes=([1], [0])))
    m_fold = H.mult.matrix
    for _ in range(3):
        m_fold = field.reduce(np.dot(
            H.mult.matrix, np.kron(m_fold, np.eye(d, dtype=np.int64))))
    return field.reduce(np.dot(m_fold, M.reshape(d ** 5, d ** 3)))


def test_adjoint_matches_dense_oracle():
    for g, field in ((cyclic_group(2), F3), (symmetric_group(3), F2),
                     (dihedral_group(3), F3), (cyclic_group(6), F5),
                     (cyclic_group(3), F0)):
        H = group_algebra_hopf(g, field)
        assert np.array_equal(hopf_adjoint_ternary(H).w.matrix,
                              dense_adjoint_w(H))


def test_adjoint_memory_is_small(run_fresh):
    # a fresh process: building and verifying the order-6 adjoint object
    # adds a few MB at most to the peak resident set.  The peak is read from
    # VmHWM, which starts afresh at exec; ru_maxrss is carried across fork
    # and exec, so it may report the test run's own peak.
    code = (
        "from selfdist import Field, cyclic_group, group_algebra_hopf,"
        " hopf_adjoint_ternary\n"
        "def peak():\n"
        "    return next(int(line.split()[1]) for line in"
        " open('/proc/self/status') if line.startswith('VmHWM'))\n"
        "g, field = cyclic_group(6), Field(5)\n"
        "before = peak()\n"
        "hopf_adjoint_ternary(group_algebra_hopf(g, field))\n"
        "print(peak() - before)\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 1024, f"added {int(proc.stdout)} KiB"


# each builds a map of about 1.5M-1.9M products from random sparse maps over
# F7: a compose whose keys are dense enough to count, one whose keys are
# spread so that it sorts, and a tensor product, which keeps every term
TERM_PATHS = {
    "counted": "m, w = rand(6, 3, 3, 23000), rand(6, 3, 3, 23000)\n"
               "call = lambda: m.compose(w)\n",
    "sorted": "m, w = rand(8, 4, 4, 50000), rand(8, 4, 4, 8 ** 4 * 30)\n"
              "call = lambda: m.compose(w)\n",
    "tensor": "m, w = rand(6, 2, 2, 1100), rand(6, 3, 3, 1400)\n"
              "call = lambda: m.tensor(w)\n",
}


@pytest.mark.parametrize("path", sorted(TERM_PATHS))
def test_term_charge_covers_peak_growth(path, run_fresh):
    # in a fresh process, the peak resident growth of one build stays within
    # 1.5 times the bytes `_charge_terms` charged for it.  VmHWM starts
    # afresh at exec; the inputs are small, so the build sets the peak.
    code = (
        "import numpy as np\n"
        "from selfdist import Field, LinMap, limits\n"
        "def status(key):\n"
        "    return next(int(line.split()[1]) * 1024 for line in"
        " open('/proc/self/status') if line.startswith(key))\n"
        "rng = np.random.default_rng(5)\n"
        "def rand(d, src, dst, nnz):\n"
        "    rows = rng.integers(0, d ** dst, nnz)\n"
        "    cols = rng.integers(0, d ** src, nnz)\n"
        "    return LinMap._from_entries(Field(7), d, src, dst, rows, cols,\n"
        "                                rng.integers(1, 7, nnz))\n"
        + TERM_PATHS[path] +
        "charged = []\n"
        "charge = limits.charge_bytes\n"
        "limits.charge_bytes = lambda need, what: (charged.append(need),"
        " charge(need, what))\n"
        "before, start = status('VmHWM'), status('VmRSS')\n"
        "call()\n"
        "print(max(charged), start, before, status('VmHWM'))\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    charged, start, before, peak = map(int, proc.stdout.split())
    assert peak > before and before - start < charged / 10
    assert peak - start <= 1.5 * charged, (path, charged, peak - start)


# ---------------------------------------------------------------------------
# Hopf objects against independent table scans

ANCHOR_GROUPS = [cyclic_group(n) for n in range(2, 7)] + [symmetric_group(3),
                                                         dihedral_group(4)]


def iterated_conj_table(g):
    conj = np.asarray(conj_quandle(g).table).reshape(g.size, g.size)
    x, y, z = np.indices((g.size,) * 3)
    return conj[conj[x, y], z].ravel()


def table_sides(op):
    # both sides of k-ary distributivity on every basis (2k - 1)-tuple of
    # heads x and tails y, in lexicographic order
    d, k = op.size, op.arity
    T = np.asarray(op.table).reshape((d,) * k)
    digits = np.indices((d,) * (2 * k - 1)).reshape(2 * k - 1, -1)
    x, y = digits[:k], tuple(digits[k:])
    lhs = T[(T[tuple(x)],) + y]
    rhs = T[tuple(T[(xi,) + y] for xi in x)]
    return lhs, rhs


@pytest.mark.parametrize("g", ANCHOR_GROUPS, ids=lambda g: f"order{g.size}")
def test_hopf_objects_agree_with_table_scans(g):
    field = F5 if g.size % 5 else F3
    H = group_algebra_hopf(g, field)
    com = H.comonoid()
    for obj, table in ((hopf_heap(H), heap_op(g).table),
                       (hopf_adjoint_ternary(H), iterated_conj_table(g))):
        assert basis_table(obj) == list(table)
        op = OpTable(g.size, 3, table)
        assert bool(check_nary_sd(obj)) == bool(is_nary_distributive(op))
        assert check_nary_sd(obj).holds
    # one seeded perturbed entry in each table: the verdicts agree (a
    # perturbed projection can stay distributive, a perturbed heap cannot)
    for name, table in (("heap", heap_op(g).table),
                        ("conj", iterated_conj_table(g))):
        bad = perturbed(OpTable(g.size, 3, table), random.Random(0xA7C + g.size))
        lin = linearized(bad, field)
        assert lin.comonoid == com      # the group algebra's comonoid
        res = check_nary_sd(lin)
        scan = is_nary_distributive(bad)
        assert res.holds == scan.holds
        assert res.holds or witnesses_agree(res, scan, bad)
        assert name != "heap" or not res.holds


def perturbed(op, rng):
    # one entry moved to another point
    d = op.size
    table = np.array(op.table)
    pos = rng.randrange(table.size)
    table[pos] = (table[pos] + rng.randrange(1, d)) % d
    return OpTable(d, op.arity, table)


def witnesses_agree(res, scan, op):
    # the scan's witness is the first failing tuple in lexicographic order,
    # and over k[X] the linear check's is the same basis input: its sides
    # are the basis vectors of the scan's two values, which differ first in
    # the row of the lesser one
    lhs, rhs = table_sides(op)
    first = int(np.flatnonzero(lhs != rhs)[0])
    cex = scan.counterexample
    assert tuple(cex.witness) == tuple(
        int(v) for v in np.unravel_index(first, (op.size,) * len(cex.witness)))
    assert (cex.lhs, cex.rhs) == (lhs[first], rhs[first])
    row = min(cex.lhs, cex.rhs)
    assert res.counterexample.witness == (row, tuple(cex.witness))
    assert (res.counterexample.lhs, res.counterexample.rhs) == (
        int(cex.lhs == row), int(cex.rhs == row))
    return True


def test_large_prime_check_matches_rationals():
    # products of residues pass 2^52 for p = 2^26 - 5, and for 2^31 - 1 and
    # 3037000493, the largest prime with (p-1)^2 < 2^63, they come near
    # 2^62 and 2^63; the verdict and witness must be the rational ones
    # reduced mod p, on bumps by -2 and 3 at one entry and four seeded ones
    for p in (67108859, 2 ** 31 - 1, 3037000493):
        Fp = Field(p)
        rng = random.Random(p)
        bumps = [((0, 1), -2), ((0, 1), 3)] + [
            ((rng.randrange(2), rng.randrange(8)), rng.choice((-3, -2, 2, 3)))
            for _ in range(4)]
        for at, bump in bumps:
            sides = []
            for field in (Fp, F0):
                heap = hopf_heap(z2_hopf(field))
                bad = np.array(heap.w.matrix)
                bad[at] = bad[at] + bump
                sides.append(check_nary_sd(SDObject(
                    heap.comonoid, 3, LinMap(field, 2, 3, 1, bad),
                    verify=False)))
            mod_p, rational = sides
            assert not mod_p.holds and not rational.holds
            got, want = mod_p.counterexample, rational.counterexample
            assert got.witness == want.witness
            assert (got.lhs, got.rhs) == (int(want.lhs) % p, int(want.rhs) % p)


def test_primes_beyond_exact_int64_products_are_refused():
    # refused before the trial-division primality test, which would take
    # minutes on the second one
    for p in (3037000507, 4294967311, 4611686018427387847):
        with pytest.raises(InputError, match="int64"):
            Field(p)
    # the largest prime with (p-1)^2 < 2^63 composes exactly
    p = 3037000493
    F = Field(p)
    m = LinMap(F, 1, 1, 1, [[p - 1]])
    assert (m @ m).matrix.tolist() == [[1]]
    assert m.tensor(m).matrix.tolist() == [[1]]
    # a check reduces each product before it sums, so it runs for that
    # prime too
    com = ComonoidObject(1, LinMap(F, 1, 1, 2, [[1]]),
                         LinMap(F, 1, 1, 0, [[1]]))
    w = LinMap(F, 1, 2, 1, [[p - 1]])
    res = check_nary_sd(SDObject(com, 2, w, verify=False))
    assert res.counterexample.witness == (0, (0, 0, 0))
    assert (res.counterexample.lhs, res.counterexample.rhs) == (1, p - 1)
    assert check_nary_sd(SDObject(com, 2, LinMap(F, 1, 2, 1, [[1]]))).holds
    heap = hopf_heap(group_algebra_hopf(cyclic_group(2), Field(2 ** 31 - 1)))
    assert check_nary_sd(heap).holds


# ---------------------------------------------------------------------------
# the distributivity check against the composite maps it abbreviates

def monoid_dual_comonoid(table, field):
    # functions on a finite monoid: e_m copies to the sum of e_x (x) e_y over
    # x·y = m, and the counit reads off the identity (element 0)
    M = np.asarray(table)
    d = len(M)
    delta = np.zeros((d * d, d), np.int64)
    for x, y in itertools.product(range(d), repeat=2):
        delta[x * d + y, M[x, y]] = 1
    counit = np.zeros((1, d), np.int64)
    counit[0, 0] = 1
    return ComonoidObject(d, LinMap(field, d, 1, 2, delta),
                          LinMap(field, d, 1, 0, counit))


def composite_sides(obj):
    # W (W (x) 1) against W W^(x)n P (1^n (x) copy_n^(n-1)), with P the
    # regrouping permutation
    com, n, w = obj.comonoid, obj.arity, obj.w
    field, d = com.field, com.dim
    lhs = w @ w.tensor(LinMap.identity(field, d, n - 1))
    copies = LinMap.identity(field, d, n)
    w_n = w
    for _ in range(n - 1):
        copies = copies.tensor(com.delta_n(n))
        w_n = w_n.tensor(w)
    rhs = w @ w_n @ shuffle_perm(n, d, field) @ copies
    return lhs.matrix, rhs.matrix


def test_check_matches_composite_oracle():
    # the monoid {e, a, b} with a·x = a and b·x = b makes a comonoid that
    # is not cocommutative, so the order of the copies matters
    rng = random.Random(0xD15)
    cases = []
    for field in (F2, F3):
        cases.append(monoid_dual_comonoid([[0, 1, 2], [1, 1, 1], [2, 2, 2]],
                                          field))
        cases.append(group_algebra_hopf(cyclic_group(3), field).comonoid())
    cases.append(lie_to_binary_sd(nonabelian_lie()).comonoid)
    for com in cases:
        field, d = com.field, com.dim
        p = field.characteristic
        for n in (2, 3):
            proj = LinMap.identity(field, d)
            for _ in range(n - 1):
                proj = proj.tensor(com.counit)
            base = np.array(proj.matrix)
            for trial in range(4):
                W = np.array(base)
                if trial == 1:
                    W[rng.randrange(d), rng.randrange(d ** n)] += 1
                elif trial > 1:
                    W = np.array([[rng.randrange(p) for _ in range(d ** n)]
                                  for _ in range(d)])
                obj = SDObject(com, n, LinMap(field, d, n, 1, W), verify=False)
                res = check_nary_sd(obj)
                lhs, rhs = composite_sides(obj)
                assert res.holds == np.array_equal(lhs, rhs)
                if trial == 0:
                    assert res.holds
                if not res.holds:
                    # the first differing column, then its first row
                    c, r = (int(v) for v in np.argwhere((lhs != rhs).T)[0])
                    want = (r, tuple(int(v) for v in
                                     np.unravel_index(c, (d,) * (2 * n - 1))))
                    assert res.counterexample.witness == want
                    assert (res.counterexample.lhs, res.counterexample.rhs) \
                        == (lhs[r, c], rhs[r, c])


# ---------------------------------------------------------------------------
# the sparse distributivity check against the dense contraction it replaced

def dense_check_nary_sd(obj):
    # per tail column and per combination of the iterated comultiplication's
    # terms, contract the operation densely: block axes (output, inputs not
    # yet contracted, heads so far); the verdict and witness of check_nary_sd
    com, n, w = obj.comonoid, obj.arity, obj.w
    d, field = com.dim, com.field
    p = field.characteristic
    delta = com.delta_n(n)
    Wm = w.matrix
    tails = d ** (n - 1)
    # left composite, laid out (output, head block, tail block)
    Wr = Wm.reshape(d, d, tails)
    lhs = np.tensordot(Wr, Wm, axes=([1], [0])).transpose(0, 2, 1)
    if p:
        lhs = lhs % p
    # the terms of column t are delta.rows[starts[t]:starts[t + 1]]
    starts = np.searchsorted(delta.cols, np.arange(d + 1))
    vals = delta.vals.tolist()
    digits = [np.unravel_index(r, (d,) * n) for r in delta.rows.tolist()]
    rhs = field.zeros((d, d ** n, tails))
    for tflat, tail in enumerate(itertools.product(range(d), repeat=n - 1)):
        for combo in itertools.product(
                *(range(starts[t], starts[t + 1]) for t in tail)):
            coeff = 1
            for k in combo:
                coeff = coeff * vals[k]
            if p:
                coeff %= p
            block = Wm
            for j in range(n):
                off = 0
                for k in combo:
                    off = off * d + int(digits[k][j])
                block = (block.reshape(d, d, -1).transpose(0, 2, 1)
                         @ Wr[:, :, off])
                if p:
                    block = block % p
            rhs[:, :, tflat] = (rhs[:, :, tflat]
                                + coeff * block.reshape(d, d ** n))
            if p:
                rhs[:, :, tflat] %= p
    if np.array_equal(lhs, rhs):
        return True, None
    # the first failing input, in lexicographic order, then its first
    # differing row
    lhs, rhs = lhs.reshape(d, -1), rhs.reshape(d, -1)
    c, r = (int(v) for v in np.argwhere((lhs != rhs).T)[0])
    inputs = tuple(int(v) for v in np.unravel_index(c, (d,) * (2 * n - 1)))
    return False, ((r, inputs), lhs[r, c], rhs[r, c])


def lie_over(field):
    # the two-dimensional nonabelian algebra [e1, e2] = e2 over any field
    B = field.zeros((2, 4))
    B[1, 1] = 1
    B[1, 2] = -1
    return LieAlgebraObject(2, LinMap(field, 2, 2, 1, field.reduce(B)))


def random_operation(rng, field, d, n, density):
    p = field.characteristic
    W = field.zeros((d, d ** n))
    for r, c in itertools.product(range(d), range(d ** n)):
        if rng.random() < density:
            W[r, c] = (rng.randrange(1, p) if p
                       else Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
    return LinMap(field, d, n, 1, W)


def projection_and_bumped(rng, com, n):
    # the projection through the counits, which holds, and the same with
    # one entry bumped
    field, d = com.field, com.dim
    proj = LinMap.identity(field, d)
    for _ in range(n - 1):
        proj = proj.tensor(com.counit)
    bumped = field.reduce(np.array(proj.matrix))
    bumped[rng.randrange(d), rng.randrange(d ** n)] += 1
    yield SDObject(com, n, proj, verify=False)
    yield SDObject(com, n, LinMap(field, d, n, 1, bumped), verify=False)


def oracle_objects():
    # drawn operations on grouplike (C2, C3) and primitive (Lie) comonoids,
    # arities 2 and 3, over F2, F5 and Q: a projection through the counits,
    # the same with one entry bumped, and random sparse operations
    rng = random.Random(0x5D0)
    for field in (F2, F5, F0):
        for com in (group_algebra_hopf(cyclic_group(2), field).comonoid(),
                    group_algebra_hopf(cyclic_group(3), field).comonoid(),
                    lie_to_binary_sd(lie_over(field)).comonoid):
            d = com.dim
            for n in (2, 3):
                yield from projection_and_bumped(rng, com, n)
                for density in (0.2, 0.6):
                    yield SDObject(com, n,
                                   random_operation(rng, field, d, n, density),
                                   verify=False)
    # objects that hold by construction
    for g, field in ((cyclic_group(3), F5), (symmetric_group(3), F2),
                     (cyclic_group(2), F0)):
        H = group_algebra_hopf(g, field)
        com = H.comonoid()
        ident = LinMap.identity(field, g.size)
        yield hopf_heap(H)
        yield hopf_adjoint_ternary(H)
        yield SDObject(com, 3, ident.tensor(com.counit).tensor(com.counit))
        yield augmented_operation(H.mult @ H.antipode.tensor(ident), H, com,
                                  H.mult)
    for field in (F2, F5, F0):
        binary = lie_to_binary_sd(lie_over(field))
        yield binary
        yield categorical_double(binary)
    yield lie_to_binary_sd(nonabelian_lie())
    # high arities, where the n^2-th power of the regrouped copies would
    # have more positions than int64 holds
    for g, n, field in ((7, 4, F2), (4, 5, F5), (3, 6, F2)):
        com = group_algebra_hopf(cyclic_group(g), field).comonoid()
        yield from projection_and_bumped(rng, com, n)


def test_check_matches_dense_contraction_oracle(monkeypatch):
    count = failing = 0
    blocks = (linear_mod._BLOCK, 1)
    for obj in oracle_objects():
        holds, witness = dense_check_nary_sd(obj)
        # the default blocks, and up to arity 3 one tail a block, so that a
        # failure is the first over several blocks
        for block in blocks[:1 + (obj.arity <= 3)]:
            monkeypatch.setattr(linear_mod, "_BLOCK", block)
            res = check_nary_sd(obj)
            assert res.holds == holds
            if not holds:
                cex = res.counterexample
                assert (cex.witness, cex.lhs, cex.rhs) == witness
                assert res.detail == \
                    "self-distributivity fails on a basis input"
        failing += not holds
        count += 1
    assert (count, failing) == (97, 51)


def linearized(op, field=F3):
    """k[X] for a table: the grouplike comonoid, delta(x) = x (x) x and
    counit(x) = 1, with the operation as a map of one term per column."""
    d, k = op.size, op.arity
    every = np.arange(d)
    delta = np.zeros((d * d, d), np.int64)
    delta[every * (d + 1), every] = 1
    w = np.zeros((d, d ** k), np.int64)
    w[op.table, np.arange(d ** k)] = 1
    com = ComonoidObject(d, LinMap(field, d, 1, 2, delta),
                         LinMap(field, d, 1, 0, np.ones((1, d), np.int64)))
    return SDObject(com, k, LinMap(field, d, k, 1, w), verify=False)


def _non_sd_sample(count, seed):
    every = enumerate_operations(3, 2, "all")
    sd = {row.tobytes() for row in enumerate_operations(3, 2, "sd").tables}
    rows = [i for i, row in enumerate(every.tables) if row.tobytes() not in sd]
    return [every[i] for i in sorted(random.Random(seed).sample(rows, count))]


def _perturbed_sd(size, arity):
    rng = random.Random(0x5CA7 + size)
    return [perturbed(op, rng) for op in enumerate_operations(size, arity, "sd")]


@pytest.mark.parametrize("tables", [
    lambda: enumerate_operations(2, 2, "all"),
    lambda: enumerate_operations(2, 3, "all"),
    lambda: enumerate_operations(3, 2, "sd"),
    lambda: _non_sd_sample(200, 17),
    lambda: _perturbed_sd(3, 2),
    lambda: _perturbed_sd(2, 3),
], ids=["2 points arity 2", "2 points arity 3", "SD on 3 points",
        "non-SD sample on 3 points", "perturbed SD on 3 points",
        "perturbed SD on 2 points arity 3"])
def test_scan_and_linear_check_agree_on_linearized_tables(tables):
    # the verdicts, and on failure the witnesses
    for op in tables():
        scan = is_nary_distributive(op)
        res = check_nary_sd(linearized(op))
        assert res.holds == scan.holds
        assert res.holds or witnesses_agree(res, scan, op)
