import heapq
import importlib
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from selfdist import (InputError, OpTable, PreconditionError, affine_op,
                      are_mutually_distributive, conj_quandle, core_quandle,
                      cyclic_group, f_functor, limits, symmetric_group)
from selfdist.homology import (Elimination, HomologyResult, boundary_matrix,
                               chain_map_F, cohomology_solve, combine_invariant_factors,
                               homology, kernel_lattice_mod, labeled_blocks,
                               labeled_boundary, smith_normal_form, solve_mod,
                               verify_chain_map, xgcd, _assemble,
                               _cheapest_slot, _reduced_boundary,
                               _smith_transforms, _translations)
from selfdist.enumeration import (enumerate_mutual_pairs, enumerate_operations,
                                  enumerate_racks)
from formulas import make_op_table


def dih3():
    return affine_op(3, 2, (2,))


def tern3():
    # x + y + 2z mod 3, the ternary image of the dihedral pair
    return affine_op(3, 3, (1, 1))


# ---------------------------------------------------------------------------
# ternary complex: the labeled complex of one ternary operation

def ternary_boundary_ref(op, n):
    """The degree-n ternary differential assembled on its own.

    Columns are indexed by degree-n generators, the (2n-1)-tuples
    (x0, b1, ..., b_{n-1}) with each b_i a pair, rows by degree n-1.
    Degree 1 returns the empty (0, size) matrix since degree 0 is zero.
    """
    N = op.size
    if n == 1:
        return np.zeros((0, N), dtype=np.int64)
    rows, cols = N ** (2 * n - 3), N ** (2 * n - 1)
    T = op.table
    dig = np.indices((N,) * (2 * n - 1)).reshape(2 * n - 1, -1)
    M = np.zeros((rows, cols), dtype=np.int64)
    colidx = np.arange(cols, dtype=np.int64)

    def flat3(x, y, z):
        return T[(x * N + y) * N + z]

    for i in range(1, n):
        by, bz = dig[2 * i - 1], dig[2 * i]
        sign = (-1) ** i
        acted = flat3(dig[0], by, bz)
        for k in range(1, i):
            acted = acted * N + flat3(dig[2 * k - 1], by, bz)
            acted = acted * N + flat3(dig[2 * k], by, bz)
        for k in range(i, n - 1):
            acted = acted * N + dig[2 * k + 1]
            acted = acted * N + dig[2 * k + 2]
        deleted = dig[0]
        for k in range(1, n):
            if k == i:
                continue
            deleted = deleted * N + dig[2 * k - 1]
            deleted = deleted * N + dig[2 * k]
        np.add.at(M, (acted, colidx), sign)
        np.add.at(M, (deleted, colidx), -sign)
    return M


def test_ternary_boundary_shapes_and_degree_one():
    T = tern3()
    assert boundary_matrix(T, 1).shape == (0, 3)
    assert boundary_matrix(T, 2).shape == (3, 27)
    assert boundary_matrix(T, 3).shape == (27, 243)
    assert boundary_matrix(T, 4).shape == (243, 2187)


def test_ternary_boundary_entries():
    # column of the generator (0, 1, 2): boundary (x0) - (T(x0, b1))
    T = tern3()
    d2 = boundary_matrix(T, 2)
    assert d2[:, 5].tolist() == [1, 0, -1]   # T(0,1,2) = 0+1+4 = 2
    # every degree-2 column sums to zero
    assert not d2.sum(axis=0).any()


def test_ternary_boundary_squares_to_zero():
    T = tern3()
    d2, d3, d4 = (boundary_matrix(T, n) for n in (2, 3, 4))
    assert not (d2 @ d3).any()
    assert not (d3 @ d4).any()


def test_ternary_boundary_random_tables_square_to_zero():
    rng = random.Random(5)
    seen = 0
    while seen < 6:
        size = rng.choice((2, 3))
        coeffs = [rng.randrange(size) for _ in range(2)]
        T = affine_op(size, 3, coeffs)
        d2, d3, d4 = (boundary_matrix(T, n) for n in (2, 3, 4))
        assert not (d2 @ d3).any()
        assert not (d3 @ d4).any()
        for n, d in ((2, d2), (3, d3), (4, d4)):
            assert np.array_equal(d, ternary_boundary_ref(T, n))
        seen += 1


def test_ternary_boundary_rejects_bad_input():
    with pytest.raises(InputError):
        boundary_matrix(tern3(), 0)
    not_sd = make_op_table(2, 3, lambda x, y, z: x ^ (y & z))
    with pytest.raises(PreconditionError):
        boundary_matrix(not_sd, 2)


def test_guard_refuses_oversized_matrices():
    T = affine_op(9, 3, (1, 1))
    with pytest.raises(InputError, match="refusing"):
        boundary_matrix(T, 4)


def test_boundaries_are_charged_before_verifying():
    # 1728 x 20736 int64 entries are over the byte budget, even when the
    # table would also fail its hypotheses
    for op in (affine_op(12, 2, (5,)),
               make_op_table(12, 2, lambda x, y: x + y)):
        with pytest.raises(InputError, match="needs 286654464 bytes"):
            labeled_boundary([op], 4)
    # a one-point carrier has 1 x 1 matrices, but assembling degree 3000
    # takes about 3000^2 steps
    with pytest.raises(InputError, match="needs 9000000 steps"):
        boundary_matrix(affine_op(1, 3, (0, 0)), 3000)


# ---------------------------------------------------------------------------
# Smith normal form and modular solving

def test_xgcd():
    for a, b in ((12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)):
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        assert g == __import__("math").gcd(a, b)


SNF_CASES = [
    ([[2, 0], [0, 4]], (2, 4)),
    ([[2, 4], [6, 10]], (2, 2)),
    ([[0, 0, 0], [0, 0, 0]], ()),
    ([[1, 2], [3, 4]], (1, 2)),
]


@pytest.mark.parametrize("matrix,factors", SNF_CASES)
def test_smith_normal_form_frozen(matrix, factors):
    assert smith_normal_form(matrix).factors == factors


def _det_exact(M):
    n = len(M)
    if n == 0:
        return 1
    A = [[Fraction(int(v)) for v in row] for row in M]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            d = -d
        d *= A[c][c]
        for i in range(c + 1, n):
            if A[i][c]:
                f = A[i][c] / A[c][c]
                A[i] = [A[i][j] - f * A[c][j] for j in range(n)]
    return d


class DenseSmith(NamedTuple):
    """U @ M @ V = diag(factors) with U, V unimodular."""
    factors: tuple
    U: np.ndarray
    V: np.ndarray


def dense_smith(M) -> DenseSmith:
    """The dense transforms oracle: the whole matrix through the Smith
    reduction that an `Elimination` gives its residual, carrying U and V."""
    A = np.asarray(M)
    rows, cols = A.shape
    factors, U, V = _smith_transforms([[int(v) for v in row] for row in A],
                                      rows, cols, True, True)
    return DenseSmith(factors, np.array(U, dtype=object).reshape(rows, rows),
                      np.array(V, dtype=object).reshape(cols, cols))


def test_smith_normal_form_transforms_random():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = np.array([[rng.randint(-40, 40) for _ in range(cols)]
                      for _ in range(rows)])
        res = dense_smith(M)
        D = np.zeros((rows, cols), dtype=object)
        for i, f in enumerate(res.factors):
            D[i, i] = f
        assert np.array_equal(res.U @ M.astype(object) @ res.V, D)
        for i in range(len(res.factors) - 1):
            assert res.factors[i + 1] % res.factors[i] == 0
        assert abs(_det_exact(res.U.tolist())) == 1
        assert abs(_det_exact(res.V.tolist())) == 1


def test_smith_handles_large_intermediates():
    # Hilbert-like integer matrix with huge reduction intermediates
    n = 6
    M = [[(i + j + 1) ** 5 for j in range(n)] for i in range(n)]
    res = dense_smith(M)
    D = np.zeros((n, n), dtype=object)
    for i, f in enumerate(res.factors):
        D[i, i] = f
    assert np.array_equal(res.U @ np.array(M, dtype=object) @ res.V, D)


def test_solve_mod_against_brute_force():
    import itertools
    rng = random.Random(7)
    for _ in range(150):
        m = rng.choice([2, 3, 4, 6, 8, 9, 12])
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = np.array([[rng.randint(-6, 6) for _ in range(cols)]
                      for _ in range(rows)])
        if rng.random() < 0.5:
            x0 = np.array([rng.randrange(m) for _ in range(cols)])
            b = (A @ x0) % m
        else:
            b = np.array([rng.randrange(m) for _ in range(rows)])
        sol = solve_mod(A, b, m)
        brute = next((c for c in itertools.product(range(m), repeat=cols)
                      if ((A @ np.array(c)) % m == b % m).all()), None)
        if sol is None:
            assert brute is None
        else:
            assert ((A @ sol) % m == b % m).all()
            assert brute is not None


def test_kernel_lattice_mod_spans_kernel():
    import itertools
    rng = random.Random(13)
    for _ in range(40):
        m = rng.choice([2, 3, 4, 6])
        rows, cols = rng.randint(1, 2), rng.randint(1, 3)
        A = np.array([[rng.randint(-4, 4) for _ in range(cols)]
                      for _ in range(rows)])
        K = kernel_lattice_mod(A, m)
        # every generated vector lies in the kernel
        for j in range(K.shape[1]):
            v = np.array([int(x) for x in K[:, j]])
            assert not ((A @ v) % m).any()
        brute = {c for c in itertools.product(range(m), repeat=cols)
                 if not ((A @ np.array(c)) % m).any()}
        spanned = set()
        for comb in itertools.product(range(m), repeat=K.shape[1]):
            v = np.zeros(cols, dtype=object)
            for j, c in enumerate(comb):
                v = v + c * K[:, j]
            spanned.add(tuple(int(x) % m for x in v))
        assert spanned == brute


def test_combine_invariant_factors():
    assert combine_invariant_factors([(2, 4), (3,)]) == (2, 12)
    assert combine_invariant_factors([(2,), (2,), (3,)]) == (2, 6)
    assert combine_invariant_factors([(), ()]) == ()
    assert combine_invariant_factors([(6,), (4,)]) == (2, 12)


def test_combine_invariant_factors_huge_prime_is_fast():
    import time
    p = 2305843009213693951            # the Mersenne prime 2^61 - 1
    start = time.perf_counter()
    assert combine_invariant_factors([(p, p), (3,)]) == (p, 3 * p)
    assert combine_invariant_factors([(p * p,), (p, 1)]) == (p, p * p)
    assert time.perf_counter() - start < 0.5


def _smith_oracle(M):
    return dense_smith(M).factors


def _suite_boundaries():
    """Builders of every boundary matrix the suite uses, by label."""
    R3 = core_quandle(cyclic_group(3))
    triv = make_op_table(3, 2, lambda x, y: x)
    out = {f"T3 d{n}": (lambda n=n: boundary_matrix(tern3(), n)) for n in (2, 3, 4)}
    out.update({f"R3 d{n}": (lambda n=n: boundary_matrix(R3, n)) for n in (2, 3, 4, 5)})
    for name, system in (("dih3 pair", [dih3(), dih3()]),
                         ("triv-dih3 pair", [triv, dih3()]),
                         ("mixed arity", [dih3(), tern3()])):
        for n in ((2, 3) if name == "mixed arity" else (2, 3, 4)):
            out[f"{name} d{n}"] = lambda s=system, n=n: labeled_boundary(s, n)
    return out


SUITE_BOUNDARIES = _suite_boundaries()


def _mod_product(A, X, d):
    """A @ X mod d, exactly: int64 while no sum can overflow, else Python ints."""
    A, X = np.asarray(A), np.asarray(X)
    if A.size and X.size and d < 2 ** 31 and np.abs(A).max() < 2 ** 16:
        return (A.astype(np.int64) @ (X % d).astype(np.int64)) % d
    return (A.astype(object) @ X.astype(object)) % d


def _dense_kernel_count(oracle, d):
    """Kernel generators nonzero mod d on the dense path: the columns of V
    scaled by d / gcd(f_j, d)."""
    count = 0
    for j in range(oracle.V.shape[1]):
        f = oracle.factors[j] if j < len(oracle.factors) else 0
        count += any((d // math.gcd(f, d)) * int(v) % d for v in oracle.V[:, j])
    return count


def _dense_solvable(oracle, Ub, d):
    """Whether A x = b (mod d) is solvable, from U b and the dense factors."""
    return all(int(v) % math.gcd(oracle.factors[i] if i < len(oracle.factors)
                                 else 0, d) == 0 for i, v in enumerate(Ub))


def _check_recorded_elimination(A, oracle, moduli, rhs):
    """The recorded elimination of A against the dense transforms oracle:
    factors, kernel lattices and solves for each modulus and right side."""
    red = Elimination(A)
    assert red.factors == oracle.factors
    rows, cols = A.shape
    dense_Ub = [oracle.U.dot(np.asarray(b, dtype=object)) if rows else []
                for b in rhs]
    for d in moduli:
        K = red.kernel_lattice_mod(d)
        assert K.shape == (cols, cols)
        assert not _mod_product(A, K, d).any()
        nonzero = int((np.asarray(K % d, dtype=object) != 0).any(axis=0).sum())
        assert nonzero == _dense_kernel_count(oracle, d)
        if cols <= 8:
            # the columns lie in the lattice and span it exactly: |det K| is
            # its index in Z^n, the product of d / gcd(f, d) over the factors
            assert abs(_det_exact(K.tolist())) == math.prod(
                d // math.gcd(f, d) for f in oracle.factors)
        for b, Ub in zip(rhs, dense_Ub):
            x = red.solve_mod(b, d)
            assert (x is not None) == _dense_solvable(oracle, Ub, d)
            if x is not None:
                assert x.shape == (cols,) and x.min(initial=0) >= 0
                assert not ((_mod_product(A, x, d) - np.asarray(b, dtype=object))
                            % d).any()
    return red


@pytest.mark.parametrize("label", sorted(SUITE_BOUNDARIES))
def test_unit_pivot_smith_matches_dense_oracle_on_boundaries(label):
    matrix = SUITE_BOUNDARIES[label]()
    # the oracle reduces the transpose: same factors, and the faster
    # orientation of the dense transforms path on these wide matrices
    oracle = dense_smith(matrix.T)
    assert smith_normal_form(matrix).factors == oracle.factors
    # the coboundary is the transpose; right sides in its image and at random
    delta = matrix.T
    rng = random.Random(label)
    image = delta @ np.array([rng.randrange(36) for _ in range(delta.shape[1])],
                             dtype=np.int64)
    drawn = np.array([rng.randrange(36) for _ in range(delta.shape[0])],
                     dtype=np.int64)
    _check_recorded_elimination(delta, oracle, (2, 3, 4, 6), (image, drawn))


def _random_matrix(rng, rows, cols, entries):
    return np.array([[rng.choice(entries) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64).reshape(rows, cols)


def test_unit_pivot_smith_matches_dense_oracle_on_random_matrices():
    rng = random.Random(23)
    sparse = (0, 0, 0, 0, 1, -1, 2, -2, 3, 6)
    no_unit = (0, 0, 2, -2, 3, 4, -6, 9)
    for trial in range(300):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        M = _random_matrix(rng, rows, cols, no_unit if trial % 3 == 0 else sparse)
        if rows and trial % 4 == 1:
            M[rng.randrange(rows)] = 0            # an all-zero row
        if cols and trial % 4 == 2:
            M[:, rng.randrange(cols)] = 0         # an all-zero column
        assert smith_normal_form(M).factors == _smith_oracle(M), M


MODULI = (2, 3, 4, 6, 8, 9, 12, 2 ** 61 - 1, 2 ** 63 - 1)


def test_recorded_elimination_matches_dense_oracle_on_random_matrices():
    rng = random.Random(31)
    sparse = (0, 0, 0, 0, 1, -1, 2, -2, 3, 6)
    no_unit = (0, 0, 2, -2, 3, 4, -6, 9)
    spans = 0
    for trial in range(240):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        M = _random_matrix(rng, rows, cols, no_unit if trial % 3 == 0 else sparse)
        moduli = rng.sample(MODULI, 3)
        image = (M @ np.array([rng.randrange(50) for _ in range(cols)],
                              dtype=np.int64).reshape(cols)).reshape(rows)
        drawn = [rng.randrange(MODULI[-1]) for _ in range(rows)]
        red = _check_recorded_elimination(M, dense_smith(M),
                                          moduli, (image, drawn))
        # the kernel spans, by brute force on small cases
        for d in moduli:
            if d ** cols > 729:
                continue
            K = red.kernel_lattice_mod(d)
            brute = {c for c in itertools.product(range(d), repeat=cols)
                     if not ((M @ np.array(c, dtype=np.int64).reshape(cols)) % d).any()}
            spanned = {tuple(int(v) % d for v in K.dot(np.array(c, dtype=object)))
                       for c in itertools.product(range(d), repeat=cols)}
            assert spanned == brute, (M, d)
            spans += 1
    assert spans > 100


def test_unit_pivot_smith_on_degenerate_shapes():
    for shape in ((0, 0), (0, 4), (4, 0)):
        M = np.zeros(shape, dtype=np.int64)
        assert smith_normal_form(M).factors == () == _smith_oracle(M)
    assert smith_normal_form(np.zeros((3, 5), dtype=np.int64)).factors == ()
    with pytest.raises(InputError):
        smith_normal_form(np.zeros(3, dtype=np.int64))


def test_unit_pivot_smith_on_entries_above_int64():
    rng = random.Random(29)
    big = 2 ** 64 + 3
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = np.array([[rng.choice((0, 1, -1, 2, big, -big, 3 * big))
                       for _ in range(cols)] for _ in range(rows)], dtype=object)
        assert smith_normal_form(M).factors == _smith_oracle(M), M
    assert smith_normal_form(np.array([[big, 0], [0, 2 * big]],
                                      dtype=object)).factors == (big, 2 * big)


def test_residual_reduction_is_charged_before_it_runs(monkeypatch):
    # even entries leave no unit pivot, so the whole matrix is the residual;
    # its reduction costs half a step per rows * cols * min(rows, cols) of
    # the residual bordered by U's rows columns and V's cols rows
    homology_mod = importlib.import_module("selfdist.homology")
    reduced = []

    def spy(A, rows, cols, left, right):
        reduced.append((rows, cols, left, right))
        return ((), [[0] * rows for _ in range(rows)] if left else None,
                [[0] * cols for _ in range(cols)] if right else None)
    monkeypatch.setattr(homology_mod, "_smith_transforms", spy)
    rng = np.random.default_rng(19)
    entries = 2 * rng.integers(1, 50, (260, 260))
    big = Elimination(entries)
    assert (len(big.res_rows), len(big.res_cols), big.pivots) == (260, 260, [])
    questions = [
        (lambda e: e.factors, 260 * 260 * 260 // 2, (False, False)),
        (lambda e: e.kernel_lattice_mod(7), 520 * 260 * 260 // 2, (False, True)),
        (lambda e: e.solve_mod(np.zeros(260, np.int64), 7), 520 * 520 * 260 // 2,
         (True, True)),
    ]
    assert [need for _, need, _ in questions] == [8_788_000, 17_576_000, 35_152_000]
    budget = limits.STEPS
    for ask, need, sides in questions:
        message = (f"refusing a 260 x 260 residual Smith reduction: "
                   f"needs {need} steps")
        with pytest.raises(InputError, match=message):
            ask(big)
        monkeypatch.setattr(limits, "STEPS", need - 1)
        with pytest.raises(InputError, match=message):
            ask(Elimination(entries))
        assert reduced == []
        monkeypatch.setattr(limits, "STEPS", need)
        ask(Elimination(entries))
        assert reduced == [(260, 260) + sides]
        reduced.clear()
        monkeypatch.setattr(limits, "STEPS", budget)
    # 200 * 400 * 200 / 2 = 8,000,000 steps fit the budget
    Elimination(2 * rng.integers(1, 50, (200, 400))).factors
    assert reduced == [(200, 400, False, False)]
    reduced.clear()
    # carrying V doubles a square residual's charge: factors are admitted at
    # 220^3 / 2 = 5,324,000 steps and a kernel lattice refused at 10,648,000
    middle = Elimination(2 * rng.integers(1, 50, (220, 220)))
    with pytest.raises(InputError, match="needs 10648000 steps"):
        middle.kernel_lattice_mod(7)
    assert reduced == []
    middle.factors
    assert reduced == [(220, 220, False, False)]


# ---------------------------------------------------------------------------
# homology groups

def test_integral_homology_of_ternary_affine():
    T = tern3()
    assert homology(T, 1) == HomologyResult(1, ())
    assert homology(T, 2) == HomologyResult(3, ())


def test_trivial_ternary_homology():
    triv = make_op_table(2, 3, lambda x, y, z: x)
    for n in (2, 3, 4):
        assert not boundary_matrix(triv, n).any()
    assert homology(triv, 2) == HomologyResult(8, ())   # free of rank 2^3


def test_singleton_carrier():
    one = make_op_table(1, 3, [0])
    assert boundary_matrix(one, 1).shape == (0, 1)
    for n in (2, 3):
        d = boundary_matrix(one, n)
        assert d.shape == (1, 1) and not d.any()


# Groups read from the package before Z/d (co)homology was derived from the
# integral factors.  R3 is the dihedral quandle of order 3; its integral
# groups agree with Niebrzydowski-Przytycki (arXiv:math/0611803).
INTEGRAL_ANCHORS = {
    ("R3", 2): (1, ()), ("R3", 3): (1, (3,)), ("R3", 4): (1, (3, 3)),
    ("R4", 2): (4, (2, 2)), ("R4", 3): (8, (2,) * 6),
    ("S3", 2): (9, (3,)),
}

# (input, degree, d): (invariant factors of H_n(-; Z/d) = H^n(-; Z/d),
#                      cocycle generators, coboundary generators)
FINITE_ANCHORS = {
    ("R3", 2, 2): ((2,), 3, 3), ("R3", 2, 3): ((3,), 3, 3),
    ("R3", 2, 4): ((4,), 3, 3), ("R3", 2, 6): ((6,), 3, 3),
    ("R3", 2, 9): ((9,), 3, 3),
    ("R3", 3, 2): ((2,), 7, 9), ("R3", 3, 3): ((3, 3), 8, 9),
    ("R3", 3, 4): ((4,), 7, 9), ("R3", 3, 6): ((3, 6), 8, 9),
    ("R3", 3, 9): ((3, 9), 8, 9),
    ("R3", 4, 2): ((2,), 21, 27), ("R3", 4, 3): ((3,) * 4, 23, 27),
    ("R3", 4, 4): ((4,), 21, 27), ("R3", 4, 6): ((3, 3, 3, 6), 23, 27),
    ("R3", 4, 9): ((3, 3, 3, 9), 23, 27),
    ("R4", 2, 2): ((2,) * 6, 8, 4), ("R4", 2, 3): ((3,) * 4, 6, 4),
    ("R4", 2, 4): ((2, 2) + (4,) * 4, 8, 4), ("R4", 2, 6): ((2, 2) + (6,) * 4, 8, 4),
    ("R4", 2, 9): ((9,) * 4, 6, 4),
    ("R4", 3, 2): ((2,) * 16, 24, 16), ("R4", 3, 3): ((3,) * 8, 18, 16),
    ("R4", 3, 4): ((2,) * 8 + (4,) * 8, 24, 16),
    ("R4", 3, 6): ((2,) * 8 + (6,) * 8, 24, 16), ("R4", 3, 9): ((9,) * 8, 18, 16),
    ("S3", 2, 2): ((2,) * 9, 12, 5), ("S3", 2, 3): ((3,) * 10, 13, 5),
    ("S3", 2, 4): ((4,) * 9, 12, 5), ("S3", 2, 6): ((3,) + (6,) * 9, 13, 5),
    ("S3", 2, 9): ((3,) + (9,) * 9, 13, 5),
}


def _anchor_op(name):
    if name == "S3":
        return conj_quandle(symmetric_group(3))
    return core_quandle(cyclic_group(int(name[1:])))


@pytest.mark.parametrize("name,n", sorted(INTEGRAL_ANCHORS))
def test_integral_homology_anchors(name, n):
    assert homology(_anchor_op(name), n) == HomologyResult(*INTEGRAL_ANCHORS[name, n])


# Groups read from the package while every homology reduced the full
# d_{n+1}; each took 0.3-4 s then on a 2-core Xeon and is far cheaper once
# d_{n+1} is cut down through d o d = 0.  (input, degree): (betti, torsion,
# orbits of the rack), and b_n = |orbits|^n (Etingof-Grana, JPAA 2003).
REDUCED_ANCHORS = {
    ("R4", 5): (32, (2,) * 66, 2),
    ("S3", 4): (81, (3,) * 22 + (9,) * 6, 3),
    ("R6", 4): (16, (3,) * 8, 2),
    ("R5", 4): (1, (5, 5), 1),
    ("R3", 6): (1, (3,) * 7, 1),
}


@pytest.mark.parametrize("name,n", sorted(REDUCED_ANCHORS))
def test_reduced_homology_anchors(name, n):
    betti, torsion, orbits = REDUCED_ANCHORS[name, n]
    assert betti == orbits ** n
    assert homology(_anchor_op(name), n) == HomologyResult(betti, torsion)


@pytest.mark.parametrize("name,n,d", sorted(FINITE_ANCHORS))
def test_finite_coefficient_anchors(name, n, d):
    invariants, cocycles, coboundaries = FINITE_ANCHORS[name, n, d]
    op = _anchor_op(name)
    assert homology(op, n, coeff=d) == HomologyResult(0, invariants)
    res = cohomology_solve(op, n, d)
    assert res.invariants == invariants
    assert (len(res.cocycles), len(res.coboundaries)) == (cocycles, coboundaries)


def test_coefficient_factors_validated():
    T = tern3()
    assert homology(T, 2, coeff=[2, 4]) == HomologyResult(0, (2, 2, 2, 4, 4, 4))
    assert cohomology_solve(T, 2, (2, 4)).invariants == (2, 2, 2, 4, 4, 4)
    for bad in (-3, [2, -4]):
        with pytest.raises(InputError, match=">= 0"):
            homology(T, 2, coeff=bad)
        with pytest.raises(InputError, match=">= 0"):
            cohomology_solve(T, 2, bad)
    with pytest.raises(InputError):
        homology(T, 2, coeff=0)
    with pytest.raises(InputError):
        cohomology_solve(T, 2, [3, 0])
    with pytest.raises(InputError):
        homology(T, 2, coeff="3")


def test_moduli_beyond_int64_refused_before_any_matrix():
    # residues and gcds are int64: 2^63 - 1 is the largest modulus
    top = 2 ** 63 - 1
    R3 = core_quandle(cyclic_group(3))
    res = cohomology_solve(R3, 2, top)
    assert res.invariants == (top,)
    assert res.cocycles.min() >= 0 and res.cocycles.max() < top
    assert solve_mod(np.array([[2]]), np.array([4]), top).tolist() == [2]
    assert kernel_lattice_mod(np.array([[2]]), top).tolist() == [[top]]
    for big in (top + 1, 10 ** 20 - 1):
        for coeff in (big, [2, big]):
            with pytest.raises(InputError, match="refusing cochain coefficients"):
                cohomology_solve(R3, 2, coeff)
        with pytest.raises(InputError, match="refusing a linear solve"):
            solve_mod(np.array([[2]]), np.array([4]), big)
        with pytest.raises(InputError, match="refusing a kernel lattice"):
            kernel_lattice_mod(np.array([[2]]), big)
    # 200 points: the coefficient is refused before the degree-3 boundary
    # would be charged
    with pytest.raises(InputError, match="refusing cochain coefficients"):
        cohomology_solve(affine_op(200, 2, (2,)), 2, 10 ** 20 - 1)


@pytest.mark.parametrize("modulus", [0, -3])
def test_moduli_below_one_refused_by_every_entry_point(modulus):
    A, b = np.array([[2, 2]]), np.array([4])
    red = Elimination(A)
    for call in (lambda: kernel_lattice_mod(A, modulus),
                 lambda: solve_mod(A, b, modulus),
                 lambda: red.kernel_lattice_mod(modulus),
                 lambda: red.solve_mod(b, modulus)):
        with pytest.raises(InputError, match=f"modulus >= 1, got {modulus}"):
            call()


def test_homology_with_huge_prime_coefficient():
    p = 2305843009213693951            # the Mersenne prime 2^61 - 1
    R3 = core_quandle(cyclic_group(3))
    # H_3 = Z + Z/3 and H_2 = Z, so H_3(-; Z/p) = Z/p for p prime to 3
    assert homology(R3, 3, coeff=p) == HomologyResult(0, (p,))
    assert homology(R3, 3, coeff=3 * p) == HomologyResult(0, (3, 3 * p))


def test_finite_coefficient_homology_matches_universal_coefficients():
    # H_1 = Z and H_2 = Z^3 force H_2(-; Z_d) = (Z_d)^3
    T = tern3()
    assert homology(T, 2, coeff=3) == HomologyResult(0, (3, 3, 3))

    class G:
        factors = (2, 4)

    assert homology(T, 2, coeff=G) == HomologyResult(0, (2, 2, 2, 4, 4, 4))


# ---------------------------------------------------------------------------
# d_{n+1} cut down through d o d = 0

def _check_reduced_boundaries(system, degrees):
    """For each degree n and each slot value b*, d_{n+1} on the columns b*
    keeps and without the rows at d_n's unit pivots has the invariant
    factors of the whole d_{n+1}; returns the count of comparisons."""
    checked = 0
    for n in degrees:
        low = Elimination(labeled_boundary(system, n, verify=False))
        want = smith_normal_form(labeled_boundary(system, n + 1, verify=False))
        for slot in range(len(_translations(system))):
            got = Elimination(_reduced_boundary(system, n + 1, low, slot))
            assert got.factors == want.factors, (system, n, slot)
            checked += 1
    return checked


def test_reduced_boundary_keeps_invariant_factors():
    rng = random.Random(19)
    checked = 0
    for size in (2, 3):
        for op in enumerate_operations(size, 2, "sd"):     # non-racks too
            checked += _check_reduced_boundaries([op], (1, 2, 3))
    for op in enumerate_operations(2, 3, "sd"):
        checked += _check_reduced_boundaries([op], (1, 2, 3))
    for a, b in enumerate_mutual_pairs(2):
        checked += _check_reduced_boundaries([a, b], (1, 2, 3))
    pairs = enumerate_mutual_pairs(3)
    for a, b in rng.sample(pairs, 60):
        checked += _check_reduced_boundaries([a, b], (1, 2, 3))
    checked += _check_reduced_boundaries([dih3(), tern3()], (1, 2))
    for arity in (2, 3):
        checked += _check_reduced_boundaries([make_op_table(1, arity, [0])],
                                             (1, 2, 3))
    assert checked == 4368


def test_reduced_boundary_shape(monkeypatch):
    # homology(T3, 3) assembles d_4 on 243 rows less d_3's unit pivots and on
    # the columns the cheapest slot keeps, and never the whole 243 x 2187 d_4
    pivots = len(Elimination(boundary_matrix(tern3(), 3)).pivots)
    shapes = []

    def spy(system, n, columns, rows):
        shapes.append((n, len(rows), len(columns)))
        return _assemble(system, n, columns, rows)

    monkeypatch.setattr(importlib.import_module("selfdist.homology"),
                        "_assemble", spy)
    assert homology(tern3(), 3) == HomologyResult(9, ())
    (d3,) = [s for s in shapes if s[0] == 3]
    (d4,) = [s for s in shapes if s[0] == 4]
    assert d3 == (3, 27, 243)
    assert d4[1] == 243 - pivots == 221
    assert d4[2] == 891


def _best_of(f, repeat=15):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("op", [core_quandle(cyclic_group(5)),
                                affine_op(5, 2, (2,))], ids=["R5", "A5t2"])
def test_reduction_pays_for_itself_on_small_boundaries(op):
    # the degree-2 jobs of five-point quandles: a 25 x 125 d_3 whose
    # reduction must cost less than the Smith work it saves
    system = [op]
    low = Elimination(labeled_boundary(system, 2))

    def full():
        return Elimination(labeled_boundary(system, 3, verify=False)).factors

    def reduced():
        return Elimination(_reduced_boundary(system, 3, low,
                                             _cheapest_slot(system))).factors

    assert reduced() == full()
    assert _best_of(reduced) < _best_of(full)


# ---------------------------------------------------------------------------
# unit pivots: sparsest-first sweeps against the lazy heap they replaced

HOMOLOGY = importlib.import_module("selfdist.homology")


def heap_unit_pivots(A):
    """The unit-pivot pass as a lazy heap: the reference for the sweeps of
    `_eliminate_unit_pivots`, returning the same record.

    Each step pops a sparsest column holding a unit, least index first, and
    takes the unit of its shortest row, least index first.  Every column
    the pivot row changes is pushed again with its new count; popped
    entries whose count is out of date are skipped, and a column without a
    unit waits until fill-in changes it."""
    ri, ci = np.nonzero(A)
    rows, cols = {}, {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), A[ri, ci].tolist()):
        v = int(v)
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    queue = [(len(members), j) for j, members in cols.items()]
    heapq.heapify(queue)
    pivots = []
    while queue:
        count, c = heapq.heappop(queue)
        col = cols.get(c)
        if col is None or len(col) != count:
            continue
        candidates = [i for i in col if rows[i][c] in (1, -1)]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        u = prow.pop(c)
        del cols[c]
        col.discard(p)
        for j in prow:
            cols[j].discard(p)
        ops = []
        for i in col:
            row = rows[i]
            f = row.pop(c) * u
            ops.append((i, f))
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            if cols[j]:
                heapq.heappush(queue, (len(cols[j]), j))
            else:
                del cols[j]
        pivots.append((c, u, p, prow, ops))
    res_cols = sorted(cols)
    position = {j: k for k, j in enumerate(res_cols)}
    res_rows = sorted(rows)
    residual = []
    for i in res_rows:
        dense = [0] * len(position)
        for j, v in rows[i].items():
            dense[position[j]] = v
        residual.append(dense)
    return pivots, residual, res_rows, res_cols


def _heap_elimination(A):
    """An `Elimination` of A whose unit pivots come from `heap_unit_pivots`."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(HOMOLOGY, "_eliminate_unit_pivots", heap_unit_pivots)
        return Elimination(A)


# kernel lattices are compared up to this many columns: K is columns x
# columns Python integers, and its rank mod p takes a pass per column
KERNEL_COLUMNS = 256


def _check_against_heap(A, moduli, rng):
    """The sweeps' `Elimination` of A against the heap's: equal invariant
    factors; kernel lattices mod d inside the kernel, of equal rank mod
    each prime dividing d; solves that succeed exactly when the heap's
    do, with A x = b (mod d).  Returns the two unit-pivot counts."""
    new, ref = Elimination(A), _heap_elimination(A)
    assert new.factors == ref.factors
    rows, cols = A.shape
    rhs = (A.astype(np.int64) @ rng.integers(0, 36, cols),
           rng.integers(0, 36, rows))
    for d in moduli:
        if cols <= KERNEL_COLUMNS:
            K, L = new.kernel_lattice_mod(d), ref.kernel_lattice_mod(d)
            assert not _mod_product(A, K, d).any()
            for p in (2, 3, 5, 7):
                if d % p == 0:
                    assert _rank_mod_p(K.T, p) == _rank_mod_p(L.T, p), (d, p)
        for b in rhs:
            x, y = new.solve_mod(b, d), ref.solve_mod(b, d)
            assert (x is None) == (y is None), d
            if x is not None:
                assert not ((_mod_product(A, x, d) - b) % d).any()
    return len(new.pivots), len(ref.pivots)


def _workload_target(name):
    if name == "T3":
        return tern3()
    if name == "A5t2":
        return affine_op(5, 2, (2,))
    if name == "R3pair":
        return [_anchor_op("R3")] * 2
    return _anchor_op(name)


# the (co)homology the benchmark's homology workload asks for: (input,
# degree, coefficient of a cohomology job or None for homology, whose Z/d
# jobs reduce the integral matrices again)
WORKLOAD_ELIMINATIONS = [
    ("T3", 2, None), ("T3", 3, None),
    ("R3", 2, None), ("R3", 3, None), ("R3", 4, None), ("R3", 2, 3),
    ("R3", 3, 3),
    ("R4", 2, None), ("R4", 3, None), ("R4", 2, 2),
    ("R5", 2, None), ("R5", 3, None), ("R5", 2, 5),
    ("R6", 2, None), ("R6", 2, 2),
    ("A5t2", 2, None), ("A5t2", 3, None), ("A5t2", 2, 5),
    ("S3", 2, None), ("S3", 2, 3),
    ("R3pair", 2, None), ("R3pair", 3, None),
]


@pytest.mark.parametrize(
    "name,n,d", WORKLOAD_ELIMINATIONS,
    ids=[f"{name}-{'H' if d is None else 'coH'}{n}" + (f"-Z{d}" if d else "")
         for name, n, d in WORKLOAD_ELIMINATIONS])
def test_sweeps_match_the_heap_on_the_workload_matrices(name, n, d):
    # every boundary and coboundary the job hands to the unit-pivot pass
    seen = []
    real = HOMOLOGY._eliminate_unit_pivots

    def record(A):
        seen.append(np.array(A))
        return real(A)

    target = _workload_target(name)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(HOMOLOGY, "_eliminate_unit_pivots", record)
        if d is None:
            homology(target, n)
        else:
            cohomology_solve(target, n, d)
    assert len(seen) == 2
    rng = np.random.default_rng(n)
    for A in seen:
        new, ref = _check_against_heap(A, (2, 3, 4, 5, 6), rng)
        # on these matrices the sweeps find every unit pivot the heap does
        assert new == ref, A.shape


def test_sweeps_match_the_heap_on_random_sparse_matrices():
    rng = np.random.default_rng(37)
    for trial in range(100):
        rows, cols = rng.integers(1, 33, 2)
        density = (0.04, 0.1, 0.2, 0.4)[trial % 4]
        # units are rarer than the other entries in half the trials, so
        # more of them appear only through fill-in
        pool = (1, -1, 2, -2, 3) if trial % 2 else (1, -1, 2, -2, 3, 4, -6, 9)
        entries = rng.choice(pool, size=(rows, cols))
        A = np.where(rng.random((rows, cols)) < density, entries, 0)
        _check_against_heap(A, (2, 3, 4, 6, 9, 12), rng)


def _fill_in_chain(n):
    """An n x n matrix whose k-th unit appears only through the fill-in of
    the (k-1)-th pivot, its chain columns in reverse index order.

    Chain column k sits at index n-1-k, with 3 in row k (-1 in row 0, 7 in
    row n-1), 2 in row k-1 and -2 in row k+1.  Its entries turn into units
    only once pivot k-1 clears row k: 3 - (-2)(-1)(2) = -1.  Sparsest
    first, then least index, meets the chain backwards: the first pass
    over the columns takes chain columns 0 and 1 only, and each later
    pivot makes exactly one new unit.  The last entry becomes 7 - 4 = 3."""
    A = np.zeros((n, n), dtype=np.int8)
    k = np.arange(n)
    col = n - 1 - k
    A[k, col] = 3
    A[0, col[0]], A[n - 1, col[n - 1]] = -1, 7
    A[k[:-1], col[1:]] = 2
    A[k[1:], col[:-1]] = -2
    return A


def test_a_chain_of_fill_in_units_stays_linear():
    A = _fill_in_chain(3000)
    new, ref = Elimination(A), _heap_elimination(A)
    assert new.factors == ref.factors == (1,) * 2999 + (3,)
    assert len(new.pivots) == 2999
    # sweeps that re-examined every column after each pivot would take
    # about 3000^2 / 2 examinations, some hundred times the heap's time
    assert (_best_of(lambda: HOMOLOGY._eliminate_unit_pivots(A), 3)
            < 2 * _best_of(lambda: heap_unit_pivots(A), 3))


# ---------------------------------------------------------------------------
# labeled complex

def test_labeled_single_ternary_equals_ternary_complex():
    for T, degrees in ((tern3(), (1, 2, 3, 4)), (affine_op(5, 3, (2, 4)), (2, 3))):
        for n in degrees:
            assert np.array_equal(labeled_boundary([T], n), ternary_boundary_ref(T, n))


def test_labeled_single_binary_is_classical_rack_boundary():
    op = dih3()
    d2 = labeled_boundary([op], 2)
    assert d2.shape == (3, 9)
    S = op.table.reshape(3, 3)
    for x in range(3):
        for y in range(3):
            col = d2[:, x * 3 + y]
            expect = np.zeros(3, dtype=np.int64)
            expect[x] += 1
            expect[S[x, y]] -= 1
            assert np.array_equal(col, expect)


def test_labeled_pair_shapes_and_square_zero():
    triv = make_op_table(3, 2, lambda x, y: x)
    system = [triv, dih3()]
    d2, d3, d4 = (labeled_boundary(system, n) for n in (2, 3, 4))
    assert d2.shape == (3, 18)
    assert d3.shape == (18, 108)
    assert d4.shape == (108, 648)
    assert not (d2 @ d3).any()
    assert not (d3 @ d4).any()


def test_labeled_mixed_arity_pair_square_zero():
    system = [dih3(), tern3()]
    d2, d3 = (labeled_boundary(system, n) for n in (2, 3))
    blocks = labeled_blocks(system, 2)
    assert [(eps, cnt) for eps, _, cnt in blocks] == [((0,), 9), ((1,), 27)]
    assert not (d2 @ d3).any()


def test_labeled_boundary_precondition():
    # conjugation quandle of S3 and the trivial op are not mutually distributive
    from selfdist import conj_quandle, symmetric_group
    conj = conj_quandle(symmetric_group(3))
    triv = make_op_table(6, 2, lambda x, y: (x + 1) % 6)   # not even SD
    with pytest.raises(PreconditionError):
        labeled_boundary([conj, triv], 2)


def test_boundary_matrix_dispatch():
    T = tern3()
    assert np.array_equal(boundary_matrix(T, 2), labeled_boundary([T], 2))
    op = dih3()
    assert np.array_equal(boundary_matrix(op, 2), labeled_boundary([op], 2))
    assert np.array_equal(boundary_matrix([op, op], 2),
                          labeled_boundary([op, op], 2))


# ---------------------------------------------------------------------------
# cohomology solver

def _rank_mod_p(vectors, p):
    """Rank over Z/p, p prime, of integer vectors: the rows of a matrix, or
    a list of n x 1 columns."""
    if not len(vectors):
        return 0
    M = np.asarray(vectors, dtype=object).reshape(len(vectors), -1)
    M = (M % p).astype(np.int64)
    rank = 0
    for c in range(M.shape[1]):
        hit = np.flatnonzero(M[rank:, c])
        if not len(hit):
            continue
        r = rank + hit[0]
        M[[rank, r]] = M[[r, rank]]
        M[rank] = M[rank] * pow(int(M[rank, c]), -1, p) % p
        factor = M[:, c].copy()
        factor[rank] = 0
        M = (M - np.outer(factor, M[rank])) % p
        rank += 1
        if rank == M.shape[0]:
            break
    return rank


def test_ternary_cohomology_dimensions():
    T = tern3()
    res = cohomology_solve(T, 2, 3)
    assert _rank_mod_p(list(res.cocycles), 3) == 5
    assert _rank_mod_p(list(res.coboundaries), 3) == 2
    assert res.invariants == (3, 3, 3)
    # one ternary operation reports no label blocks
    assert res.blocks == ()
    delta = boundary_matrix(T, 3, verify=False).T
    for v in res.cocycles:
        assert not ((delta @ v[:, 0]) % 3).any()
    for v in res.coboundaries:
        assert not ((delta @ v[:, 0]) % 3).any()


def test_labeled_cohomology_dimensions():
    op = dih3()
    res = cohomology_solve([op, op], 2, 3)
    assert _rank_mod_p(list(res.cocycles), 3) == 4
    assert _rank_mod_p(list(res.coboundaries), 3) == 2
    assert res.invariants == (3, 3)
    assert res.blocks == (((0,), 0, 9), ((1,), 9, 9))


def test_cohomology_multi_factor_coefficients():
    T = tern3()

    class G:
        factors = (2, 4)

    res = cohomology_solve(T, 2, G)
    assert res.invariants == (2, 2, 2, 4, 4, 4)
    # each basis vector is supported on exactly one factor column
    for v in res.cocycles:
        assert (v[:, 0].any()) != (v[:, 1].any())


def test_ternary_degree_three_cohomology_pinned():
    # counts from the dense transforms reduction of d4, which took 11.6 s
    # on a 2-core Xeon
    T = tern3()
    start = time.perf_counter()
    res = cohomology_solve(T, 3, 3)
    assert time.perf_counter() - start < 1.0
    assert res.invariants == (3,) * 9
    assert (len(res.cocycles), len(res.coboundaries)) == (31, 27)
    delta = boundary_matrix(T, 4, verify=False).T
    assert not ((delta @ res.cocycles[:, :, 0].T) % 3).any()


# The cohomology lines of the homology benchmark: (input, degree, prime d,
# rank mod d of the cocycle generators that the dense path reported)
BENCH_COHOMOLOGY = [("R3", 2, 3, 3), ("R3", 3, 3, 8), ("R4", 2, 2, 8),
                    ("R5", 2, 5, 5), ("R6", 2, 2, 8), ("A5t2", 2, 5, 5),
                    ("S3", 2, 3, 13)]


@pytest.mark.parametrize("cmd", [["cohomology"], ["cocycle", "solve"]])
@pytest.mark.parametrize("name,n,d,rank", BENCH_COHOMOLOGY)
def test_cli_cocycle_generators_are_cocycles(name, n, d, rank, cmd, tmp_path,
                                              capsys):
    import json
    from selfdist.cli import main

    op = affine_op(5, 2, (2,)) if name == "A5t2" else _anchor_op(name)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.as_json()))
    assert main(["--format", "json"] + cmd + ["--op", str(path), "--degree",
                 str(n), "--coeff", str(d), "--generators"]) == 0
    content = json.loads(capsys.readouterr().out)["artifacts"][0]["content"]
    vectors = np.array(content["cocycle_generators"], dtype=np.int64)
    assert len(vectors) == content["cocycles"]
    delta = boundary_matrix(op, n + 1, verify=False).T
    assert not ((delta @ vectors[:, :, 0].T) % d).any()
    assert _rank_mod_p(list(vectors), d) == rank


def test_cohomology_trivial_coefficients():
    res = cohomology_solve(tern3(), 2, 1)
    assert res.invariants == ()
    assert len(res.cocycles) == 0


# ---------------------------------------------------------------------------
# chain map between the two complexes

def test_chain_map_shapes_and_identity():
    op = dih3()
    F1 = chain_map_F(op, op, 1)
    assert np.array_equal(F1, np.eye(3, dtype=np.int64))
    F2 = chain_map_F(op, op, 2)
    F3 = chain_map_F(op, op, 3)
    assert F2.shape == (18, 27)
    assert F3.shape == (108, 243)
    assert (F2.sum(axis=0) == 2).all()    # two unit entries per generator
    assert (F3.sum(axis=0) == 4).all()    # four unit entries per generator
    F4 = chain_map_F(op, op, 4)
    assert F4.shape == (648, 2187) and (F4.sum(axis=0) == 8).all()
    assert chain_map_commutes(op, op, 4)
    # degree 5 on 3 points needs a 3888 x 19683 matrix, degree 16 on one
    # point a loop over 2^15 label vectors, and a huge degree a saturated
    # estimate: each is refused before anything is allocated
    one = OpTable(1, 2, [0])
    tracemalloc.start()
    try:
        for pair, n, what in (((op, op), 5, "bytes"), ((one, one), 16, "steps"),
                              ((one, one), 10 ** 9, "bytes")):
            with pytest.raises(InputError, match=f"refusing the degree-{n} chain map.* {what}"):
                chain_map_F(*pair, n)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def chain_map_commutes(op0, op1, n):
    """Whether F_{n-1} d = d F_n at degree n: the ternary boundary of the
    pair's composite on the right, the labeled one of the pair on the left.
    The products run in float64, exact here: every entry and partial sum is
    an integer far below 2^53."""
    T = f_functor(op0, op1, verify=False)
    lhs = (chain_map_F(op0, op1, n - 1, verify=False).astype(float)
           @ labeled_boundary([T], n, verify=False).astype(float))
    rhs = (labeled_boundary([op0, op1], n, verify=False).astype(float)
           @ chain_map_F(op0, op1, n, verify=False).astype(float))
    return np.array_equal(lhs, rhs)


def chain_map_ref(op0, op1, n):
    """F at degrees 1-3 written out one degree at a time: the identity;
    (x, y0, y1) -> (x, y0) + (x *0 y0, y1); and four unit entries at
    degree 3."""
    N = op0.size
    if n == 1:
        return np.eye(N, dtype=np.int64)
    s = op0.table.reshape(N, N)
    offs = {eps: off for eps, off, _ in labeled_blocks([op0, op1], n)}
    M = np.zeros((2 ** (n - 1) * N ** n, N ** (2 * n - 1)), dtype=np.int64)
    for col, g in enumerate(itertools.product(range(N), repeat=2 * n - 1)):
        if n == 2:
            x, y0, y1 = g
            images = {(0,): (x, y0), (1,): (s[x, y0], y1)}
        else:
            x, y0, y1, z0, z1 = g
            images = {(0, 0): (x, y0, z0), (0, 1): (s[x, z0], s[y0, z0], z1),
                      (1, 0): (s[x, y0], y1, z0),
                      (1, 1): (s[s[x, y0], z0], s[y1, z0], z1)}
        for eps, image in images.items():
            row = 0
            for v in image:
                row = row * N + int(v)
            M[offs[eps] + row, col] += 1
    return M


def test_chain_map_matches_degree_by_degree_formulas():
    racks = list(enumerate_racks(3, 2))
    pairs = enumerate_mutual_pairs(2) + [(a, b) for a in racks for b in racks
                                         if are_mutually_distributive(a, b)]
    for a, b in pairs:
        for n in (1, 2, 3):
            assert np.array_equal(chain_map_F(a, b, n), chain_map_ref(a, b, n))


def test_chain_map_commutes_at_degree_4_on_3_points():
    racks = list(enumerate_racks(3, 2))
    pairs = [(a, b) for a in racks for b in racks if are_mutually_distributive(a, b)]
    pairs += enumerate_mutual_pairs(3)[::50]
    assert len(pairs) == 57 + 98
    assert all(chain_map_commutes(a, b, 4) for a, b in pairs)
    # and a pair that is not mutually distributive breaks it
    plus = OpTable(3, 2, [(x + y) % 3 for x, y in itertools.product(range(3), repeat=2)])
    assert not chain_map_commutes(dih3(), plus, 4)


def test_chain_map_commutes_at_degrees_4_to_6_on_2_points():
    pairs = enumerate_mutual_pairs(2)
    assert len(pairs) == 43
    assert all(chain_map_commutes(a, b, n) for a, b in pairs for n in (4, 5, 6))


def test_chain_map_commutes_with_boundaries():
    res = verify_chain_map(dih3(), dih3())
    assert res.holds


def test_chain_map_all_size2_mutual_pairs():
    from selfdist import are_mutually_distributive, is_nary_distributive
    import itertools
    ops = [make_op_table(2, 2, list(bits))
           for bits in itertools.product(range(2), repeat=4)]
    sd = [t for t in ops if is_nary_distributive(t)]
    pairs = [(a, b) for a in sd for b in sd if are_mutually_distributive(a, b)]
    assert len(pairs) >= 4
    for a, b in pairs:
        assert verify_chain_map(a, b).holds
