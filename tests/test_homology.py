import random
from fractions import Fraction

import numpy as np
import pytest

from selfdist import (InputError, PreconditionError, affine_op, conj_quandle,
                      core_quandle, cyclic_group, make_op_table, symmetric_group)
from selfdist.homology import (HomologyResult, boundary_matrix, chain_map_F,
                               cohomology_solve, combine_invariant_factors,
                               homology, kernel_lattice_mod, labeled_blocks,
                               labeled_boundary, smith_normal_form, solve_mod,
                               verify_chain_map, xgcd)


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


def test_smith_normal_form_transforms_random():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = np.array([[rng.randint(-40, 40) for _ in range(cols)]
                      for _ in range(rows)])
        res = smith_normal_form(M, transforms=True)
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
    res = smith_normal_form(M, transforms=True)
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
    return smith_normal_form(M, transforms=True).factors


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


@pytest.mark.parametrize("label", sorted(SUITE_BOUNDARIES))
def test_unit_pivot_smith_matches_dense_oracle_on_boundaries(label):
    matrix = SUITE_BOUNDARIES[label]()
    # the oracle reduces the transpose: same factors, and the faster
    # orientation of the dense transforms path on these wide matrices
    assert smith_normal_form(matrix).factors == _smith_oracle(matrix.T)


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
    if not len(vectors):
        return 0
    A = (np.stack([v[:, 0] for v in vectors]) % p).astype(np.int64)
    r = 0
    for c in range(A.shape[1]):
        piv = next((i for i in range(r, A.shape[0]) if A[i, c] % p), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        for i in range(A.shape[0]):
            if i != r and A[i, c] % p:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
    return r


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
    with pytest.raises(InputError):
        chain_map_F(op, op, 4)


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
