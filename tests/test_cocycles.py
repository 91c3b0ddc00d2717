import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from selfdist import (InputError, PreconditionError, affine_op, limits,
                      are_mutually_distributive, conj_quandle, core_quandle,
                      cyclic_group, enumerate_mutual_pairs, exchange_holds,
                      is_nary_distributive, is_rack, projection_op, relabel,
                      symmetric_group, tuple_to_index)
from selfdist.constructions import (doubling_binary, doubling_ternary,
                                    f_functor, g_functor, power_op)
from selfdist.cocycles import (AbGroup, Cochain, SES,
                               are_compatible_ternary_cocycles,
                               are_mutually_distributive_cocycles,
                               binary_cocycle_from_ternary_pair, coeff_group,
                               cocycles_cohomologous, cyclic_ses,
                               doubled_binary_cocycle, doubled_ternary_cocycle,
                               extend, extend_mutual_pair,
                               extension_equivalent, is_binary_2cocycle,
                               is_normalized_cochain, is_ternary_2cocycle,
                               power_cocycle, split_ses,
                               ternary_cocycle_from_pair,
                               three_cocycle_from_ses, zero_cochain)
from selfdist.homology import boundary_matrix, chain_map_F, cohomology_solve
from formulas import make_cochain, make_op_table


def dih3():
    return affine_op(3, 2, (2,))


def tern3():
    return affine_op(3, 3, (1, 1))


def heap2():
    # x - y + z on Z2, same as x + y + z
    return make_op_table(2, 3, lambda x, y, z: (x + y + z) % 2)


# ---------------------------------------------------------------------------
# dense mod-p linear algebra for solution spaces too big for the exact
# Smith-form path (the paired Z4 system below is 10240 x 128 over GF(2))

def rref_mod_p(M, p):
    M = M.copy() % p
    rows, cols = M.shape
    piv = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            M[[r, i]] = M[[i, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for j in range(rows):
            if j != r and M[j, c]:
                M[j] = (M[j] - M[j, c] * M[r]) % p
        piv.append(c)
        r += 1
    return M, piv


def nullspace_mod_p(M, p):
    R, piv = rref_mod_p(M, p)
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in piv]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(piv):
            v[c] = (-R[r, f]) % p
        basis.append(v)
    return basis


def span_basis_mod_p(vectors, p):
    if not len(vectors):
        return []
    R, piv = rref_mod_p(np.array(vectors, dtype=np.int64), p)
    return [R[i] for i in range(len(piv))]


def solver_cochains(ops, degree, p):
    """Independent basis of the labeled/ternary cocycle space as flat vectors."""
    res = cohomology_solve(ops, degree, p)
    flat = [v[:, 0] for v in res.cocycles]
    return span_basis_mod_p(flat, p)


# ---------------------------------------------------------------------------
# coefficient groups and cochains

def test_abgroup_basics():
    G = AbGroup((2, 4))
    assert G.order == 8 and G.rank == 2
    for i in range(8):
        assert G.index(G.residues(i)) == i
    # first factor most significant
    assert G.residues(5) == (1, 1)
    assert G.index((1, 3)) == 7
    tab = G.residue_table()
    assert tab.shape == (8, 2)
    assert tab[6].tolist() == [1, 2]
    assert G.reduce(np.array([[3, 5]])).tolist() == [[1, 1]]


def loop_residue_table(factors):
    """The residue rows by a plain loop over every index."""
    rows = []
    for i in range(math.prod(factors)):
        row = []
        for f in reversed(factors):
            i, r = divmod(i, f)
            row.append(r)
        rows.append(row[::-1])
    return rows


def test_residue_table_matches_loop():
    for factors in ((1,), (7,), (2, 4), (3, 1, 5), (2, 3, 2, 2), ()):
        G = AbGroup(factors)
        want = loop_residue_table(factors)
        assert G.residue_table().shape == (G.order, len(factors))
        assert G.residue_table().tolist() == want
        assert [list(G.residues(i)) for i in range(G.order)] == want
    # one element of a large group is decoded without building its table
    G = AbGroup((2 ** 20,))
    start = time.perf_counter()
    assert G.residues(5) == (5,) and G.residues(2 ** 20 - 1) == (2 ** 20 - 1,)
    assert time.perf_counter() - start < 0.01
    assert AbGroup((2 ** 63 - 1, 3)).residues(3 * 2 ** 62 + 2) == (2 ** 62, 2)


def test_abgroup_rejects_bad_factors():
    with pytest.raises(InputError):
        AbGroup((2, 0))
    with pytest.raises(InputError):
        AbGroup((2,)).index((1, 1))
    with pytest.raises(InputError):
        AbGroup((3,)).residues(3)


def test_coeff_group_forms():
    assert coeff_group(4).factors == (4,)
    assert coeff_group((2, 3)).factors == (2, 3)
    assert coeff_group(AbGroup((5,))).factors == (5,)


def test_make_cochain_callable_and_flat():
    c = make_cochain(3, 2, 3, lambda x, y: x * y)
    assert c(2, 2) == (1,)
    flat = make_cochain(3, 2, 3, [x * y % 3 for x in range(3) for y in range(3)])
    assert c == flat
    # values are stored reduced and the array is locked
    assert c.values.max() <= 2
    with pytest.raises(ValueError):
        c.values[0, 0] = 1
    with pytest.raises(AttributeError):
        c.size = 5


def test_cochain_call_checks_its_arguments():
    c = make_cochain(3, 2, 3, lambda x, y: x * y)
    for args, message in (((0, 5), "argument 5 outside 0..2"),
                          ((0, -1), "argument -1 outside 0..2"),
                          ((0,), "expected 2 arguments, got 1")):
        with pytest.raises(InputError, match=message):
            c(*args)


def test_cochain_multifactor_values():
    c = make_cochain(2, 3, (2, 4), lambda x, y, z: (x, y + z))
    assert c(1, 1, 1) == (1, 2)
    assert c.values.shape == (8, 2)


def test_cochain_rejects_bad_shapes():
    with pytest.raises(InputError):
        make_cochain(3, 2, 3, [0] * 8)
    with pytest.raises(InputError):
        Cochain(3, 2, (2, 2), np.zeros((9, 3), dtype=np.int64))


def test_cochain_json_round_trip():
    c = make_cochain(3, 2, (2, 4), lambda x, y: (x % 2, (x + y) % 4))
    back = Cochain.from_json(c.as_json())
    assert back == c
    assert back.coeff.factors == (2, 4)
    with pytest.raises(InputError):
        Cochain.from_json({"nargs": 2, "coeff": [3]})


def test_zero_and_normalized():
    z = zero_cochain(3, 3, 3)
    assert not z.values.any()
    assert is_normalized_cochain(z)
    c = make_cochain(3, 2, 3, lambda x, y: (x - y) % 3)
    assert is_normalized_cochain(c)          # vanishes on the diagonal
    d = make_cochain(3, 2, 3, lambda x, y: 1)
    assert not is_normalized_cochain(d)


# ---------------------------------------------------------------------------
# degree-2 cocycle checks

def test_binary_cocycle_space_rank():
    # dihedral Z3 with Z3 coefficients: 3-dimensional cocycle space
    basis = solver_cochains(dih3(), 2, 3)
    assert len(basis) == 3
    for v in basis:
        assert is_binary_2cocycle(Cochain(3, 2, 3, v), dih3())


def test_binary_cocycle_witness():
    phi = make_cochain(3, 2, 3, lambda x, y: x * y)
    res = is_binary_2cocycle(phi, dih3())
    assert not res
    w = res.counterexample
    assert len(w.witness) == 3
    assert w.lhs != w.rhs


def test_coboundaries_are_cocycles():
    rng = random.Random(11)
    d2t = np.asarray(boundary_matrix(dih3(), 2, verify=False)).T
    for _ in range(10):
        eta = np.array([rng.randrange(3) for _ in range(3)])
        phi = Cochain(3, 2, 3, (d2t @ eta) % 3)
        assert is_binary_2cocycle(phi, dih3())


def test_ternary_cocycle_check_and_witness():
    basis = solver_cochains(tern3(), 2, 3)
    assert len(basis) == 5
    for v in basis:
        assert is_ternary_2cocycle(Cochain(3, 3, 3, v), tern3())
    bad = make_cochain(3, 3, 3, lambda x, y, z: x * y + z)
    res = is_ternary_2cocycle(bad, tern3())
    assert not res and len(res.counterexample.witness) == 5


def test_heap_z2_cocycle_count():
    # all 256 ternary cochains on the order-2 heap: exactly 8 are cocycles
    T = heap2()
    good = []
    for bits in range(256):
        c = Cochain(2, 3, 2, np.array([(bits >> i) & 1 for i in range(8)]))
        if is_ternary_2cocycle(c, T):
            good.append(c)
    assert len(good) == 8
    # compatible ordered pairs among them: 32 with the checker's pairing,
    # 16 with the printed variant, which only this oracle states
    default = sum(bool(are_compatible_ternary_cocycles(a, b, T, T))
                  for a in good for b in good)
    assert default == 32
    assert sum(compatible_pair_oracle(a, b, T, T, False)
               for a in good for b in good) == 32
    assert sum(compatible_pair_oracle(a, b, T, T, True)
               for a in good for b in good) == 16


def compatible_pair_oracle(psi0, psi1, T0, T1, printed):
    """Both six-variable pair conditions, tuple by tuple; `printed` reads the
    final term of condition 2 at T1(x0, z), as the printed form does, in
    place of T1(x1, z)."""
    N = T0.size
    d = psi0.coeff.factors[0]
    A = T0.table.reshape(N, N, N)
    B = T1.table.reshape(N, N, N)
    s0 = psi0.values[:, 0].reshape(N, N, N)
    s1 = psi1.values[:, 0].reshape(N, N, N)
    for x0, x1, y0, y1, z0, z1 in itertools.product(range(N), repeat=6):
        ay, by = A[y0, z0, z1], B[y1, z0, z1]
        one = (s0[x0, y0, y1] + s1[B[x1, y0, y1], z0, z1]
               - s1[x1, z0, z1] - s0[A[x0, z0, z1], ay, by])
        lead = x0 if printed else x1
        two = (s1[x1, y0, y1] + s0[A[x0, y0, y1], z0, z1]
               - s0[x0, z0, z1] - s1[B[lead, z0, z1], ay, by])
        if one % d or two % d:
            return False
    return True


def test_multifactor_cocycle_check():
    # per-factor checking: a cocycle in one slot, garbage in the other
    d2t = np.asarray(boundary_matrix(dih3(), 2, verify=False)).T
    good = (d2t @ np.array([1, 2, 0])) % 3
    bad = [x * y % 3 for x in range(3) for y in range(3)]
    c = Cochain(3, 2, (3, 3), np.stack([good, np.array(bad)], axis=1))
    res = is_binary_2cocycle(c, dih3())
    assert not res
    ok = Cochain(3, 2, (3, 3), np.stack([good, good], axis=1))
    assert is_binary_2cocycle(ok, dih3())


# ---------------------------------------------------------------------------
# mutually distributive cocycle pairs (dihedral Z3, coefficients Z3)

def pair_basis():
    return solver_cochains([dih3(), dih3()], 2, 3)


def split_pair(vec):
    return Cochain(3, 2, 3, vec[:9]), Cochain(3, 2, 3, vec[9:])


def test_pair_space_rank_and_membership():
    basis = pair_basis()
    assert len(basis) == 4
    for v in basis:
        phi0, phi1 = split_pair(v)
        assert are_mutually_distributive_cocycles(phi0, phi1, dih3(), dih3())


def test_pair_check_requires_mutual_ops():
    phi = zero_cochain(3, 2, 3)
    op = dih3()
    other = make_op_table(3, 2, lambda x, y: (x + 1) % 3)
    with pytest.raises(PreconditionError):
        are_mutually_distributive_cocycles(phi, phi, op, other)


def test_pair_check_requires_individual_cocycles():
    bad = make_cochain(3, 2, 3, lambda x, y: x * y)
    with pytest.raises(PreconditionError):
        are_mutually_distributive_cocycles(bad, bad, dih3(), dih3())


def test_pair_check_witness():
    # valid cocycles individually but not as a mutual pair
    basis = solver_cochains(dih3(), 2, 3)
    singles = [Cochain(3, 2, 3, v) for v in basis]
    seen_failure = False
    for a, b in itertools.product(singles, repeat=2):
        res = are_mutually_distributive_cocycles(a, b, dih3(), dih3())
        if not res:
            assert len(res.counterexample.witness) == 3
            assert "mixed condition" in res.detail
            seen_failure = True
    assert seen_failure


def test_full_pair_space_feeds_ternary_passage():
    # every member of the mutual pair space gives a ternary cocycle of the
    # composite, and the unchecked construction never fails; all 81 members
    basis = pair_basis()
    T = f_functor(dih3(), dih3())
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        vec = sum(c * v for c, v in zip(coeffs, basis)) % 3
        phi0, phi1 = split_pair(vec)
        psi = ternary_cocycle_from_pair(phi0, phi1, dih3(), dih3())
        assert is_ternary_2cocycle(psi, T)
        # the resulting cocycle is compatible with itself over (T, T)
        assert are_compatible_ternary_cocycles(psi, psi, T, T)


def test_ternary_passage_values():
    # psi(x, y, z) = phi0(x, y) + phi1(x * y, z) pointwise
    basis = pair_basis()
    phi0, phi1 = split_pair(basis[0])
    psi = ternary_cocycle_from_pair(phi0, phi1, dih3(), dih3())
    s = dih3().table.reshape(3, 3)
    for x, y, z in itertools.product(range(3), repeat=3):
        want = (phi0(x, y)[0] + phi1(int(s[x, y]), z)[0]) % 3
        assert psi(x, y, z) == (want,)


def test_pullback_matches_direct_passage():
    # the pullback of a labeled pair cocycle through the degree-2 chain map,
    # F_2^T [phi0; phi1] mod d, equals the pointwise passage, on a full
    # basis of the pair space
    F2 = chain_map_F(dih3(), dih3(), 2)
    for v in pair_basis():
        phi0, phi1 = split_pair(v)
        via_chain = F2.T @ np.concatenate([phi0.values, phi1.values]) % 3
        direct = ternary_cocycle_from_pair(phi0, phi1, dih3(), dih3())
        assert np.array_equal(via_chain, direct.values)


# ---------------------------------------------------------------------------
# compatible ternary cocycle pairs on the Z4 affine pair, coefficients Z2

def z4_pair():
    return affine_op(4, 3, (1, 2)), affine_op(4, 3, (3, 0))


def z4_pair_system(printed):
    """Stacked GF(2) conditions on (psi0, psi1), each flat on 4^3 entries;
    `printed` states condition 2 in its printed form, as
    `compatible_pair_oracle` does."""
    T0, T1 = z4_pair()
    N = 4
    A3 = T0.table.reshape(N, N, N)
    B3 = T1.table.reshape(N, N, N)
    blocks = []
    for T, off in ((T0, 0), (T1, 64)):
        d3t = np.asarray(boundary_matrix(T, 3, verify=False)).T % 2
        blk = np.zeros((d3t.shape[0], 128), dtype=np.int64)
        blk[:, off:off + 64] = d3t
        blocks.append(blk)
    grid = np.indices((N,) * 6).reshape(6, -1)
    x0, x1, y0, y1, z0, z1 = grid
    ay = A3[y0, z0, z1]
    by = B3[y1, z0, z1]
    rows = np.arange(x0.size)

    def scatter(cols_plus, cols_minus):
        blk = np.zeros((x0.size, 128), dtype=np.int64)
        for c in cols_plus:
            np.add.at(blk, (rows, c), 1)
        for c in cols_minus:
            np.add.at(blk, (rows, c), -1)
        return blk % 2

    idx = lambda a, b, c: (a * N + b) * N + c
    blocks.append(scatter(
        [idx(x0, y0, y1), 64 + idx(B3[x1, y0, y1], z0, z1)],
        [64 + idx(x1, z0, z1), idx(A3[x0, z0, z1], ay, by)]))
    lead = x0 if printed else x1
    blocks.append(scatter(
        [64 + idx(x1, y0, y1), idx(A3[x0, y0, y1], z0, z1)],
        [idx(x0, z0, z1), 64 + idx(B3[lead, z0, z1], ay, by)]))
    return np.vstack(blocks)


def test_z4_pair_solution_dimensions():
    assert len(nullspace_mod_p(z4_pair_system(False), 2)) == 16
    assert len(nullspace_mod_p(z4_pair_system(True), 2)) == 12


def test_z4_pair_checker_agrees_with_system():
    # the pairwise checker accepts exactly the solutions of the linear system
    T0, T1 = z4_pair()
    basis = nullspace_mod_p(z4_pair_system(False), 2)
    rng = random.Random(5)
    for _ in range(5):
        vec = sum(rng.randrange(2) * v for v in basis) % 2
        psi0 = Cochain(4, 3, 2, vec[:64])
        psi1 = Cochain(4, 3, 2, vec[64:])
        assert are_compatible_ternary_cocycles(psi0, psi1, T0, T1)
    # a single cocycle pair outside the solution space fails the checker
    d3t0 = np.asarray(boundary_matrix(T0, 3, verify=False)).T % 2
    d3t1 = np.asarray(boundary_matrix(T1, 3, verify=False)).T % 2
    outside = None
    for v0 in nullspace_mod_p(d3t0, 2):
        for v1 in nullspace_mod_p(d3t1, 2):
            joint = np.concatenate([v0, v1])
            if (z4_pair_system(False) @ joint % 2).any():
                outside = (v0, v1)
                break
        if outside:
            break
    assert outside is not None
    res = are_compatible_ternary_cocycles(Cochain(4, 3, 2, outside[0]),
                                          Cochain(4, 3, 2, outside[1]), T0, T1)
    assert not res


def doubled_ternary_formula(psi0, psi1, T0, T1):
    """psi0(x0,y) + psi1(x1,y) + psi0(T0(x0,y), z) + psi1(T1(x1,y), z), one
    residue row per tuple of the square carrier."""
    N = T0.size
    A = T0.table.reshape(N, N, N)
    B = T1.table.reshape(N, N, N)
    s0 = psi0.values.reshape(N, N, N, -1)
    s1 = psi1.values.reshape(N, N, N, -1)
    return np.array([s0[x0, y0, y1] + s1[x1, y0, y1]
                     + s0[A[x0, y0, y1], z0, z1] + s1[B[x1, y0, y1], z0, z1]
                     for x0, x1, y0, y1, z0, z1
                     in itertools.product(range(N), repeat=6)]) % psi0.coeff.factors


def test_doubled_ternary_cocycle_and_route():
    # doubling a compatible pair gives a cocycle of the doubled operation,
    # equal to the four-term formula, and its binary passage is a cocycle
    # on the way; unchecked, the formula holds for any cochains
    T0, T1 = z4_pair()
    G = g_functor(T0, T1)
    DT = doubling_ternary(T0, T1)
    for vec in nullspace_mod_p(z4_pair_system(False), 2):
        psi0 = Cochain(4, 3, 2, vec[:64])
        psi1 = Cochain(4, 3, 2, vec[64:])
        dbl = doubled_ternary_cocycle(psi0, psi1, T0, T1)
        assert is_ternary_2cocycle(dbl, DT)
        phi = binary_cocycle_from_ternary_pair(psi0, psi1, T0, T1)
        assert is_binary_2cocycle(phi, G)
        assert are_mutually_distributive_cocycles(phi, phi, G, G)
        assert np.array_equal(dbl.values, doubled_ternary_formula(psi0, psi1, T0, T1))
    rng = np.random.default_rng(11)
    psi0, psi1 = (Cochain(4, 3, (2, 3), rng.integers(0, 6, (64, 2))) for _ in range(2))
    dbl = doubled_ternary_cocycle(psi0, psi1, T0, T1, verify=False)
    assert np.array_equal(dbl.values, doubled_ternary_formula(psi0, psi1, T0, T1))


def test_binary_passage_values():
    # phi((x0,x1),(y0,y1)) = psi0(x0,y0,y1) + psi1(x1,y0,y1) pointwise
    T0, T1 = z4_pair()
    vec = nullspace_mod_p(z4_pair_system(False), 2)[0]
    psi0 = Cochain(4, 3, 2, vec[:64])
    psi1 = Cochain(4, 3, 2, vec[64:])
    phi = binary_cocycle_from_ternary_pair(psi0, psi1, T0, T1)
    assert phi.size == 16
    for x0, x1, y0, y1 in itertools.product(range(4), repeat=4):
        want = (psi0(x0, y0, y1)[0] + psi1(x1, y0, y1)[0]) % 2
        assert phi(x0 * 4 + x1, y0 * 4 + y1) == (want,)


def doubled_binary_formula(phi0, phi1, op0):
    """phi0(x0,y0) + phi1(x0 *0 y0, y1) + phi0(x1,y0) + phi1(x1 *0 y0, y1),
    one residue row per pair of the square carrier."""
    N = op0.size
    s = op0.table.reshape(N, N)
    p0 = phi0.values.reshape(N, N, -1)
    p1 = phi1.values.reshape(N, N, -1)
    return np.array([p0[x0, y0] + p1[s[x0, y0], y1] + p0[x1, y0] + p1[s[x1, y0], y1]
                     for x0, x1, y0, y1 in itertools.product(range(N), repeat=4)]
                    ) % phi0.coeff.factors


def test_doubled_binary_cocycle_and_route():
    # binary doubling on the dihedral pair: valid on the doubled rack and
    # equal to the four-term formula; unchecked, the formula holds for any
    # cochains over two different operations
    DR = doubling_binary(dih3(), dih3())
    for v in pair_basis():
        phi0, phi1 = split_pair(v)
        dbl = doubled_binary_cocycle(phi0, phi1, dih3(), dih3())
        assert is_binary_2cocycle(dbl, DR)
        assert np.array_equal(dbl.values, doubled_binary_formula(phi0, phi1, dih3()))
    rng = np.random.default_rng(12)
    op0, op1 = affine_op(4, 2, (3,)), affine_op(4, 2, (1,))
    phi0, phi1 = (Cochain(4, 2, (2, 3), rng.integers(0, 6, (16, 2))) for _ in range(2))
    dbl = doubled_binary_cocycle(phi0, phi1, op0, op1, verify=False)
    assert np.array_equal(dbl.values, doubled_binary_formula(phi0, phi1, op0))


def test_passage_charges_cover_what_they_hold(monkeypatch):
    # each passage charges its summed values, their reduction and its base
    # table before it starts, and a doubled cocycle's second passage holds
    # the first one's result besides; constant cochains satisfy every pair
    # condition, so the hypotheses are checked too
    charged = []
    charge = limits.charge_bytes
    monkeypatch.setattr(limits, "charge_bytes",
                        lambda need, what: charged.append(need) or charge(need, what))
    R24, R16 = core_quandle(cyclic_group(24)), core_quandle(cyclic_group(16))
    T8, T16 = affine_op(8, 3, (3, 6)), affine_op(16, 3, (2, 0))

    def const(op):
        return Cochain(op.size, op.arity, 5, np.ones(op.table.size, np.int64))

    calls = [(ternary_cocycle_from_pair, R24), (binary_cocycle_from_ternary_pair, T16),
             (doubled_binary_cocycle, R16), (doubled_ternary_cocycle, T8)]
    for passage, op in calls:
        args = (const(op), const(op), op, op)
        passage(*args)
        charged.clear()
        tracemalloc.start()
        try:
            passage(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * max(charged), (passage.__name__, peak, charged)


def test_self_pair_compatibility_is_not_automatic():
    # constant cochains are compatible with themselves, and so is every
    # cocycle produced by the pair passage, but a general ternary cocycle
    # need not be: the order-9 affine extraction below fails as a self-pair
    T = heap2()
    const = make_cochain(2, 3, 2, lambda x, y, z: 1)
    assert is_ternary_2cocycle(const, T)
    assert are_compatible_ternary_cocycles(const, const, T, T)

    p, m = 3, 2
    E, Nx = p ** (m + 1), p ** m
    TX = affine_op(Nx, 3, ((1 - 2 * p) % Nx, p % Nx))
    vals = [(((1 - 2 * p) * x + p * y + p * z) % E) // Nx
            for x, y, z in itertools.product(range(Nx), repeat=3)]
    psi = Cochain(Nx, 3, p, np.array(vals))
    assert is_ternary_2cocycle(psi, TX)
    assert not are_compatible_ternary_cocycles(psi, psi, TX, TX)


# ---------------------------------------------------------------------------
# extensions

def test_extend_binary_table():
    phi = Cochain(3, 2, 3, solver_cochains(dih3(), 2, 3)[0])
    E = extend(dih3(), phi)
    assert E.size == 9 and E.arity == 2
    assert E.meta["construction"] == "abelian_extension"
    assert E.meta["base_size"] == 3 and E.meta["coeff"] == [3]
    s = dih3().table.reshape(3, 3)
    tab = E.table.reshape(9, 9)
    for x, a, y, b in itertools.product(range(3), repeat=4):
        got = int(tab[x * 3 + a, y * 3 + b])
        assert got == int(s[x, y]) * 3 + (a + phi(x, y)[0]) % 3
    assert is_rack(E)


def test_extend_is_rack_iff_cocycle():
    rng = random.Random(23)
    d2t = np.asarray(boundary_matrix(dih3(), 2, verify=False)).T
    hits = {True: 0, False: 0}
    for i in range(30):
        if i % 2:
            c = Cochain(3, 2, 3, np.array([rng.randrange(3) for _ in range(9)]))
        else:
            eta = np.array([rng.randrange(3) for _ in range(3)])
            c = Cochain(3, 2, 3, (d2t @ eta) % 3)
        ok = bool(is_binary_2cocycle(c, dih3()))
        E = extend(dih3(), c, verify=False)
        assert bool(is_rack(E)) == ok
        hits[ok] += 1
    assert hits[True] and hits[False]


def test_extend_verify_refuses_non_cocycle():
    bad = make_cochain(3, 2, 3, lambda x, y: x * y)
    with pytest.raises(PreconditionError):
        extend(dih3(), bad)


def test_extend_mutual_pair():
    # extending a mutual pair by a mutual cocycle pair stays mutual
    v = pair_basis()[0]
    phi0, phi1 = split_pair(v)
    E0, E1 = extend_mutual_pair(dih3(), dih3(), phi0, phi1)
    assert is_nary_distributive(E0) and is_nary_distributive(E1)
    assert exchange_holds(E0, E1) and exchange_holds(E1, E0)


def coboundary(f, op, d):
    """The cochain (x, y) -> f(x * y) - f(x) mod d of a function f on the carrier."""
    x = np.arange(op.size ** 2) // op.size
    return Cochain(op.size, 2, d, (f[op.table] - f[x]) % d)


def test_extensions_of_enumerated_pairs_by_coboundaries():
    # the paper's theorem on every mutual pair on 2 points and a seeded
    # sample of 200 on 3: coboundaries f o op_i - f satisfy the pair
    # conditions by the exchange laws, so the extended pair is mutual
    rng = random.Random(0xC0B)
    pairs = enumerate_mutual_pairs(2) + rng.sample(enumerate_mutual_pairs(3), 200)
    for op0, op1 in pairs:
        for d in (2, 3):
            f = np.array([rng.randrange(d) for _ in range(op0.size)])
            phi0, phi1 = coboundary(f, op0, d), coboundary(f, op1, d)
            E0, E1 = extend_mutual_pair(op0, op1, phi0, phi1)
            assert E0.size == E1.size == op0.size * d
            assert are_mutually_distributive(E0, E1)
            assert is_nary_distributive(E0) and is_nary_distributive(E1)


def test_extend_ternary_iff_cocycle():
    rng = random.Random(7)
    hits = {True: 0, False: 0}
    T = tern3()
    for _ in range(24):
        c = Cochain(3, 3, 3, np.array([rng.randrange(3) for _ in range(27)]))
        ok = bool(is_ternary_2cocycle(c, T))
        E = extend(T, c, verify=False)
        assert bool(is_nary_distributive(E)) == ok
        hits[ok] += 1
    assert hits[False]


def test_extend_coeff_product_group():
    # extension by a Z2 x Z2 valued cocycle has carrier 3 * 4
    c = zero_cochain(3, 2, (2, 2))
    E = extend(dih3(), c)
    assert E.size == 12
    assert is_rack(E)


# ---------------------------------------------------------------------------
# power operations

def test_power_cocycle_degree_one_is_identity():
    phi = Cochain(3, 2, 3, solver_cochains(dih3(), 2, 3)[1])
    p1 = power_cocycle(phi, dih3(), 1)
    assert np.array_equal(p1.values, phi.values)


def test_power_cocycle_frozen_square():
    # the power-2 cocycle of this base cochain vanishes identically
    phi = Cochain(3, 2, 3, np.array([0, 0, 1, 2, 0, 2, 1, 0, 0]))
    assert is_binary_2cocycle(phi, dih3())
    p2 = power_cocycle(phi, dih3(), 2)
    assert not p2.values.any()
    assert is_binary_2cocycle(p2, power_op(dih3(), 2))


def test_power_cocycle_validity_small_powers():
    phi = Cochain(3, 2, 3, np.array([0, 0, 1, 2, 0, 2, 1, 0, 0]))
    for n in range(1, 5):
        pn = power_cocycle(phi, dih3(), n)
        assert is_binary_2cocycle(pn, power_op(dih3(), n))


def test_power_cocycle_rejects_negative():
    with pytest.raises(InputError):
        power_cocycle(zero_cochain(3, 2, 3), dih3(), -1)


# ---------------------------------------------------------------------------
# extension of a pair followed by composition, against composing first

def test_pair_extension_square_constant():
    phi0 = make_cochain(3, 2, 3, lambda x, y: 1)
    phi1 = zero_cochain(3, 2, 3)
    assert are_mutually_distributive_cocycles(phi0, phi1, dih3(), dih3())
    E0, E1 = extend_mutual_pair(dih3(), dih3(), phi0, phi1)
    left = f_functor(E0, E1)
    psi = ternary_cocycle_from_pair(phi0, phi1, dih3(), dih3())
    right = extend(f_functor(dih3(), dih3()), psi)
    assert left == right


def test_pair_extension_square_power_pair():
    phi = Cochain(3, 2, 3, np.array([0, 0, 1, 2, 0, 2, 1, 0, 0]))
    phi2 = power_cocycle(phi, dih3(), 2)
    sq = power_op(dih3(), 2)
    assert are_mutually_distributive_cocycles(phi, phi2, dih3(), sq)
    E0, E1 = extend_mutual_pair(dih3(), sq, phi, phi2)
    left = f_functor(E0, E1)
    psi = ternary_cocycle_from_pair(phi, phi2, dih3(), sq)
    right = extend(f_functor(dih3(), sq), psi)
    assert left == right


# ---------------------------------------------------------------------------
# the order-p^m affine family: nontrivial classes detected three ways

def affine_family(p, m):
    E, Nx = p ** (m + 1), p ** m
    TE = affine_op(E, 3, ((1 - 2 * p) % E, p % E))
    TX = affine_op(Nx, 3, ((1 - 2 * p) % Nx, p % Nx))
    vals = [(((1 - 2 * p) * x + p * y + p * z) % E) // Nx
            for x, y, z in itertools.product(range(Nx), repeat=3)]
    return TE, TX, Cochain(Nx, 3, p, np.array(vals))


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2)])
def test_affine_family_cocycle_and_relabel(p, m):
    TE, TX, psi = affine_family(p, m)
    assert is_ternary_2cocycle(psi, TX)
    # the big carrier is the extension, up to the digit-swap relabel
    E, Nx = p ** (m + 1), p ** m
    perm = [(e % Nx) * p + (e // Nx) for e in range(E)]
    assert relabel(TE, perm) == extend(TX, psi)


def test_affine_family_digit_formula():
    # at m=1 the leading-digit formula reproduces the extracted cochain;
    # at m=2 the two differ (first at (0,1,2)) yet both are cocycles
    for p, m in ((3, 1), (3, 2)):
        _, TX, psi = affine_family(p, m)
        Nx = p ** m
        dig = lambda w: (w // p ** (m - 1)) % p
        disp = [(dig(y) + dig(z) - 2 * dig(x)) % p
                for x, y, z in itertools.product(range(Nx), repeat=3)]
        displayed = Cochain(Nx, 3, p, np.array(disp))
        if m == 1:
            assert displayed == psi
        else:
            assert displayed != psi
            assert psi(0, 1, 2) == (1,) and displayed(0, 1, 2) == (0,)
            assert is_ternary_2cocycle(displayed, TX)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2)])
def test_affine_family_cycle_pairing(p, m):
    # explicit 2-cycles pair nontrivially with the extracted cocycle
    _, TX, psi = affine_family(p, m)
    Nx = p ** m
    t = TX.table.reshape(Nx, Nx, Nx)
    for r in range(p ** (m - 1)):
        s = (-r + 2 * r * p + p ** (m - 1)) % Nx
        gens = [(0, r, r), ((2 * r * p) % Nx, s, s)]
        bnd = np.zeros(Nx, dtype=np.int64)
        total = 0
        for (x, b0, b1) in gens:
            bnd[x] += 1
            bnd[int(t[x, b0, b1])] -= 1
            total += psi(x, b0, b1)[0]
        assert not bnd.any()            # a cycle in the ternary complex
        assert total % p == 2           # nonzero pairing, so [psi] != 0


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2)])
def test_affine_family_not_cohomologous_to_zero(p, m):
    _, TX, psi = affine_family(p, m)
    ok, eta = cocycles_cohomologous(psi, zero_cochain(TX.size, 3, p), TX)
    assert not ok and eta is None


def test_affine_family_extension_inequivalent():
    # psi is not cohomologous to zero (above), so no translation
    # (x, a) -> (x, a + eta(x)) carries its extension to the trivial one
    for p, m in ((3, 1), (3, 2)):
        _, TX, psi = affine_family(p, m)
        res = extension_equivalent(extend(TX, psi),
                                   extend(TX, zero_cochain(TX.size, 3, p)), TX, p)
        assert not res and res.detail == "cochains not cohomologous"


def test_extension_equivalent_refuses_tables_outside_standard_form():
    # the right projection on X x Z2 is not an extension of the left
    # projection of X, though the identity is a fiber bijection: no verdict
    # is given, at any size
    for n in (2, 11, 14):
        table = make_op_table(2 * n, 2, lambda x, y: y)
        with pytest.raises(InputError, match="first table is not a standard-form"):
            extension_equivalent(table, table, projection_op(n, 2), 2)
    good = extend(dih3(), zero_cochain(3, 2, 3))
    # the image of one tuple moved within its fiber, and into another fiber
    for i, shift in ((4, 1), (4, 3)):
        tab = good.table.copy()
        tab[i] = (tab[i] + shift) % 9
        with pytest.raises(InputError, match="second table is not a standard-form"):
            extension_equivalent(good, make_op_table(9, 2, tab), dih3(), 3)


def test_extension_equivalent_positive():
    # adding a coboundary gives an equivalent extension
    d2t = np.asarray(boundary_matrix(dih3(), 2, verify=False)).T
    phi = Cochain(3, 2, 3, solver_cochains(dih3(), 2, 3)[0])
    shifted = Cochain(3, 2, 3, (phi.values[:, 0] + d2t @ np.array([1, 0, 2])) % 3)
    res = extension_equivalent(extend(dih3(), phi), extend(dih3(), shifted),
                               dih3(), 3)
    assert res
    ok, eta = cocycles_cohomologous(phi, shifted, dih3())
    assert ok
    # the witness satisfies delta eta = phi - shifted
    diff = (phi.values[:, 0] - shifted.values[:, 0]) % 3
    assert np.array_equal((d2t @ eta.values[:, 0]) % 3, diff)


def translation_loop(ext0, ext1, N, o):
    """Oracle: try every translation f(x, a) = (x, a + eta(x)) over Z_o on
    every tuple, one tuple at a time."""
    k = ext0.arity
    tuples = list(itertools.product(range(N * o), repeat=k))
    for eta in itertools.product(range(o), repeat=N):
        f = [v // o * o + (v + eta[v // o]) % o for v in range(N * o)]
        if all(f[int(ext0.table[tuple_to_index(args, N * o)])]
               == ext1.table[tuple_to_index(tuple(f[v] for v in args), N * o)]
               for args in tuples):
            return True
    return False


def _translated(ext, N, o, rng):
    """ext transported along a random translation (x, a) -> (x, a + eta(x))."""
    eta = rng.integers(0, o, N)
    return relabel(ext, [x * o + (a + int(eta[x])) % o
                         for x in range(N) for a in range(o)])


def _perturbed(ext, rng):
    tab = ext.table.copy()
    i = int(rng.integers(tab.size))
    tab[i] = (tab[i] + 1 + int(rng.integers(ext.size - 1))) % ext.size
    return make_op_table(ext.size, ext.arity, tab)


def test_extension_equivalent_matches_the_translation_oracle():
    rng = np.random.default_rng(7)
    cases = [(dih3(), 2), (dih3(), 3), (core_quandle(cyclic_group(4)), 2),
             (tern3(), 2), (heap2(), 3), (projection_op(2, 2), 3)]
    compared = {True: 0, False: 0}
    for base, o in cases:
        N, k = base.size, base.arity
        zero = extend(base, zero_cochain(N, k, o))
        sols = [Cochain(N, k, o, v[:, 0])
                for v in cohomology_solve(base, 2, o).cocycles]
        exts = [zero] + [extend(base, c) for c in sols[:2]]
        exts += [_translated(e, N, o, rng) for e in exts]
        for e0 in exts:
            for e1 in exts:
                want = translation_loop(e0, e1, N, o)
                assert extension_equivalent(e0, e1, base, o).holds == want
                compared[want] += 1
            # a changed entry leaves standard form, with o > 1 points a fiber
            with pytest.raises(InputError, match="second table is not"):
                extension_equivalent(e0, _perturbed(e0, rng), base, o)
    assert compared[True] and compared[False]


def test_affine_family_equivalence_matches_the_translation_oracle():
    _, TX, psi = affine_family(3, 1)
    E1 = extend(TX, psi)
    E0 = extend(TX, zero_cochain(3, 3, 3))
    rng = np.random.default_rng(11)
    moved = _translated(E1, 3, 3, rng)
    for a, b, want in ((E1, E0, False), (E0, E1, False), (E1, moved, True),
                       (moved, E0, False)):
        assert translation_loop(a, b, 3, 3) == want
        assert extension_equivalent(a, b, TX, 3).holds == want


@pytest.mark.parametrize("base,d", [("R3", 3), ("R5", 5)])
def test_extension_equivalence_is_cohomology(base, d):
    # phi against 2 phi: the fiber bijection (x, a) -> (x, 2a) carries one
    # extension to the other but does not commute with the action of Z_d,
    # and the cochains are not cohomologous, so the extensions are not
    # equivalent; phi against phi plus a coboundary is
    op = core_quandle(cyclic_group(d))
    zero = zero_cochain(d, 2, d)
    phi = next(c for c in (Cochain(d, 2, d, v[:, 0])
                           for v in cohomology_solve(op, 2, d).cocycles)
               if not cocycles_cohomologous(c, zero, op)[0])
    twice = Cochain(d, 2, d, 2 * phi.values[:, 0] % d)
    E1, E2 = extend(op, phi), extend(op, twice)
    assert relabel(E1, [x * d + 2 * a % d for x in range(d) for a in range(d)]) == E2
    res = extension_equivalent(E1, E2, op, d)
    assert not res and res.detail == "cochains not cohomologous"
    d2t = np.asarray(boundary_matrix(op, 2, verify=False)).T
    eta = np.arange(1, d + 1) ** 2 % d
    shifted = Cochain(d, 2, d, (phi.values[:, 0] + d2t @ eta) % d)
    assert shifted != phi
    res = extension_equivalent(E1, extend(op, shifted), op, d)
    assert res and "cohomologous" in res.detail


@pytest.mark.parametrize("N,o", [(3, 4), (2, 5), (5, 3)])
def test_nonstandard_extensions_are_refused_fast(N, o):
    # every fiber map carries the right projection to itself, so a search
    # over fiber bijections read every tuple of every candidate; the right
    # projection is no standard-form extension, and is refused at once
    M = N * o
    right = make_op_table(M, 2, lambda x, y: y)
    tab = right.table.copy()
    tab[-1] = (tab[-1] + 1) % M
    start = time.perf_counter()
    with pytest.raises(InputError, match="not a standard-form extension"):
        extension_equivalent(right, make_op_table(M, 2, tab), projection_op(N, 2), o)
    assert time.perf_counter() - start < 1


def test_extension_equivalent_refuses_mismatched_shapes():
    good = extend(dih3(), zero_cochain(3, 2, 2))
    for bad in (dih3(), extend(dih3(), zero_cochain(3, 2, 3)),
                make_op_table(6, 3, lambda x, y, z: x)):
        for pair in ((good, bad), (bad, good)):
            with pytest.raises(InputError, match="extension"):
                extension_equivalent(*pair, dih3(), 2)


@pytest.mark.parametrize("name,d", [("R3", 3), ("R4", 2), ("R5", 5),
                                    ("S3", 2), ("A5t2", 5), ("T3", 3)])
def test_solved_cocycles_extend_to_racks(name, d):
    # the paper's extension theorem on every degree-2 generator the solver
    # returns: each is a cocycle, and its extension is again a rack
    op = {"R3": core_quandle(cyclic_group(3)), "R4": core_quandle(cyclic_group(4)),
          "R5": core_quandle(cyclic_group(5)),
          "S3": conj_quandle(symmetric_group(3)),
          "A5t2": affine_op(5, 2, [2]), "T3": tern3()}[name]
    N, k = op.size, op.arity
    is_cocycle = is_binary_2cocycle if k == 2 else is_ternary_2cocycle
    gens = cohomology_solve(op, 2, d).cocycles
    assert len(gens)
    for v in gens:
        c = Cochain(N, k, d, v[:, 0])
        assert is_cocycle(c, op)
        assert is_rack(extend(op, c, verify=False))


def test_cohomologous_is_reflexive_and_symmetric():
    phi = Cochain(3, 2, 3, solver_cochains(dih3(), 2, 3)[2])
    assert cocycles_cohomologous(phi, phi, dih3())[0]
    other = Cochain(3, 2, 3, solver_cochains(dih3(), 2, 3)[0])
    ab = cocycles_cohomologous(phi, other, dih3())[0]
    ba = cocycles_cohomologous(other, phi, dih3())[0]
    assert ab == ba


# ---------------------------------------------------------------------------
# short exact coefficient sequences and the degree-3 obstruction

def test_cyclic_ses_shape():
    ses = cyclic_ses(3, 3)
    assert ses.sub.factors == (3,)
    assert ses.total.factors == (9,)
    assert ses.quotient.factors == (3,)
    assert ses.inclusion.tolist() == [0, 3, 6]
    assert ses.projection.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]
    assert ses.section.tolist() == [0, 1, 2]


def test_split_ses_shape():
    ses = split_ses(3, 3)
    assert ses.total.factors == (3, 3)
    assert ses.section.tolist() == [0, 1, 2]


def test_ses_validation():
    with pytest.raises(InputError):
        SES(AbGroup((3,)), AbGroup((9,)), AbGroup((3,)),
            [0, 3, 7], [0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 1, 2])
    with pytest.raises(InputError):
        SES(AbGroup((3,)), AbGroup((9,)), AbGroup((3,)),
            [0, 3, 6], [0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 1, 3])
    # a section only has to split the projection and fix 0; it need not be
    # additive, and the nonadditive lift [0, 4, 2] is accepted
    SES(AbGroup((3,)), AbGroup((9,)), AbGroup((3,)),
        [0, 3, 6], [0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 4, 2])
    with pytest.raises(InputError):
        SES(AbGroup((2,)), AbGroup((9,)), AbGroup((3,)),
            [0, 3], [0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 1, 2])
    # out-of-range map entries are refused, not used as indices
    for maps in (([0, 2], [0, 1, 0, 9], [0, 1]), ([0, 2], [0, 1, 0, 1], [0, 5]),
                 ([0, -2], [0, 1, 0, 1], [0, 1])):
        with pytest.raises(InputError, match="outside"):
            SES([2], [4], [2], *maps)


def test_ses_rejects_non_integer_maps():
    # floats would otherwise be truncated to a different, valid sequence
    good = ([0, 2], [0, 1, 0, 1], [0, 1])
    SES([2], [4], [2], *good)
    for pos, bad in ((0, [0, 2.7]), (2, [0, 1.2]), (1, [False, True] * 2),
                     (0, [0, 2 ** 64]), (0, [0, 10 ** 30])):
        maps = list(good)
        maps[pos] = bad
        with pytest.raises(InputError, match="integers"):
            SES([2], [4], [2], *maps)


def test_ses_json_round_trip():
    ses = cyclic_ses(2, 4)
    back = SES.from_json(ses.as_json())
    assert back.as_json() == ses.as_json()


def test_three_cocycle_from_ses():
    # quotient-valued degree-2 cocycle on the order-9 affine operation,
    # lifted through 0 -> Z3 -> Z9 -> Z3 -> 0
    ses = cyclic_ses(3, 3)
    TX = affine_op(9, 3, (4, 3))
    vals = [((-5 * x + 3 * y + 3 * z) % 27) // 9
            for x, y, z in itertools.product(range(9), repeat=3)]
    phi = Cochain(9, 3, 3, np.array(vals))
    assert is_ternary_2cocycle(phi, TX)
    alpha = three_cocycle_from_ses(phi, TX, ses)
    assert alpha.nargs == 5
    assert alpha.coeff.factors == (3,)
    av = alpha.values[:, 0]
    assert av.any()
    assert sorted(set(int(v) for v in av)) == [0, 1, 2]
    # the degree-3 condition holds over all 9^7 argument tuples
    T3 = TX.table.reshape(9, 9, 9)
    A5 = av.reshape(9, 9, 9, 9, 9)
    ix = np.arange(9)
    y0 = ix[:, None, None, None, None, None]
    y1 = ix[None, :, None, None, None, None]
    z0 = ix[None, None, :, None, None, None]
    z1 = ix[None, None, None, :, None, None]
    w0 = ix[None, None, None, None, :, None]
    w1 = ix[None, None, None, None, None, :]
    for x0 in range(9):
        total = (- A5[T3[x0, y0, y1], z0, z1, w0, w1]
                 + A5[x0, z0, z1, w0, w1]
                 + A5[T3[x0, z0, z1], T3[y0, z0, z1], T3[y1, z0, z1], w0, w1]
                 - A5[x0, y0, y1, w0, w1]
                 - A5[T3[x0, w0, w1], T3[y0, w0, w1], T3[y1, w0, w1],
                      T3[z0, w0, w1], T3[z1, w0, w1]]
                 + A5[x0, y0, y1, z0, z1])
        assert not (total % 3).any()


def test_three_cocycle_split_ses_vanishes():
    # an additive section makes the obstruction vanish identically
    TX = affine_op(9, 3, (4, 3))
    vals = [((-5 * x + 3 * y + 3 * z) % 27) // 9
            for x, y, z in itertools.product(range(9), repeat=3)]
    phi = Cochain(9, 3, 3, np.array(vals))
    alpha = three_cocycle_from_ses(phi, TX, split_ses(3, 3), verify=False)
    assert not alpha.values.any()


def test_three_cocycle_coeff_mismatch():
    ses = cyclic_ses(3, 3)
    phi = zero_cochain(9, 3, 2)
    with pytest.raises(InputError):
        three_cocycle_from_ses(phi, affine_op(9, 3, (4, 3)), ses)


# ---------------------------------------------------------------------------
# extension classes of the two-point projection operation, counted two ways

def test_projection_op_extension_class_count():
    # T(x, y, z) = x on two points: the cocycle condition is vacuous, the
    # coboundary map is zero, so all 256 cochains give distinct classes
    T = make_op_table(2, 3, lambda x, y, z: x)
    cochains = [Cochain(2, 3, 2, np.array([(bits >> i) & 1 for i in range(8)]))
                for bits in range(256)]
    for c in cochains:
        assert is_ternary_2cocycle(c, T)

    res = cohomology_solve(T, 2, 2)
    assert res.invariants == (2,) * 8
    assert res.coboundaries.shape[0] == 0
    order = 1
    for d in res.invariants:
        order *= d

    # brute count: canonicalize each extension table under the four
    # fiber-preserving bijections f(x, a) = (x, h_x(a))
    perms = list(itertools.permutations(range(2)))
    maps = []
    for h0, h1 in itertools.product(perms, repeat=2):
        f = np.array([h0[0], h0[1], 2 + h1[0], 2 + h1[1]])
        maps.append((f, np.argsort(f)))
    seen = set()
    for c in cochains:
        tab = extend(T, c).table.reshape(4, 4, 4)
        canon = min(tuple(f[tab[np.ix_(inv, inv, inv)]].ravel())
                    for f, inv in maps)
        seen.add(canon)
    assert len(seen) == order == 256


# ---------------------------------------------------------------------------
# residue sums past 2^62, against Python-int oracles

BIG_FACTORS = [(2 ** 62 + 1,), (2 ** 63 - 25,), (2 ** 63 - 1,), (2, 2 ** 63 - 1)]


def big_cochain(rng, size, nargs, factors):
    """Residues mostly within 3 of each factor's top, where a sum of two
    wraps int64, and otherwise anywhere."""
    return Cochain(size, nargs, factors, [
        [f - 1 - rng.randrange(min(f, 3)) if rng.random() < 0.8 else rng.randrange(f)
         for f in factors] for _ in range(size ** nargs)])


def summed(factors, *terms):
    """The residue row of the sum of residue rows, in Python ints."""
    return [sum(col) % f for col, f in zip(zip(*terms), factors)]


def ternary_pair_oracle(phi0, phi1, op0):
    N, t = op0.size, op0.table.tolist()
    p0, p1 = phi0.values.tolist(), phi1.values.tolist()
    return [summed(phi0.coeff.factors, p0[x * N + y], p1[t[x * N + y] * N + z])
            for x, y, z in itertools.product(range(N), repeat=3)]


def binary_pair_oracle(psi0, psi1, N):
    s0, s1 = psi0.values.tolist(), psi1.values.tolist()
    return [summed(psi0.coeff.factors, s0[(x0 * N + y0) * N + y1], s1[(x1 * N + y0) * N + y1])
            for x0, x1, y0, y1 in itertools.product(range(N), repeat=4)]


def power_oracle(phi, op, n):
    N, t, p = op.size, op.table.tolist(), phi.values.tolist()
    out = []
    for x, y in itertools.product(range(N), repeat=2):
        terms, cur = [], x
        for _ in range(n):
            terms.append(p[cur * N + y])
            cur = t[cur * N + y]
        out.append(summed(phi.coeff.factors, [0] * phi.coeff.rank, *terms))
    return out


@pytest.mark.parametrize("factors", BIG_FACTORS)
def test_passages_sum_residues_exactly(factors):
    rng = random.Random(repr(factors))
    R3, A3 = dih3(), affine_op(3, 2, (1,))
    T0, T1 = affine_op(3, 3, (1, 1)), affine_op(3, 3, (2, 2))
    phi0, phi1 = (big_cochain(rng, 3, 2, factors) for _ in range(2))
    psi0, psi1 = (big_cochain(rng, 3, 3, factors) for _ in range(2))
    got = ternary_cocycle_from_pair(phi0, phi1, R3, A3, verify=False)
    assert got.values.tolist() == ternary_pair_oracle(phi0, phi1, R3)
    got = binary_cocycle_from_ternary_pair(psi0, psi1, T0, T1, verify=False)
    assert got.values.tolist() == binary_pair_oracle(psi0, psi1, 3)
    for n in (0, 1, 2, 3, 5):
        assert power_cocycle(phi0, R3, n, verify=False).values.tolist() == \
            power_oracle(phi0, R3, n)
    # the round trips compose the two passages, each checked above
    got = doubled_binary_cocycle(phi0, phi1, R3, A3, verify=False)
    psi = ternary_cocycle_from_pair(phi0, phi1, R3, A3, verify=False)
    assert got.values.tolist() == binary_pair_oracle(psi, psi, 3)
    got = doubled_ternary_cocycle(psi0, psi1, T0, T1, verify=False)
    phi = binary_cocycle_from_ternary_pair(psi0, psi1, T0, T1, verify=False)
    assert got.values.tolist() == ternary_pair_oracle(phi, phi, phi.base)


@pytest.mark.parametrize("d", [2 ** 62 + 1, 2 ** 63 - 25, 2 ** 63 - 1])
def test_checked_passages_of_a_top_cochain(d):
    # phi = d - 1 passes every hypothesis; int64 sums of it wrapped
    R3 = dih3()
    phi = Cochain(3, 2, d, [d - 1] * 9)
    assert ternary_cocycle_from_pair(phi, phi, R3, R3).values.ravel().tolist() == [d - 2] * 27
    assert power_cocycle(phi, R3, 2).values.ravel().tolist() == [d - 2] * 9
    assert power_cocycle(phi, R3, 3).values.ravel().tolist() == [d - 3] * 9
    assert doubled_binary_cocycle(phi, phi, R3, R3).values.ravel().tolist() == [d - 4] * 81


def test_index_array_refuses_orders_past_int64():
    assert AbGroup((2 ** 63 - 1,)).index_array(np.array([[2 ** 63 - 2]])).tolist() == [2 ** 63 - 2]
    for factors in ((2 ** 40, 2 ** 40), (2, 2 ** 62), (2 ** 63 - 1, 3)):
        with pytest.raises(InputError, match="past int64"):
            AbGroup(factors).index_array(np.zeros((1, 2), np.int64))


def test_unverified_passages_check_their_shapes():
    # verify=False skips the hypotheses, never the shapes: each mismatch is
    # an InputError, not an error from deep inside numpy
    d3, t3 = dih3(), tern3()
    z = zero_cochain
    cases = {
        "a size-3 phi0 with a size-4 phi1":
            lambda: ternary_cocycle_from_pair(z(3, 2, 2), z(4, 2, 2), d3, d3, verify=False),
        "ternary cochains on a binary pair":
            lambda: ternary_cocycle_from_pair(z(3, 3, 2), z(3, 3, 2), d3, d3, verify=False),
        "a size-2 psi1 on a size-3 pair":
            lambda: binary_cocycle_from_ternary_pair(z(3, 3, 2), z(2, 3, 2), t3, t3,
                                                     verify=False),
        "a doubling with a size-4 phi1":
            lambda: doubled_binary_cocycle(z(3, 2, 2), z(4, 2, 2), d3, d3, verify=False),
        "a doubling with a size-2 psi1":
            lambda: doubled_ternary_cocycle(z(3, 3, 2), z(2, 3, 2), t3, t3, verify=False),
    }
    for name, call in cases.items():
        with pytest.raises(InputError, match="cochain"):
            call()
