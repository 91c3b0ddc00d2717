"""Chain complexes and exact integer (co)homology for distributive operations.

One complex covers every case: the labeled complex of a finite system of
operations (any arities), whose generators carry a label vector selecting
which operation acts in each slot.  The ternary complex of one ternary
operation is the labeled complex of that one operation: its label vectors
are constant, so the degree-n chain group is free on the (2n-1)-tuples
(x0, b1, ..., b_{n-1}) with each b_i a pair; degree 0 is the zero group
and the first differential is 0.

Boundary of a generator: sum over i of (-1)^i (acted tuple - tuple with
slot i deleted), where "acted" applies the slot-i operation with tail b_i
to every earlier entry.  Generators are enumerated lexicographically
(label vector first for the labeled complex); matrices have one column
per generator of the higher degree.

All arithmetic is exact: matrices are int64, Smith reduction runs on
Python integers (no overflow), nothing is floating point.  Invariant
factors come from unit-pivot elimination on a sparse copy of the matrix,
then a dense Smith reduction of the small residual.  When unimodular
transforms are needed (modular solving, cocycle generators), the dense
reduction runs on the whole matrix.  Homology and cohomology with Z/d
coefficients are read off the integral invariant factors through the
universal coefficient theorem.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import limits
from .optable import (
    CheckResult,
    InputError,
    OpTable,
    exchange_holds,
    is_nary_distributive,
)
from .constructions import PreconditionError, _require


# ---------------------------------------------------------------------------
# generator bookkeeping

def _digit_grid(size, ndigits, count):
    """Array (ndigits, count) of base-`size` digits of 0..count-1, big-endian."""
    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((ndigits, count), dtype=np.int64)
    for pos in range(ndigits - 1, -1, -1):
        digits[pos] = idx % size
        idx //= size
    return digits


def _charge_boundary(rows, cols, n, what):
    """Charge a dense int64 boundary matrix and its assembly: about n^2
    passes over the columns, which also covers tiny carriers of huge degree."""
    limits.charge_bytes(8 * rows * cols, what)
    limits.charge_steps(n * n * cols, what)


def labeled_blocks(system: Sequence[OpTable], n: int):
    """(label_vector, offset, count) for each block of degree-n generators."""
    if n <= 0:
        return []
    N = system[0].size
    k = len(system)
    arities = [t.arity for t in system]
    blocks = []
    offset = 0
    for eps in _label_vectors(k, n - 1):
        count = N ** (1 + sum(arities[e] - 1 for e in eps))
        blocks.append((eps, offset, count))
        offset += count
    return blocks


def _label_vectors(k, length):
    if length == 0:
        return [()]
    out = []
    for eps in np.ndindex(*([k] * length)):
        out.append(tuple(int(e) for e in eps))
    return out


def labeled_generator_count(system: Sequence[OpTable], n: int) -> int:
    """N * S^(n-1), saturated like `limits.power`, with S the sum of
    N^(arity - 1) over the system: each of the n-1 tail slots takes any
    operation's label and tail."""
    if n <= 0:
        return 0
    N = system[0].size
    return N * limits.power(sum(N ** (t.arity - 1) for t in system), n - 1)


def _check_system(system):
    if not system:
        raise InputError("empty operation system")
    N = system[0].size
    for t in system:
        if t.size != N:
            raise InputError("system operations live on different carriers")


def _require_system(system):
    for t in system:
        _require(is_nary_distributive(t), "every system operation is self-distributive")
    for a in range(len(system)):
        for b in range(len(system)):
            if a == b:
                continue
            _require(exchange_holds(system[a], system[b]),
                     f"system operations {a} and {b} satisfy the exchange law")


def labeled_boundary(system: Sequence[OpTable], n: int,
                     verify: bool = True) -> np.ndarray:
    """Degree-n differential of the labeled complex of an operation system.

    For a single binary operation this is the classical rack boundary,
    and for a single ternary operation the ternary boundary.
    """
    system = list(system)
    if n < 1:
        raise InputError("degree must be >= 1")
    _check_system(system)
    N = system[0].size
    rows = labeled_generator_count(system, n - 1)
    cols = labeled_generator_count(system, n)
    _charge_boundary(rows, cols, n, f"the labeled boundary at degree {n}, size {N}")
    if verify:
        _require_system(system)
    arities = [t.arity for t in system]
    if n == 1:
        return np.zeros((0, N), dtype=np.int64)
    hi = labeled_blocks(system, n)
    lo_offset = {eps: off for eps, off, _ in labeled_blocks(system, n - 1)}
    M = np.zeros((rows, cols), dtype=np.int64)

    for eps, offset, count in hi:
        tails = [arities[e] - 1 for e in eps]
        ndig = 1 + sum(tails)
        dig = _digit_grid(N, ndig, count)
        colidx = offset + np.arange(count, dtype=np.int64)
        starts = [1]
        for L in tails:
            starts.append(starts[-1] + L)
        for i in range(1, n):
            e_i = eps[i - 1]
            Ti = system[e_i].table
            Li = tails[i - 1]
            sign = (-1) ** i

            def act(v, dig=dig, Ti=Ti, s=starts[i - 1], Li=Li, N=N):
                flat = v
                for q in range(Li):
                    flat = flat * N + dig[s + q]
                return Ti[flat]

            new_eps = eps[:i - 1] + eps[i:]
            acted = act(dig[0])
            deleted = dig[0]
            for k in range(1, n):
                if k == i:
                    continue
                s, L = starts[k - 1], tails[k - 1]
                for q in range(L):
                    comp = dig[s + q]
                    acted = acted * N + (act(comp) if k < i else comp)
                    deleted = deleted * N + comp
            base = lo_offset[new_eps]
            np.add.at(M, (base + acted, colidx), sign)
            np.add.at(M, (base + deleted, colidx), -sign)
    return M


def _system(target) -> list:
    """An OpTable as the system of that one operation, or the sequence as a list."""
    return [target] if isinstance(target, OpTable) else list(target)


def boundary_matrix(target, n: int, verify: bool = True) -> np.ndarray:
    """Degree-n differential of the labeled complex of one OpTable or of a
    sequence of them."""
    return labeled_boundary(_system(target), n, verify=verify)


def _generator_count(target, n):
    return labeled_generator_count(_system(target), n)


# ---------------------------------------------------------------------------
# Smith normal form on exact integers

def xgcd(a: int, b: int):
    """(g, s, t) with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class SmithResult:
    """U @ M @ V = diag(factors) with U, V unimodular (when requested)."""
    factors: Tuple[int, ...]
    U: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(matrix, transforms: bool = False) -> SmithResult:
    """Invariant factors of an integer matrix, optionally with transforms.

    Without transforms, unit pivots are first eliminated on a sparse copy
    and only the residual is reduced densely.  Reduction runs on Python
    integers, so intermediates never overflow.
    """
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    if transforms:
        # the matrix and both transforms as Python lists
        rows, cols = A.shape
        limits.charge_bytes(8 * (rows * cols + rows * rows + cols * cols),
                            f"a {rows} x {cols} Smith reduction with transforms")
        return _smith_dense([[int(v) for v in row] for row in A], A.shape[1],
                            transforms=True)
    units, residual, cols = _eliminate_unit_pivots(A)
    return SmithResult((1,) * units + _smith_dense(residual, cols).factors)


def _eliminate_unit_pivots(A):
    """Split +-1 pivots off A, working on a sparse dict-of-rows copy.

    Each step takes a sparsest column holding a unit and, in it, the unit of
    the shortest row; row operations clear the rest of that column, and the
    pivot row and column leave as one invariant factor 1.  Columns re-enter
    the queue whenever fill-in changes them.  Returns (pivots eliminated,
    residual rows as dense lists, residual column count); all-zero rows and
    columns are dropped, which changes no invariant factor.
    """
    ri, ci = np.nonzero(A)
    rows, cols = {}, {}
    for i, j, v in zip(ri.tolist(), ci.tolist(), A[ri, ci].tolist()):
        v = int(v)
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    queue = [(len(members), j) for j, members in cols.items()]
    heapq.heapify(queue)
    units = 0
    while queue:
        count, c = heapq.heappop(queue)
        col = cols.get(c)
        if col is None or len(col) != count:
            continue            # stale entry; a fresh one was queued
        pivots = [i for i in col if rows[i][c] in (1, -1)]
        if not pivots:
            continue            # queued again if fill-in changes the column
        p = min(pivots, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(p)
        u = prow.pop(c)
        del cols[c]
        col.discard(p)
        for j in prow:
            cols[j].discard(p)
        for i in col:
            row = rows[i]
            f = row.pop(c) * u
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
        units += 1
    position = {j: k for k, j in enumerate(sorted(cols))}
    residual = []
    for i in sorted(rows):
        dense = [0] * len(position)
        for j, v in rows[i].items():
            dense[position[j]] = v
        residual.append(dense)
    return units, residual, len(position)


def _smith_dense(M, cols: int, transforms: bool = False) -> SmithResult:
    """Smith reduction of the dense row lists M (modified in place)."""
    rows = len(M)
    U = [[int(i == j) for j in range(rows)] for i in range(rows)] if transforms else None
    V = [[int(i == j) for j in range(cols)] for i in range(cols)] if transforms else None

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def row_combine(r, i, s, t, u, v):
        # (row_r, row_i) <- (s row_r + t row_i, u row_r + v row_i), sv - tu = 1
        Mr, Mi = M[r], M[i]
        for j in range(cols):
            a, b = Mr[j], Mi[j]
            Mr[j] = s * a + t * b
            Mi[j] = u * a + v * b
        if U is not None:
            Ur, Ui = U[r], U[i]
            for j in range(rows):
                a, b = Ur[j], Ui[j]
                Ur[j] = s * a + t * b
                Ui[j] = u * a + v * b

    def col_combine(r, j, s, t, u, v):
        for row in M:
            a, b = row[r], row[j]
            row[r] = s * a + t * b
            row[j] = u * a + v * b
        if V is not None:
            for row in V:
                a, b = row[r], row[j]
                row[r] = s * a + t * b
                row[j] = u * a + v * b

    factors = []
    r = 0
    limit = min(rows, cols)
    while r < limit:
        piv = None
        best = None
        for i in range(r, rows):
            Mi = M[i]
            for j in range(r, cols):
                v = Mi[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(r, piv[0])
        swap_cols(r, piv[1])
        while True:
            # one xgcd step per entry: pivot becomes gcd, entry becomes 0
            for i in range(r + 1, rows):
                b = M[i][r]
                if b:
                    a = M[r][r]
                    if b % a == 0:
                        q = b // a
                        row_combine(r, i, 1, 0, -q, 1)
                    else:
                        g, s, t = xgcd(a, b)
                        row_combine(r, i, s, t, -(b // g), a // g)
            clean = True
            for j in range(r + 1, cols):
                b = M[r][j]
                if b:
                    a = M[r][r]
                    if b % a == 0:
                        q = b // a
                        col_combine(r, j, 1, 0, -q, 1)
                    else:
                        g, s, t = xgcd(a, b)
                        col_combine(r, j, s, t, -(b // g), a // g)
                        clean = False   # mixing may refill the pivot column
            if clean and not any(M[i][r] for i in range(r + 1, rows)):
                break
        d = M[r][r]
        if d < 0:
            for j in range(cols):
                M[r][j] = -M[r][j]
            if U is not None:
                for j in range(rows):
                    U[r][j] = -U[r][j]
            d = -d
        folded = False
        for i in range(r + 1, rows):
            Mi = M[i]
            for j in range(r + 1, cols):
                if Mi[j] % d:
                    Mr = M[r]
                    for jj in range(cols):
                        Mr[jj] += Mi[jj]
                    if U is not None:
                        Ur, Ui = U[r], U[i]
                        for jj in range(rows):
                            Ur[jj] += Ui[jj]
                    folded = True
                    break
            if folded:
                break
        if folded:
            continue
        factors.append(d)
        r += 1
    if transforms:
        Ua = np.array(U, dtype=object) if rows else np.zeros((0, 0), dtype=object)
        Va = np.array(V, dtype=object) if cols else np.zeros((0, 0), dtype=object)
        return SmithResult(tuple(factors), Ua, Va)
    return SmithResult(tuple(factors))


def _matmul_obj(A, B):
    """Exact product of object/int matrices as python ints."""
    A = np.asarray(A, dtype=object)
    B = np.asarray(B, dtype=object)
    return A @ B


# Residues modulo d are held as int64 entries, and `solve_mod` and
# `kernel_lattice_mod` take each invariant factor's gcd with d by np.gcd,
# which converts both to int64; so a modulus may be at most 2^63 - 1.
MODULUS_MAX = int(np.iinfo(np.int64).max)


def _check_modulus(modulus: int, what: str):
    if modulus > MODULUS_MAX:
        raise InputError(
            f"refusing {what} modulo {modulus}: residues and their gcds are"
            f" int64 values, budget {MODULUS_MAX}")


def solve_mod(matrix, rhs, modulus: int):
    """One solution x of matrix @ x = rhs (mod modulus), or None.

    Works for any modulus from 1 to MODULUS_MAX via Smith normal form.
    """
    if modulus < 1:
        raise InputError("modulus must be >= 1")
    _check_modulus(modulus, "a linear solve")
    A = np.asarray(matrix)
    b = np.asarray(rhs).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise InputError("rhs length does not match matrix rows")
    if modulus == 1:
        return np.zeros(A.shape[1], dtype=np.int64)
    snf = smith_normal_form(A, transforms=True)
    d = snf.factors
    Ub = _matmul_obj(snf.U, b.astype(object))
    rows, cols = A.shape
    y = [0] * cols
    for i in range(rows):
        target = int(Ub[i]) % modulus
        di = d[i] if i < len(d) else 0
        g = int(np.gcd(di, modulus))  # gcd(0, m) = m
        if target % g:
            return None
        if di and g != modulus:
            mm = modulus // g
            y[i] = (target // g) * pow((di // g) % mm, -1, mm) % mm
    x = _matmul_obj(snf.V, np.array(y, dtype=object))
    return np.array([int(v) % modulus for v in x], dtype=np.int64)


def kernel_lattice_mod(matrix, modulus: int) -> np.ndarray:
    """Columns generate {x : matrix @ x = 0 (mod modulus)} together with
    modulus * Z^n (the returned square matrix has full rank)."""
    _check_modulus(modulus, "a kernel lattice")
    A = np.asarray(matrix)
    cols = A.shape[1]
    if modulus == 1:
        return np.eye(cols, dtype=object)
    snf = smith_normal_form(A, transforms=True)
    scale = []
    for i in range(cols):
        di = snf.factors[i] if i < len(snf.factors) else 0
        g = int(np.gcd(di, modulus)) if di else modulus
        scale.append(modulus // g)
    V = np.asarray(snf.V, dtype=object)
    return V * np.array(scale, dtype=object)[None, :]


def combine_invariant_factors(groups: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Invariant-factor chain of a direct sum given per-summand factors.

    Each cyclic factor is merged into the chain from the top down with
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); nothing is factored, so huge
    orders cost only gcds.  Factors <= 1 contribute nothing."""
    chain = []
    for factors in groups:
        for f in factors:
            carry = int(f)
            for k in range(len(chain) - 1, -1, -1):
                if carry <= 1:
                    break
                carry, chain[k] = (math.gcd(chain[k], carry),
                                   math.lcm(chain[k], carry))
            if carry > 1:
                chain.insert(0, carry)
    return tuple(chain)


# ---------------------------------------------------------------------------
# homology / cohomology results

@dataclass(frozen=True)
class HomologyResult:
    betti: int
    torsion: Tuple[int, ...]


@dataclass(frozen=True)
class CohomologyResult:
    """Generating data for n-cocycles and n-coboundaries mod a coefficient
    group, plus the invariant factors of the quotient.

    cocycles / coboundaries: arrays of shape (count, generators, factors)
    holding residue columns per coefficient factor; for the labeled complex
    `blocks` records (label_vector, offset, count) so degree-2 vectors can
    be split into the per-operation components."""
    cocycles: np.ndarray
    coboundaries: np.ndarray
    invariants: Tuple[int, ...]
    blocks: Tuple = ()


def _coeff_factors(coeff) -> Tuple[int, ...]:
    """Cyclic factors of the coefficient group: () for None (integral)."""
    if coeff is None:
        return ()
    if isinstance(coeff, int):
        factors = (coeff,)
    elif isinstance(coeff, (list, tuple)):
        factors = coeff
    else:
        factors = getattr(coeff, "factors", None)
        if factors is None:
            raise InputError("coefficients must be None (integral), an int, "
                             "a sequence of ints, or an AbGroup")
    factors = tuple(int(f) for f in factors)
    if any(f < 0 for f in factors):
        raise InputError(f"coefficient factors must be >= 0, got {factors}")
    return factors


def _integral_factors(target, n, dn, dn1):
    """(b_n, invariant factors of d_n and of d_{n+1}), all factors kept."""
    low = smith_normal_form(dn).factors
    high = smith_normal_form(dn1).factors
    return _generator_count(target, n) - len(low) - len(high), low, high


def _finite_invariants(betti, factors, coeffs) -> Tuple[int, ...]:
    """Invariant factors (> 1) of H_n(C; G) for G the sum of Z/d over coeffs.

    By the universal coefficient theorem H_n(C; Z/d) = H_n (x) Z/d +
    Tor(H_{n-1}, Z/d) = (Z/d)^b_n + sum of Z/gcd(f, d) over the factors f of
    d_n and d_{n+1}; H^n(C; Z/d) is the same group."""
    return combine_invariant_factors(
        [(d,) * betti + tuple(math.gcd(f, d) for f in factors) for d in coeffs])


def homology(target, n: int, coeff=None, verify: bool = True) -> HomologyResult:
    """H_n of the ternary or labeled complex.

    coeff None computes integral homology (betti + invariant factors of the
    torsion subgroup).  A positive int d, a sequence of them, or an AbGroup
    computes the finite group H_n(X; coeff) from the integral factors by
    universal coefficients, reported with betti 0 and the cyclic
    decomposition in `torsion` (factors > 1)."""
    if n < 1:
        raise InputError("degree must be >= 1")
    coeffs = _coeff_factors(coeff)
    if 0 in coeffs:
        raise InputError("infinite cyclic coefficients are only valid integrally")
    dn = boundary_matrix(target, n, verify=verify)
    dn1 = boundary_matrix(target, n + 1, verify=False)
    betti, low, high = _integral_factors(target, n, dn, dn1)
    if not coeffs:
        return HomologyResult(betti, tuple(f for f in high if f > 1))
    return HomologyResult(0, _finite_invariants(betti, low + high, coeffs))


def cohomology_solve(target, n: int, coeff, verify: bool = True) -> CohomologyResult:
    """Generating sets of n-cocycles / n-coboundaries and H^n invariants.

    The coboundary on n-cochains is the transpose of the degree-(n+1)
    boundary; for the labeled complex at degree 2 the cocycle vectors split
    per operation label into the pairs (phi_0, phi_1, ...).  The invariants
    come from the integral factors by universal coefficients."""
    if n < 1:
        raise InputError("degree must be >= 1")
    factors = _coeff_factors(coeff)
    if not factors:
        raise InputError("cohomology_solve needs finite coefficients")
    if 0 in factors:
        raise InputError("cochain coefficients must be finite")
    for d in factors:
        _check_modulus(d, "cochain coefficients")
    dn1 = boundary_matrix(target, n + 1, verify=verify)
    dn = boundary_matrix(target, n, verify=False)
    delta_n, delta_prev = dn1.T, dn.T    # n-cochains -> n+1, (n-1)-cochains -> n
    gens = _generator_count(target, n)
    # per factor, a gens x factors vector for each of the gens kernel columns
    # and the dn.shape[0] coboundary columns
    vectors = len(factors) * (gens + dn.shape[0])
    limits.charge_bytes(8 * vectors * gens * len(factors),
                        f"degree-{n} cocycle and coboundary generators")
    betti, low, high = _integral_factors(target, n, dn, dn1)
    cocycles = []
    coboundaries = []
    for fi, d in enumerate(factors):
        if d == 1:
            continue
        K = kernel_lattice_mod(delta_n, d)
        # generating set: nonzero columns of K mod d
        for j in range(K.shape[1]):
            col = np.array([int(v) % d for v in K[:, j]], dtype=np.int64)
            if col.any():
                vec = np.zeros((gens, len(factors)), dtype=np.int64)
                vec[:, fi] = col
                cocycles.append(vec)
        img = delta_prev % d
        for j in range(img.shape[1]):
            col = img[:, j]
            if col.any():
                vec = np.zeros((gens, len(factors)), dtype=np.int64)
                vec[:, fi] = col
                coboundaries.append(vec)
    blocks = ()
    if not (isinstance(target, OpTable) and target.arity == 3):
        blocks = tuple(labeled_blocks(_system(target), n))
    shape = (len(cocycles), gens, len(factors))
    cz = np.array(cocycles, dtype=np.int64) if cocycles else np.zeros(shape, np.int64)
    cb = (np.array(coboundaries, dtype=np.int64) if coboundaries
          else np.zeros((0, gens, len(factors)), np.int64))
    return CohomologyResult(cz, cb, _finite_invariants(betti, low + high, factors),
                            blocks)


# ---------------------------------------------------------------------------
# chain maps from the ternary complex of a pair's composite to the labeled one

def chain_map_F(op0: OpTable, op1: OpTable, n: int,
                verify: bool = True) -> np.ndarray:
    """Chain map C_n(ternary composite) -> C_n(labeled pair), degrees 1..3.

    Degree 1 is the identity; degree 2 sends (x,y0,y1) to
    (x,y0) in block (0,) plus (x*0 y0, y1) in block (1,); degree 3 has four
    unit entries in blocks (0,0), (0,1), (1,0), (1,1)."""
    if n not in (1, 2, 3):
        raise InputError("chain map defined for degrees 1, 2, 3")
    for t in (op0, op1):
        if t.arity != 2:
            raise InputError("chain map needs a pair of binary operations")
    if op0.size != op1.size:
        raise InputError("operations live on different carriers")
    N = op0.size
    system = [op0, op1]
    cols = N ** (2 * n - 1)
    rows = labeled_generator_count(system, n)
    limits.charge_bytes(8 * rows * cols, f"the degree-{n} chain map on a size"
                        f" {N} carrier ({rows} x {cols})")
    if verify:
        _require(exchange_holds(op0, op1), "pair satisfies the exchange law (0 over 1)")
        _require(exchange_holds(op1, op0), "pair satisfies the exchange law (1 over 0)")
        _require(is_nary_distributive(op0), "first operation is self-distributive")
        _require(is_nary_distributive(op1), "second operation is self-distributive")
    if n == 1:
        return np.eye(N, dtype=np.int64)
    offs = {eps: off for eps, off, _ in labeled_blocks(system, n)}
    S0 = op0.table.reshape(N, N)
    M = np.zeros((rows, cols), dtype=np.int64)
    colidx = np.arange(cols, dtype=np.int64)
    dig = _digit_grid(N, 2 * n - 1, cols)
    if n == 2:
        x, y0, y1 = dig
        np.add.at(M, (offs[(0,)] + x * N + y0, colidx), 1)
        np.add.at(M, (offs[(1,)] + S0[x, y0] * N + y1, colidx), 1)
        return M
    x, y0, y1, z0, z1 = dig
    np.add.at(M, (offs[(0, 0)] + (x * N + y0) * N + z0, colidx), 1)
    np.add.at(M, (offs[(0, 1)] + (S0[x, z0] * N + S0[y0, z0]) * N + z1, colidx), 1)
    np.add.at(M, (offs[(1, 0)] + (S0[x, y0] * N + y1) * N + z0, colidx), 1)
    np.add.at(M, (offs[(1, 1)] + (S0[S0[x, y0], z0] * N + S0[y1, z0]) * N + z1,
                  colidx), 1)
    return M


def verify_chain_map(op0: OpTable, op1: OpTable) -> CheckResult:
    """Exact matrix identities F_1 d = d F_2 and F_2 d = d F_3."""
    from .constructions import f_functor

    # degree-1 call checks SD + mutual distributivity; the composite ternary
    # operation is then SD even when the pair is not a rack pair
    F = {k: chain_map_F(op0, op1, k, verify=(k == 1)) for k in (1, 2, 3)}
    T = f_functor(op0, op1, verify=False)
    system = [op0, op1]
    for n in (2, 3):
        lhs = F[n - 1] @ labeled_boundary([T], n, verify=False)
        rhs = labeled_boundary(system, n, verify=False) @ F[n]
        if (lhs != rhs).any():
            col = int(np.argwhere((lhs != rhs).any(axis=0))[0][0])
            return CheckResult(
                False, None,
                f"chain map identity fails at degree {n}, generator column {col}")
    return CheckResult(True)


def pullback_labeled_2cocycle(phi0, phi1, op0: OpTable, op1: OpTable,
                              verify: bool = True):
    """Pull a labeled 2-cocycle pair back to a ternary 2-cochain through the
    degree-2 chain map (transpose composition).  The result equals the
    ternary cochain phi0(x,y0) + phi1(x *0 y0, y1)."""
    from .cocycles import Cochain, are_mutually_distributive_cocycles

    if verify:
        _require(are_mutually_distributive_cocycles(phi0, phi1, op0, op1),
                 "labeled 2-cocycle conditions")
    F2 = chain_map_F(op0, op1, 2, verify=False)
    vals = np.concatenate([phi0.values, phi1.values], axis=0)
    mods = np.array(phi0.coeff.factors, dtype=np.int64)
    out = (F2.T @ vals) % mods[None, :]
    return Cochain(op0.size, 3, phi0.coeff, out)
