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
Python integers (no overflow), nothing is floating point.  Every exact
linear-algebra answer comes from one `Elimination` of the matrix: unit
pivots are eliminated on a sparse copy and recorded as (column, unit,
pivot row at elimination, row operations), and the small residual left
over gets one dense Smith reduction.  The pivots are found in sweeps over
the columns, sparsest first, each sweep visiting only the columns that a
pivot changed since their last visit; so a column is examined at most
once plus once per pivot row it lies in, whatever the order in which
fill-in makes units (see `_eliminate_unit_pivots`).  The Smith reduction
carries only the transforms a question needs, as appended identity
blocks: an identity right of the residual rows becomes U under the row
operations, and an identity below them becomes V under the column
operations, so each operation is written once.  The invariant factors
are a 1 per pivot plus the residual's; a kernel lattice mod d lifts V's
columns through the pivots by back-substitution; a solve mod d carries
the right side through the recorded row operations, solves the residual
with U and V and back-substitutes.  `smith_normal_form` returns the
invariant factors alone; U and V of a whole matrix are the tests' dense
oracle.
`cohomology_solve` reduces the coboundary once for its factors and every
coefficient.  Homology and cohomology with Z/d coefficients are read off
the integral invariant factors through the universal coefficient theorem.

`homology` cuts d_{n+1} down before its elimination by two identities,
both resting on d o d = 0 (Kaczynski-Mrozek-Slusarek, Comput. Math. Appl.
35, 1998), and assembles only what survives:
- Columns.  With b the last slot of a degree-(n+1) generator (r, b),
  d_{n+1}(r, b) = d_n(r) (x) b + (-1)^n (R_b r - r), where (x) b appends b
  and R_b applies b's operation and tail to every entry of r.  Applying
  d_{n+1} to d_{n+2}(r, b*) puts col(r) - col(R_{b*} r) in the span of the
  columns whose last slot is b*, so those columns and the least generator
  of each forward orbit of R_{b*} span the same lattice as all columns.
- Rows.  The rows of d_{n+1} at the unit-pivot columns of d_n's
  elimination are integer combinations of its other rows, since d_n
  d_{n+1} = 0, so dropping them keeps the invariant factors.
`verify=True` establishes d o d = 0 from the self-distributive and
exchange laws; with `verify=False` the caller vouches for it.  The charge
of d_{n+1} stays that of the whole matrix on purpose, so no refusal moves;
pricing the work that actually runs is ROADMAP item 4.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import limits
from .kernels import digits
from .optable import CheckResult, InputError, OpTable
from .constructions import _require_ops


# ---------------------------------------------------------------------------
# generator bookkeeping

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


def _charge_labeled(system, n):
    """Charge the degree-n differential of the system at its full size, and
    return its (rows, cols)."""
    rows = labeled_generator_count(system, n - 1)
    cols = labeled_generator_count(system, n)
    _charge_boundary(rows, cols, n, f"the labeled boundary at degree {n}, size"
                     f" {system[0].size}")
    return rows, cols


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
    rows, cols = _charge_labeled(system, n)
    if verify:
        _require_ops(system, "self-distributive", "mutually distributive")
    return _assemble(system, n, np.arange(cols), np.arange(rows))


def _assemble(system, n, columns, rows) -> np.ndarray:
    """The degree-n differential on the given generator columns and rows:
    sorted index arrays into the degree-n and degree-(n-1) generators.
    Entries in rows left out are dropped."""
    N = system[0].size
    arities = [t.arity for t in system]
    position = np.full(labeled_generator_count(system, n - 1), -1, dtype=np.int64)
    position[rows] = np.arange(len(rows))
    lo_offset = {eps: off for eps, off, _ in labeled_blocks(system, n - 1)}
    M = np.zeros((len(rows), len(columns)), dtype=np.int64)

    for eps, offset, count in labeled_blocks(system, n):
        first, stop = np.searchsorted(columns, (offset, offset + count))
        if first == stop:
            continue
        tails = [arities[e] - 1 for e in eps]
        ndig = 1 + sum(tails)
        dig = digits(columns[first:stop] - offset, N, ndig)
        colidx = np.arange(first, stop)
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
            for target, value in ((acted, sign), (deleted, -sign)):
                row = position[base + target]
                hit = row >= 0
                np.add.at(M, (row[hit], colidx[hit]), value)
    return M


def _translations(system) -> np.ndarray:
    """One row per slot value (label, tail), labels first and tails in
    generator order: the translation v -> T_label(v, tail) of the carrier."""
    N = system[0].size
    return np.concatenate([t.table.reshape(N, -1).T for t in system])


def _least_in_orbit(f, rounds):
    """(least point of each forward orbit, f^(2^rounds)) for a map f of
    range(len(f)) into itself whose forward orbits have at most 2^rounds
    points, by pointer doubling: after k rounds `least` is the least of x,
    f(x), ..., f^(2^k - 1)(x)."""
    least = np.arange(len(f))
    for _ in range(rounds):
        least = np.minimum(least, least[f])
        f = f[f]
    return least, f


def _cheapest_slot(system) -> int:
    """The slot value whose translation has the fewest cycles on the
    carrier, the first one on ties.  Fewer cycles leave fewer orbits of
    generators, so fewer columns (see `_spanning_columns`)."""
    S = _translations(system)
    slots, N = S.shape
    least, power = _least_in_orbit((S + N * np.arange(slots)[:, None]).ravel(),
                                   N.bit_length())
    # the power maps onto the periodic points, and `least` names each one's
    # cycle; flatnonzero of the bincount lists the distinct names, as
    # np.unique would without loading numpy.ma
    cycles = np.bincount(np.flatnonzero(np.bincount(least[power])) // N,
                         minlength=slots)
    return int(np.argmin(cycles))


def _spanning_columns(system, n, slot) -> np.ndarray:
    """Sorted degree-n generators whose columns of d_n span the same lattice
    as all of d_n's columns, given d_n d_{n+1} = 0.

    Write a degree-n generator as (r, b), b its last slot.  The degree-(n+1)
    generator (r, b*), b* the slot value `slot`, has boundary
    d_n(r) (x) b* +- (R r - r), where R applies b*'s translation to every
    entry of r and keeps the labels, and d_n(r) (x) b* sums generators
    whose last slot is b*.  Applying d_n shows d_n(r) - d_n(R r) lies in
    the span of those generators' columns.  So those columns, plus the
    least generator of each forward orbit of R, span all of them.
    """
    N = system[0].size
    sigma = _translations(system)[slot]
    label, tail = 0, slot
    while tail >= N ** (system[label].arity - 1):
        tail -= N ** (system[label].arity - 1)
        label += 1
    step = N ** (system[label].arity - 1)
    blocks = labeled_blocks(system, n)
    total = blocks[-1][1] + blocks[-1][2]
    R = np.empty(total, dtype=np.int64)
    keep = np.zeros(total, dtype=bool)
    lifted = [sigma]                    # R on k digits at lifted[k - 1]
    for eps, offset, count in blocks:
        ndig = 1 + sum(system[e].arity - 1 for e in eps)
        while len(lifted) < ndig:
            lifted.append((lifted[-1][:, None] * N + sigma).ravel())
        R[offset:offset + count] = offset + lifted[ndig - 1]
        if eps[-1] == label:
            keep[offset + tail:offset + count:step] = True
    least, _ = _least_in_orbit(R, total.bit_length())
    keep[least] = True
    return np.flatnonzero(keep)


def _reduced_boundary(system, n, low: "Elimination", slot) -> np.ndarray:
    """d_n on `_spanning_columns`, without the rows at the unit-pivot
    columns of d_{n-1}'s elimination `low`: it has d_n's invariant factors.

    low's row operations turn the pivot rows of d_{n-1} into a unit
    triangular block on its pivot columns P plus entries on the other
    columns, so d_{n-1} d_n = 0 writes the rows P of d_n as integer
    combinations of its other rows, and row operations clear them.
    """
    rows = np.ones(low.shape[1], dtype=bool)
    rows[[c for c, *_ in low.pivots]] = False
    return _assemble(system, n, _spanning_columns(system, n, slot),
                     np.flatnonzero(rows))


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
    """The invariant factors of an integer matrix."""
    factors: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(matrix) -> SmithResult:
    """Invariant factors of an integer matrix.

    The factors come from an `Elimination`: one 1 for each unit pivot
    eliminated on a sparse copy, then the factors of the small residual,
    reduced on Python integers so intermediates never overflow.
    """
    return SmithResult(Elimination(matrix).factors)


def _eliminate_unit_pivots(A):
    """Split +-1 pivots off A, working on a sparse dict-of-rows copy.

    The columns are visited in sweeps.  Each sweep visits the columns that
    changed since their last visit, all of them in the first sweep, once
    each, in (row count, index) order fixed when the sweep starts.  At a
    visited column c holding a unit it takes the unit u of the shortest
    row p, least index first; the row operations row_i -= f * row_p clear
    the rest of column c, and row p and column c leave as one invariant
    factor 1.  The columns of row p are the ones that changed; a column
    visited without a unit waits until a pivot changes it.  So a column is
    examined once at the start and at most once more per pivot row it lies
    in: at most (columns + sum of pivot row lengths) examinations, and the
    sweeps stop after one that takes no pivot.  A column never comes back
    once it is cleared, so each pivot row involves only its own column and
    columns that are eliminated later or never.

    Returns (pivots, residual, residual rows, residual columns).  Each
    pivot is recorded in elimination order as (c, u, p, rest of row p as
    {column: entry}, the operations as (i, f) pairs).  The residual is the
    rows left over, as dense lists over the columns left over; both index
    lists are sorted.  Rows and columns that became all zero are dropped,
    which changes no invariant factor.
    """
    ri, ci = np.nonzero(A)
    values = A[ri, ci].tolist()
    if A.dtype.kind not in "iu":        # Python ints beyond int64, bools
        values = [int(v) for v in values]
    ri, ci = ri.tolist(), ci.tolist()
    rows = {i: {} for i in dict.fromkeys(ri)}
    cols = {j: set() for j in dict.fromkeys(ci)}
    for i, j, v in zip(ri, ci, values):
        rows[i][j] = v
        cols[j].add(i)
    pivots = []
    changed = set(cols)
    while changed:
        sweep = sorted((len(cols[j]), j) for j in changed if j in cols)
        changed = set()
        for _, c in sweep:
            col = cols.get(c)
            if col is None:
                continue            # a pivot, or emptied earlier in the sweep
            changed.discard(c)
            p = best = None
            for i in col:
                row = rows[i]
                if row[c] in (1, -1) and (p is None or (len(row), i) < best):
                    best, p = (len(row), i), i
            if p is None:
                continue            # visited again once a pivot changes it
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
                    if j in row:
                        w = row[j] - f * v
                        if w:
                            row[j] = w
                        else:
                            del row[j]
                            cols[j].discard(i)
                    else:
                        row[j] = -f * v
                        cols[j].add(i)
                if not row:
                    del rows[i]
            for j in prow:
                if cols[j]:
                    changed.add(j)
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


class Elimination:
    """An integer matrix A with its unit pivots eliminated once and recorded.

    The pivots come from `_eliminate_unit_pivots`, in the order its sweeps
    take them: sparsest column first within a sweep, the next sweep over
    the columns those pivots changed, at most (columns + sum of pivot row
    lengths) column examinations in all.  Row operations change neither
    the invariant factors nor the kernel, and the recorded pivots make
    A x = b block triangular: pivot (c, u, p, prow)
    reads u x_c + sum(prow[j] x_j) = b_p, with b carried through the
    recorded row operations, and the residual R involves only the columns
    that were never pivots.  So every answer is built from the record plus
    one dense Smith reduction U R V = D of the small residual, and then
    the pivot columns are back-substituted in reverse order,
    x_c = u (b_p - sum(prow[j] x_j)).  The residual reduction carries only
    the transforms a question needs, and each one runs at most once, so the
    factors, every kernel lattice and every solve of one matrix share it.
    """

    def __init__(self, matrix):
        A = np.asarray(matrix)
        if A.ndim != 2:
            raise InputError("matrix must be two-dimensional")
        self.shape = A.shape
        (self.pivots, self.residual,
         self.res_rows, self.res_cols) = _eliminate_unit_pivots(A)
        self._reduced = {}

    def _reduce(self, left: bool, right: bool):
        """(factors, U, V) of the residual; U and V are None unless asked for."""
        key = (left, right)
        if key not in self._reduced:
            rows, cols = len(self.res_rows), len(self.res_cols)
            what = f"a {rows} x {cols} residual Smith reduction"
            limits.charge_bytes(
                8 * (rows * cols + left * rows * rows + right * cols * cols),
                what)
            # the reduction works on the residual bordered by an identity
            # for each transform it carries: U adds rows columns, V cols
            # rows; half a step an entry per pivot bounds the entries it
            # updates, 0.16-0.27 of the charge on the largest residuals of
            # H5 of R4 (107 x 933) and H4 of conj(S3) (59 x 1183)
            limits.charge_steps((rows + right * cols) * (cols + left * rows)
                                * min(rows, cols) // 2, what)
            self._reduced[key] = _smith_transforms(self.residual, rows, cols,
                                                   left, right)
        return self._reduced[key]

    @property
    def factors(self) -> Tuple[int, ...]:
        """Invariant factors of A: a 1 for each unit pivot, then the residual's,
        read off whichever residual reduction has already run."""
        if not self._reduced:
            self._reduce(False, False)
        return (1,) * len(self.pivots) + next(iter(self._reduced.values()))[0]

    def kernel_lattice_mod(self, modulus: int) -> np.ndarray:
        """Columns generate {x : A x = 0 (mod modulus)} together with
        modulus * Z^n; the square matrix has full rank.

        Column j is, for a pivot column, modulus * e_j; for a column that
        is neither a pivot nor in the residual, e_j lifted; for the k-th
        residual column, V's column k scaled by modulus / gcd(d_k, modulus)
        and lifted.  Lifting back-substitutes the pivot entries, reduced
        mod modulus.
        """
        _check_modulus(modulus, "a kernel lattice")
        n = self.shape[1]
        limits.charge_bytes(8 * n * n, f"a {n} x {n} kernel lattice")
        if modulus == 1:
            return np.eye(n, dtype=object)
        factors, _, V = self._reduce(False, True)
        pivot_cols = [c for c, *_ in self.pivots]
        lifted = sorted(set(range(n)).difference(pivot_cols))
        position = {j: k for k, j in enumerate(lifted)}
        G = np.zeros((n, len(lifted)), dtype=object)
        G[lifted, range(len(lifted))] = 1
        if self.res_cols:
            scale = [modulus // math.gcd(factors[k] if k < len(factors) else 0,
                                         modulus)
                     for k in range(len(self.res_cols))]
            G[np.ix_(self.res_cols, [position[j] for j in self.res_cols])] = (
                np.array(V, dtype=object) * np.array(scale, dtype=object))
        for c, u, _, prow, _ in reversed(self.pivots):
            acc = 0
            for j, v in prow.items():
                acc = acc + v * G[j]
            G[c] = (-u * acc) % modulus
        K = np.zeros((n, n), dtype=object)
        K[:, lifted] = G
        K[pivot_cols, pivot_cols] = modulus
        return K

    def solve_mod(self, rhs, modulus: int):
        """One solution x of A x = rhs (mod modulus) as int64 residues, or None."""
        _check_modulus(modulus, "a linear solve")
        b = np.asarray(rhs).reshape(-1)
        rows, cols = self.shape
        if b.shape[0] != rows:
            raise InputError("rhs length does not match matrix rows")
        if modulus == 1:
            return np.zeros(cols, dtype=np.int64)
        b = [int(v) % modulus for v in b.tolist()]
        for _, _, p, _, ops in self.pivots:
            if b[p]:
                for i, f in ops:
                    b[i] = (b[i] - f * b[p]) % modulus
        # rows that became zero are consistent only with a zero right side
        kept = set(self.res_rows).union(p for _, _, p, _, _ in self.pivots)
        if any(b[i] for i in range(rows) if i not in kept):
            return None
        factors, U, V = self._reduce(True, True)
        res_b = [b[i] for i in self.res_rows]
        x = [0] * cols
        y = [0] * len(self.res_cols)
        for i, Ui in enumerate(U):
            target = sum(a * v for a, v in zip(Ui, res_b)) % modulus
            di = factors[i] if i < len(factors) else 0
            g = math.gcd(di, modulus)       # gcd(0, m) = m
            if target % g:
                return None
            if di and g != modulus:
                mm = modulus // g
                y[i] = (target // g) * pow((di // g) % mm, -1, mm) % mm
        for j, Vj in zip(self.res_cols, V):
            x[j] = sum(a * v for a, v in zip(Vj, y)) % modulus
        for c, u, p, prow, _ in reversed(self.pivots):
            x[c] = u * (b[p] - sum(v * x[j] for j, v in prow.items())) % modulus
        return np.array(x, dtype=np.int64)


def _smith_transforms(A, rows: int, cols: int, left: bool, right: bool):
    """(factors, U, V) of the rows x cols integer row lists A, which stay
    unchanged; U and V are lists of rows, or None unless asked for.

    An identity right of A's rows becomes U under the row operations, and
    an identity below them becomes V under the column operations.
    """
    M = [row + [int(i == j) for j in range(rows if left else 0)]
         for i, row in enumerate(A)]
    if right:
        M += [[int(i == j) for j in range(cols)] for i in range(cols)]
    factors = _smith_dense(M, rows, cols)
    if left:
        for row in M[:rows]:
            del row[:cols]          # drop the reduced block, leaving U
    return factors, M[:rows] if left else None, M[rows:] if right else None


def _smith_dense(M, rows: int, cols: int) -> Tuple[int, ...]:
    """Invariant factors of the top-left rows x cols block of the row lists M.

    M is modified in place.  Row operations act on whole rows and column
    operations on every row of M, so whatever M holds right of the block or
    below it records them.
    """

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]

    def row_combine(r, i, s, t, u, v):
        # (row_r, row_i) <- (s row_r + t row_i, u row_r + v row_i), sv - tu = 1
        Mr, Mi = M[r], M[i]
        for j in range(len(Mr)):
            a, b = Mr[j], Mi[j]
            Mr[j] = s * a + t * b
            Mi[j] = u * a + v * b

    def col_combine(r, j, s, t, u, v):
        for row in M:
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
        M[r], M[piv[0]] = M[piv[0]], M[r]
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
            M[r] = [-v for v in M[r]]
            d = -d
        folded = False
        for i in range(r + 1, rows):
            Mi = M[i]
            for j in range(r + 1, cols):
                if Mi[j] % d:
                    M[r] = [a + b for a, b in zip(M[r], Mi)]
                    folded = True
                    break
            if folded:
                break
        if folded:
            continue
        factors.append(d)
        r += 1
    return tuple(factors)


# Residues modulo d are returned as int64 entries (solutions, cocycle and
# coboundary vectors), so a modulus may be at most 2^63 - 1.
MODULUS_MAX = int(np.iinfo(np.int64).max)


def _check_modulus(modulus: int, what: str):
    """Refuse a modulus below 1 or beyond MODULUS_MAX."""
    if modulus < 1:
        raise InputError(f"{what} needs a modulus >= 1, got {modulus}")
    if modulus > MODULUS_MAX:
        raise InputError(
            f"refusing {what} modulo {modulus}: residues and their gcds are"
            f" int64 values, budget {MODULUS_MAX}")


def solve_mod(matrix, rhs, modulus: int):
    """One solution x of matrix @ x = rhs (mod modulus), or None.

    Works for any modulus from 1 to MODULUS_MAX.  The right side is carried
    through the matrix's recorded unit-pivot elimination, the residual is
    solved through its Smith form, and the pivot entries are
    back-substituted; see `Elimination`.
    """
    return Elimination(matrix).solve_mod(rhs, modulus)


def kernel_lattice_mod(matrix, modulus: int) -> np.ndarray:
    """Columns generate {x : matrix @ x = 0 (mod modulus)} together with
    modulus * Z^n (the returned square matrix has full rank).

    Built from the matrix's recorded unit-pivot elimination and the V of
    its residual's Smith form; see `Elimination.kernel_lattice_mod`.
    """
    return Elimination(matrix).kernel_lattice_mod(modulus)


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


def _betti(target, n, low, high):
    """b_n from the invariant factors of d_n and of d_{n+1}, all kept."""
    return _generator_count(target, n) - len(low) - len(high)


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
    decomposition in `torsion` (factors > 1).

    d_{n+1} is reduced on fewer columns and rows with the same invariant
    factors, by two identities that rest on d o d = 0 (see the module
    notes).  Columns: col(r) - col(R_{b*} r) lies in the span of the
    columns whose last slot is b*, the slot value whose translation has
    the fewest cycles, so those columns and the least generator of each
    forward orbit of R_{b*} suffice.  Rows: the rows at the unit-pivot
    columns of d_n's elimination are combinations of the others.  With
    verify=True the laws that give d o d = 0 are checked; with verify=False
    the caller vouches for them.  d_{n+1} is still charged at its full
    size, on purpose; re-pricing it is ROADMAP item 4."""
    if n < 1:
        raise InputError("degree must be >= 1")
    coeffs = _coeff_factors(coeff)
    if 0 in coeffs:
        raise InputError("infinite cyclic coefficients are only valid integrally")
    system = _system(target)
    dn = boundary_matrix(system, n, verify=verify)
    _charge_labeled(system, n + 1)
    reduced = Elimination(dn)
    high = smith_normal_form(_reduced_boundary(system, n + 1, reduced,
                                               _cheapest_slot(system))).factors
    low = reduced.factors
    betti = _betti(target, n, low, high)
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
    # d_{n+1}^T is reduced once: its factors are d_{n+1}'s, and every
    # coefficient factor's kernel lattice reuses its residual reduction
    reduced = Elimination(delta_n)
    k = len(factors)
    cocycles = [np.zeros((0, gens, k), dtype=np.int64)]
    coboundaries = [np.zeros((0, gens, k), dtype=np.int64)]
    for fi, d in enumerate(factors):
        if d == 1:
            continue
        # generating sets: the columns nonzero mod d
        K = (reduced.kernel_lattice_mod(d) % d).astype(np.int64)
        cocycles.append(_factor_vectors(K[:, K.any(axis=0)], fi, k))
        img = delta_prev % d
        coboundaries.append(_factor_vectors(img[:, img.any(axis=0)], fi, k))
    low = smith_normal_form(dn).factors
    high = reduced.factors
    blocks = ()
    if not (isinstance(target, OpTable) and target.arity == 3):
        blocks = tuple(labeled_blocks(_system(target), n))
    return CohomologyResult(
        np.concatenate(cocycles), np.concatenate(coboundaries),
        _finite_invariants(_betti(target, n, low, high), low + high, factors),
        blocks)


def _factor_vectors(columns, fi, k):
    """Each column as a (generators, k) residue array supported on factor fi."""
    out = np.zeros((columns.shape[1], columns.shape[0], k), dtype=np.int64)
    out[:, :, fi] = columns.T
    return out


# ---------------------------------------------------------------------------
# chain maps from the ternary complex of a pair's composite to the labeled one

def chain_map_F(op0: OpTable, op1: OpTable, n: int,
                verify: bool = True) -> np.ndarray:
    """Chain map C_n(ternary composite) -> C_n(labeled pair), any degree n.

    A ternary generator (x, (y0_1, y1_1), ..., (y0_{n-1}, y1_{n-1})) goes
    to one unit entry in each block of label vectors eps, at the generator
    built from (x) slot by slot.  Slot i with label 0 appends y0_i; slot i
    with label 1 acts on every entry so far by *0 y0_i, then appends y1_i.
    Degree 1 is the identity; degree 2 sends (x, y0, y1) to (x, y0) in
    block (0,) plus (x *0 y0, y1) in block (1,)."""
    if n < 1:
        raise InputError("degree must be >= 1")
    for t in (op0, op1):
        if t.arity != 2:
            raise InputError("chain map needs a pair of binary operations")
    if op0.size != op1.size:
        raise InputError("operations live on different carriers")
    N = op0.size
    system = [op0, op1]
    cols = limits.power(N, 2 * n - 1)
    rows = labeled_generator_count(system, n)
    what = f"the degree-{n} chain map on a size {N} carrier ({rows} x {cols})"
    limits.charge_bytes(8 * rows * cols, what)
    # each label vector makes at most n^2 / 2 gathers and multiply-adds of
    # the columns' entries: 25 steps a numpy call and one an entry, 15-100 ns
    # a step on a 2-core Xeon
    limits.charge_steps(limits.power(2, n - 1) * n * n * (cols + 25) // 2, what)
    if verify:
        _require_ops(system, "self-distributive", "mutually distributive")
    S0 = op0.table.reshape(N, N)
    colidx = np.arange(cols, dtype=np.int64)
    x, *slots = digits(colidx, N, 2 * n - 1)
    M = np.zeros((rows, cols), dtype=np.int64)
    for eps, offset, _ in labeled_blocks(system, n):
        entries = [x]
        for e, y0, y1 in zip(eps, slots[::2], slots[1::2]):
            if e:
                entries = [S0[v, y0] for v in entries]
            entries.append(y1 if e else y0)
        row = 0
        for v in entries:
            row = row * N + v
        M[offset + row, colidx] = 1
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

