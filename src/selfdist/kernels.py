"""One numpy scan engine for the two-sided laws of finite operation tables.

Every law checked here has one shape: x acted on by y, then by z, against x
acted on by z, then by y acted on by z.  A `Law` states one instance of it:
n-ary self-distributivity and the exchange law, ternary compatibility, the
degree-2 cocycle condition, and the paired cocycle conditions.

A law is evaluated in row form.  Given a block of leading coordinates
(x.., y_1..y_{m-1}), `_sides` fills the (lhs, rhs) rows over every trailing
z-tuple, so each inner lookup is a row gather of table.reshape(N, N**(k-1)).
`_blocks` walks the leading tuples in blocks of at most `_SLAB` row entries
(at least one row), writing into three int64 buffers and a bool buffer of
that size which it reuses from block to block.  A scan's memory beyond its
tables is therefore bounded by `_SLAB`, not by the number of tuples.
`witness` evaluates the same rows at one failing tuple.

Scans return the flat index of the first failing tuple in lexicographic
order (first coordinate most significant), or -1 when the law holds.
Cocycle laws compare modulo d.  `_scan(law, jobs)` splits the range of the
first coordinate over `jobs` threads, each with its own buffers; the exchange
and compatibility scans take `jobs` from their callers.

A law reads its tail z only through columns: the column of opz, of each act
and of cz at z.  Tails whose columns are all equal form a class, and the law
holds or fails at (lead, z) alike for every z of a class.  Self-distributivity
says each translation x -> W(x, z) is an endomorphism, and there are often
far fewer translations than tails: a heap x y0^-1 y1 has N^2 tails but N
translations, one for each z0^-1 z1.  So `_scan` groups the tails into
classes, orders the classes by their first (least) tail, and scans the law
restricted to one tail per class.  Its first hit (lead, k) maps back to
(lead, first tail of class k): at the least failing lead tuple the failing
tails are whole classes, the least of them is the first tail of the first
failing class, and so the result is still the first failing tuple.  `witness`
and the batched laws of `holds` read every tail.  A scan's step charge
counts the classes, so a heap is charged for N tails, not N^2.

A law may also range over a stack of `batch` candidate tables, one per
row, with the candidate as one more leading coordinate, most significant.
Candidate c's tables are rows c*N.. of the stacked row views, so `_sides`
raises each coordinate, each looked-up row and the start of each
right-hand index by c*N: the same gathers then read each candidate's own
rows.  `holds` gives one verdict per candidate.  A law of one table skips
the raising, so its blocks do the same work as without the batch axis.

The gathers use np.take(mode="clip"), which is exact only for in-range
indices, so each table is checked to hold entries in 0..N-1, and each
cochain entries in 0..d-1, once per law.

`digits` is the package's one base-N decoder: every table, cochain and
boundary indexes an argument tuple by its base-N digits, first argument most
significant, and every module that needs the digits of a flat index or an
array of them reads them from it: the scan rows and witnesses, the tuples of
`optable.index_to_tuple`, boundary columns, braid tuples, extension fibers,
candidate fiber maps, the enumerated candidate tables and affine carrier
digits, and the tensor factors that linear maps permute.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from . import limits
from .limits import InputError

# Numba is no longer a backend.  The flag stays because the benchmark's
# machine block reads it on every run.
USING_NUMBA = False

# most entries of one block of (lhs, rhs) rows; each worker holds three int64
# buffers and one bool buffer of this many entries.  Buffers that stay in
# cache scan the order-24..40 heaps fastest: on a 2-core Xeon with 4 MiB of
# L2, 2^16 entries beat 2^21 by 1.4-1.8x.
_SLAB = 1 << 16


class Law(NamedTuple):
    """x acted on by y, then by z  ==  x acted on by z, then by y acted on by z.

    A table law (d == 0) compares
        opz(opy(x, y), z)  with  opy(opz(x, z), acts_1(y_1, z), ...)
    exactly.  A cocycle law (d > 0) compares
        cy(x, y) + cz(opy(x, y), z)  with  cz(x, z) + cy(opz(x, z), acts_1(y_1, z), ...)
    modulo d.  Tuples are (x.., y_1, ..., y_{m-1}, z) with z an (n-1)-tail,
    where m is the arity of opy and n that of opz and the acts.  With two x
    coordinates, `pick` names the one read by (opy and cz, opz, cy).
    A law over a stack of `batch` candidate tables is read by `holds`; the
    scans and `witness` read laws of one table.
    """
    N: int
    opy: np.ndarray
    opz: np.ndarray
    acts: tuple
    cy: np.ndarray | None = None
    cz: np.ndarray | None = None
    d: int = 0
    pick: tuple = (0, 0, 0)
    batch: int = 1

    @property
    def lead(self) -> int:
        """Number of leading coordinates: the x coordinates, then y_1..y_{m-1}."""
        return max(self.pick) + 1 + len(self.acts)

    @property
    def tail(self) -> int:
        """Number of z-tuples, N^(n-1)."""
        return len(self.opz) // (self.N * self.batch)

    @property
    def heads(self) -> int:
        """Number of y-tuples, N^(m-1)."""
        return self.N ** len(self.acts)


def _entries(values, length, hi, what):
    """values as a contiguous int64 array of `length` entries in 0..hi-1."""
    arr = np.ascontiguousarray(values, dtype=np.int64).ravel()
    if arr.shape[0] != length:
        raise InputError(f"{what} has {arr.shape[0]} entries, expected {length}")
    if arr.size and (arr.min() < 0 or arr.max() >= hi):
        raise InputError(f"{what} has an entry outside 0..{hi - 1}")
    return arr


# Steps charged for a scan, against the 0.12 us a step takes in the rack
# search, measured on a 2-core Xeon with numpy 2.4.  `_sides` spends five
# numpy calls on each leading coordinate of a block, 6.4-9.0 us; the blocks
# spend 7-10 ns on each tuple (the heap of C80, 41M tuples in 0.27-0.37 s;
# of S5, 207M in 2.05 s); `np.unique` groups the tails at 150-540 ns a row.
_LEAD_STEPS = 75
_TUPLES_PER_STEP = 12
_ROW_STEPS = 4


def _charge_blocks(N, lead, tail, what, batch=1):
    """Charge a scan's work before it starts: `lead` digit and gather calls
    for each block of leading tuples, and the tuples the blocks evaluate.
    `tail` counts the tails scanned for each leading tuple."""
    leads = batch * limits.power(N, lead)
    blocks = -(-leads // max(1, _SLAB // max(1, tail)))
    limits.charge_steps(_LEAD_STEPS * lead * blocks + leads * tail // _TUPLES_PER_STEP,
                        f"a scan of {what}")


def exchange_law(tm, tn, N, m, n, batch=1):
    """tn(tm(x, y), z) == tm(tn(x, z), tn(y_1, z), ..., tn(y_{m-1}, z)).

    With `batch` > 1, tm and tn are stacks of that many tables, and
    candidate c pairs tm[c] with tn[c].
    """
    # before the tails are grouped, the least any scan of the law can cost:
    # a huge arity is refused here, before its m-1 acts are listed
    _charge_blocks(N, m, 1, f"arities {m} and {n} on {N} points", batch)
    tm = _entries(tm, batch * N ** m, N, "outer table")
    tn = _entries(tn, batch * N ** n, N, "acting table")
    return Law(N, tm, tn, (tn,) * (m - 1), batch=batch)


def compat_law(A, B, N, which):
    """T(T(x, y0, y1), z) == T(T(x, z), A(y0, z), B(y1, z)), z = (z0, z1).

    T is A for identity 1 and B for identity 2.
    """
    A = _entries(A, N ** 3, N, "first table")
    B = _entries(B, N ** 3, N, "second table")
    T = A if which == 1 else B
    return Law(N, T, T, (A, B))


def cocycle_law(W, phi, N, k, d):
    """phi(x, y) + phi(W(x, y), z) == phi(x, z) + phi(W(x, z), W(y_1, z), ...) mod d."""
    _charge_blocks(N, k, 1, f"arity {k} on {N} points")
    W = _entries(W, N ** k, N, "operation table")
    phi = _entries(phi, N ** k, d, "cochain")
    return Law(N, W, W, (W,) * (k - 1), phi, phi, d)


def mutual_cocycle_law(t0, t1, p0, p1, N, d, which):
    """Condition 1: p0(x, y) + p1(t0(x, y), z) == p1(x, z) + p0(t1(x, z), t1(y, z)) mod d.

    Condition 2 swaps the roles of (t0, p0) and (t1, p1).
    """
    t0, t1 = (_entries(t, N * N, N, "operation table") for t in (t0, t1))
    p0, p1 = (_entries(p, N * N, d, "cochain") for p in (p0, p1))
    if which == 2:
        t0, t1, p0, p1 = t1, t0, p1, p0
    return Law(N, t0, t1, (t1,), p0, p1, d)


def compat_cocycle_law(A, B, s0, s1, N, d, which, literal=False):
    """Paired conditions on tuples (x0, x1, y0, y1, z0, z1), modulo d, y = (y0, y1):

    1: s0(x0, y) + s1(B(x1, y), z) == s1(x1, z) + s0(A(x0, z), A(y0, z), B(y1, z))
    2: s1(x1, y) + s0(A(x0, y), z) == s0(x0, z) + s1(B(x1, z), A(y0, z), B(y1, z))

    `literal` reads B(x0, z) in place of B(x1, z) in condition 2.
    """
    A, B = (_entries(t, N ** 3, N, "operation table") for t in (A, B))
    s0, s1 = (_entries(s, N ** 3, d, "cochain") for s in (s0, s1))
    if which == 1:
        return Law(N, B, A, (A, B), s0, s1, d, pick=(1, 0, 0))
    return Law(N, A, B, (A, B), s1, s0, d, pick=(0, 0 if literal else 1, 1))


def digits(r, N, count):
    """Base-N digits of the flat indices r, most significant first."""
    return [r // N ** p % N for p in range(count - 1, -1, -1)]


def _sides(law, r, L, R, T):
    """(lhs, rhs) rows over every z for the leading tuples with flat indices r.

    L, R and T are (len(r), tail) buffers; lhs is L and rhs is T.
    """
    N, rows, heads = law.N, law.tail, law.heads
    lead = digits(r, N, law.lead)
    batched = law.batch > 1
    if batched:
        # each coordinate as a row of its candidate's block of N rows
        base = r // N ** law.lead * N
        lead = [digit + base for digit in lead]
    y = r % heads
    xy, xz, xc = (lead[i] for i in law.pick)
    # what each path reads last: the cochains of a cocycle law, else the tables
    vz, vy = (law.cz, law.cy) if law.d else (law.opz, law.opy)
    # x acted on by y, then by z
    xyz = law.opy[xy * heads + y]
    if batched:
        xyz += base
    np.take(vz.reshape(-1, rows), xyz, axis=0, out=L, mode="clip")
    # x acted on by z, then by each y_j acted on by z; a raised start
    # carries c*N^m through the base-N digits
    np.take(law.opz.reshape(-1, rows), xz, axis=0, out=R, mode="clip")
    if batched:
        R += base[:, None]
    for act, yj in zip(law.acts, lead[law.lead - len(law.acts):]):
        R *= N
        R += np.take(act.reshape(-1, rows), yj, axis=0, out=T, mode="clip")
    np.take(vy, R, out=T, mode="clip")
    if law.d:
        L += law.cy[xc * heads + y][:, None]
        T += np.take(law.cz.reshape(-1, rows), xy, axis=0, out=R, mode="clip")
    return L, T


def _blocks(law, lo, hi):
    """(start, hit) for each block of the leading tuples lo..hi-1, where
    hit[i, z] marks a failure of the law at tuple start + i and tail z."""
    rows = law.tail
    block = max(1, min(hi - lo, _SLAB // rows))
    L, R, T = (np.empty((block, rows), np.int64) for _ in range(3))
    bad = np.empty((block, rows), bool)
    for start in range(lo, hi, block):
        b = min(block, hi - start)
        lhs, rhs = _sides(law, np.arange(start, start + b), L[:b], R[:b], T[:b])
        if law.d:
            lhs -= rhs
            lhs %= law.d
            rhs = 0
        yield start, np.not_equal(lhs, rhs, out=bad[:b])


def _scan_range(law, lo, hi):
    """First failing flat index among leading tuples lo..hi-1, or -1."""
    for start, hit in _blocks(law, lo, hi):
        i = int(hit.argmax())
        if hit.flat[i]:
            return start * law.tail + i
    return -1


def _tail_classes(law):
    """The law restricted to the first tail of each class of equal tails,
    with those first tails in increasing order; (law, None) when every tail
    is a class of its own.

    Two tails are equal when each array read at the tail (opz, the acts and
    cz) has equal columns there.  The key holds those columns, one row per
    tail, in the narrowest unsigned dtype that holds their entries, and its
    rows are grouped as opaque byte strings, which is exact.
    """
    rows = law.tail
    limits.charge_steps(_ROW_STEPS * rows, f"grouping {rows} tails of a scan")
    read = []
    for a in (law.opz, *law.acts, law.cz):
        if a is not None and not any(a is b for b in read):
            read.append(a)
    dtype = np.min_scalar_type(max(law.N, law.d) - 1)
    width = len(read) * law.N
    # the key, and the sort order and first rows that np.unique builds
    limits.charge_bytes(rows * (width * dtype.itemsize + 16), "the tail classes of a scan")
    key = np.empty((rows, width), dtype)
    for i, a in enumerate(read):
        key[:, i * law.N:(i + 1) * law.N] = a.reshape(law.N, rows).T
    _, first = np.unique(key.view(np.dtype((np.void, width * dtype.itemsize))).ravel(),
                         return_index=True)
    if len(first) == rows:
        return law, None
    first.sort()
    cut = {id(a): a.reshape(law.N, rows)[:, first].ravel() for a in read}
    return law._replace(opz=cut[id(law.opz)], acts=tuple(cut[id(a)] for a in law.acts),
                        cz=None if law.cz is None else cut[id(law.cz)]), first


def _scan(law, jobs=1):
    """First failing flat index of the law over all tuples, or -1."""
    tail = law.tail
    law, first = _tail_classes(law)
    N = law.N
    _charge_blocks(N, law.lead, law.tail, f"{law.tail} tail classes on {N} points")
    per_x = N ** (law.lead - 1)
    jobs = min(jobs or 1, N)
    if jobs <= 1:
        hit = _scan_range(law, 0, N * per_x)
    else:
        bounds = [N * i // jobs * per_x for i in range(jobs + 1)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            hits = list(pool.map(lambda i: _scan_range(law, bounds[i], bounds[i + 1]),
                                 range(jobs)))
        hit = min((h for h in hits if h >= 0), default=-1)
    if hit < 0 or first is None:
        return hit
    r, k = divmod(hit, law.tail)
    return r * tail + int(first[k])


def holds(law):
    """Whether the law holds on every tuple, one bool per candidate table."""
    _charge_blocks(law.N, law.lead, law.tail,
                   f"{law.batch} candidate tables on {law.N} points", law.batch)
    ok = np.ones(law.batch, bool)
    span = law.N ** law.lead          # leading tuples of one candidate
    for start, hit in _blocks(law, 0, law.batch * span):
        # a block may start and end inside a candidate
        first, stop = start // span, -(-(start + len(hit)) // span)
        cuts = np.maximum(np.arange(first, stop) * span - start, 0)
        ok[first:stop] &= ~np.logical_or.reduceat(hit.ravel(), cuts * law.tail)
    return ok


def witness(law, flat):
    """(tuple, lhs, rhs) of the law at a flat tuple index; cocycle sides mod d."""
    rows = law.tail
    r, z = divmod(int(flat), rows)
    L, R, T = (np.empty((1, rows), np.int64) for _ in range(3))
    lhs, rhs = _sides(law, np.array([r]), L, R, T)
    lhs, rhs = int(lhs[0, z]), int(rhs[0, z])
    if law.d:
        lhs, rhs = lhs % law.d, rhs % law.d
    count = law.lead
    while law.N ** (count - law.lead) < rows:
        count += 1
    return tuple(digits(int(flat), law.N, count)), lhs, rhs


def exchange_scan(tm, tn, N, m, n, jobs=1):
    """First (x, y.., z..) index violating `exchange_law`, or -1."""
    return _scan(exchange_law(tm, tn, N, m, n), jobs)


def compat_scan(A, B, N, which, jobs=1):
    """First (x, y0, y1, z0, z1) index violating `compat_law` identity 1 or 2, or -1."""
    return _scan(compat_law(A, B, N, which), jobs)


def nary_cocycle_scan(W, phi, N, k, d):
    """First (x, y.., z..) index violating `cocycle_law` modulo d, or -1."""
    return _scan(cocycle_law(W, phi, N, k, d))


def mutual_cocycle_scan(t0, t1, p0, p1, N, d, which):
    """First (x, y, z) index violating `mutual_cocycle_law` condition 1 or 2, or -1."""
    return _scan(mutual_cocycle_law(t0, t1, p0, p1, N, d, which))


def compat_cocycle_scan(A, B, s0, s1, N, d, which, literal=False):
    """First (x0, x1, y0, y1, z0, z1) index violating `compat_cocycle_law`, or -1.

    `literal=True` switches the second condition to the variant that feeds the
    first coordinate into both final terms; the default pairs coordinates the
    way the doubled-cocycle composite requires.
    """
    return _scan(compat_cocycle_law(A, B, s0, s1, N, d, which, literal))


def translation_scan_stack(tables, N, k):
    """`translation_scan` of each table of a stack, one table per row."""
    tables = np.ascontiguousarray(tables, dtype=np.int64)
    cols = np.sort(tables.reshape(-1, N, N ** (k - 1)), axis=1)
    bad = ~(cols == np.arange(N)[:, None]).all(axis=1)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def translation_scan(table, N, k):
    """First tail-tuple index whose translation x -> W(x, tail) is not a
    bijection, or -1."""
    return int(translation_scan_stack(table, N, k)[0])
