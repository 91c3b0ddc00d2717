"""One numpy scan engine for the two-sided laws of finite operation tables.

Every law checked here has one shape: x acted on by y, then by z, against x
acted on by z, then by y acted on by z.  A `Law` states one instance of it:
n-ary self-distributivity and the exchange law, ternary compatibility, the
degree-2 cocycle condition, and the paired cocycle conditions.

A law is evaluated in blocks of x-prefixes.  For a prefix x, Q[k] is the row
of the array the right side reads last (opy, or cy for a cocycle law) at
opz(x, z_k), one row gather of its (N, N^(m-1)) view.  The right side at
(x, y, z_k) is Q[k][h] with h = sum_j act_j(y_j, z_k) N^(m-1-j), so one int64
index table IDX[y, k] = k N^(m-1) + h, built once per scan, reads every right
side of every prefix out of Q in one gather.  The left side is one row gather
of opz (or cz) at opy's values.  A tuple costs four passes: the gather of Q,
the read through IDX, the left gather and the comparison.  Where the table
over all y would pass `_SLAB` entries, it covers the last t y-coordinates,
the most that fit, and the leading y-digits join x in choosing the rows of
Q; an x-prefix with those digits is a unit.  `_blocks` walks the units in
blocks of at most `_SLAB` entries (at least one unit), into three value
buffers sized to the block and reused from block to block.  A scan's
memory beyond its tables is therefore three value buffers and one int64
index table of at most `_SLAB` entries each, and the int64 rows and digits
a block gathers through, whatever the number of tuples;
only a law with more than `_SLAB` tail classes exceeds that, by holding one
unit's row of classes.
`witness` evaluates the block of one failing tuple.

Values are held in the narrowest unsigned dtype that holds what a block
forms: table entries 0..N-1, one byte up to N = 256, and for a cocycle law
sums of two residues, 0..2d-2, in at least 1 + log2(d) bits.  Each side of
a cocycle law is reduced into 0..d-1 without overflow: s = a + b fits, and
s - d wraps past s exactly when s < d, so min(s, s - d) is s mod d.  The
comparison is exact for every modulus up to 2^63 - 1.  `add_mod` is the same
sum for the cochain builders of `cocycles`, formed in uint64.

Scans return the flat index of the first failing tuple in lexicographic
order (first coordinate most significant), or -1 when the law holds.
Cocycle laws compare modulo d.  A scan runs on the calling thread, one
block after another, and stops at the first block holding a failure.
Splitting the first coordinate over threads was never faster on 2 cores
(the core quandle of C300 took 26 ms on two threads against 20 ms on one),
and the thread pool's import loads `logging` and `queue` at start-up.

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

A law that holds on the generators of a structure holds on all of it, and
`_scan` checks three laws that way.  An exchange law of one acting table
(d = 0, every act opz) says that each class's translation T_k = opz(., z_k)
is an endomorphism of opy; self-distributivity is the one where opy is
opz.  The cocycle law of one table W says the same of the maps
T_k(x, a) = (W(x, z_k), a + phi(x, z_k)) of the extension X x Z/d, once W
is self-distributive at z_k: the extension's law at z_k is W's law there
and the cocycle law there.  Two moves then carry the law from classes
where it holds to others:

- composition: End is closed under it, so the law holds at a class whose
  map is T_a o T_s, found exactly among the class rows;
- the tail move, for a self-distributive W: at a generator s whose
  translation is a bijection, W's law gives T_s T_a T_s^-1 as the map of
  the tail of class a acted on digit by digit by T_s, and a conjugate of
  an endomorphism by an automorphism is one, so the law holds at that
  tail's class, read from the class of every tail that `_tail_classes`
  keeps, with no row looked up.

A cocycle class's row is its translation and its cochain column less its
entry at x = 0, mod d.  Adding a constant to phi(., z) leaves the law at z
as it was (phi is read at z once on each side), and the constant is a
shift (x, a) -> (x, a + c), an automorphism of the extension.  A
coboundary f(W(x, z)) - f(x) plus a constant c puts c in every column and
a composite carries it twice, so with raw columns no composite would be a
class row and no class the identity.

`_scan` therefore scans such a law first on a generating set of its
classes (`_generating_classes`): an identity class (the identity
translation and a constant cochain column) counts as covered, each
generator is the first class not yet covered, and the classes its moves
reach from covered ones are covered.  Composition runs from an identity
class, as bijections closed under composition form a group, which holds
it; the tail move covers the core and Alexander quandles, whose
translations never compose into a class row.  An exchange law of two
tables composes alone, and stops at the first generator that does not
double the classes covered, as a group's would.  The closure runs only
where the scan spans more than one block (N^lead x classes > `_SLAB`) and
every class translation is a bijection; it stops once every class is
covered, or at the most generators whose charge is half the full scan's
(the tail move may need more than log2 K + 1: the core quandle of D60 took
7 of its 60 classes).  The law is scanned on the generators and the
classes they leave, and a cocycle law's W on its own self-distributivity
there too, since both moves need it; where both hold, the law holds.
Where either fails, every class is scanned, so the verdict, the first
failing tuple and its witness are the full scan's; a failure on the cut
at lead r bounds the full scan to the leads up to r.  The charge has two
stages, each made just before it runs: the closure and the scan of the
classes it leaves, then, only where the law fails there, the scan of every
class.  One greedy closure, `_closure`, chooses these generators and those
on which `optable.group_from_cayley` runs Light's associativity test.

A law may also range over a stack of `batch` candidate tables, one per
row, with the candidate as one more leading coordinate, most significant.
Candidate c's tables are rows c*N.. of the stacked row views, so the blocks
raise each looked-up row by c*N, and the index table adds each candidate's
own head sums, broadcast from its act rows.  A block holds whole candidates
when one candidate fits in `_SLAB` entries, and otherwise lies inside one
candidate; a block of other candidates than the last builds its own index
table.  `holds` gives one verdict per candidate.

The gathers use np.take(mode="clip"), which is exact only for in-range
indices, so each table is checked to hold entries in 0..N-1, and each
cochain entries in 0..d-1, once per law.

`translation_scan`, the rack verdict, and `_generating_classes` test
bijections one way, in `_bijections`: one scatter marks Z[x, t] + t N as
seen for every entry, and tail t's translation is a bijection exactly when
its row of marks is all seen.  Given the first tails of the classes that
self-distributivity's scan grouped, the rack verdict reads one column a
class.

`keyed_sum` joins `add_mod` and `digits` as a primitive shared beyond the
scans.  It is the package's one sum of keyed entries: it sums the values at
equal int64 keys, counting into an array where the keys are dense and
sorting elsewhere, and returns the distinct keys in order with their
nonzero sums.  Boundary assembly in `homology` sums each entry's terms
with it, and `linear.LinMap` the products of a composition or tensor
product.

`digits` is the package's one base-N decoder: every table, cochain and
boundary indexes an argument tuple by its base-N digits, first argument most
significant, and every module that needs the digits of a flat index or an
array of them reads them from it: the scan rows and witnesses, the tuples of
`optable.index_to_tuple`, boundary columns, braid tuples, extension fibers,
and the tensor factors that linear maps permute.  Enumeration decodes no
index: it writes every tuple in lexicographic order straight into one
array, a digit column at a time, by broadcasting.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import limits
from .limits import InputError

# Numba is no longer a backend.  The flag stays because the benchmark's
# machine block reads it on every run.
USING_NUMBA = False

# most entries of one block of (lhs, rhs) rows, and of the index table; a
# scan holds three value buffers and the comparison of at most this many.
# Buffers that stay in cache scan the order-24..40 heaps fastest: on a
# 2-core Xeon with 4 MiB of L2, 2^16 entries beat 2^21 by 1.4-1.8x.
_SLAB = 1 << 16
# bytes `holds` charges for each entry of its largest block: the value
# buffers, the int64 index table, rows and digits, and the comparison.
# Batched binary, ternary and unary laws held 15-36 bytes an entry of
# blocks of at least 512 entries, plus about 5 KB of Python objects.
_BLOCK_BYTES = 48


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


# Steps charged for a scan, against 0.12 us a step, about a second for all
# of STEPS, on a 2-core Xeon with numpy 2.4.  A block of a binary or
# ternary law makes 10-15 numpy calls, 24-35 us, near the 9 us charged for
# each leading coordinate.  The blocks spend 1.8-2.0 ns on each tuple (the
# heap of C80, 41M tuples in 0.083 s; of S5, 207M in 0.39 s), a fifth of the
# 10 ns charged, which was their cost in int64 and stays so that no refusal
# of a full scan moves.  `np.unique` groups the tails at 150-540 ns a row.
# A law scanned on its generating classes is charged in two stages, each
# just before it runs: the closure and the scan of the classes it leaves,
# then, only where the law fails there, the scan of every class.  So the
# heap of S5, refused for 207M tuples on its 120 classes, is admitted on
# the 4 its closure leaves, and a failing law meets the full charge.
_LEAD_STEPS = 75
_TUPLES_PER_STEP = 12
_ROW_STEPS = 4


def _scan_steps(N, lead, tail, batch=1):
    """The steps of a scan: `lead` digit and gather calls for each block of
    leading tuples, and the tuples the blocks evaluate.  `tail` counts the
    tails scanned for each leading tuple."""
    leads = batch * limits.power(N, lead)
    blocks = -(-leads // max(1, _SLAB // max(1, tail)))
    return _LEAD_STEPS * lead * blocks + leads * tail // _TUPLES_PER_STEP


def _charge_blocks(N, lead, tail, what, batch=1):
    """Charge a scan's work before it starts."""
    limits.charge_steps(_scan_steps(N, lead, tail, batch), f"a scan of {what}")


def exchange_law(tm, tn, N, m, n, batch=1):
    """tn(tm(x, y), z) == tm(tn(x, z), tn(y_1, z), ..., tn(y_{m-1}, z)).

    With n = 1, tn is a map f of N entries and there is no z: the law
    f(tm(x, y..)) == tm(f(x), f(y_1), ..) says that f is an endomorphism
    of tm.  With `batch` > 1, tm and tn are stacks of that many tables, and
    candidate c pairs tm[c] with tn[c].
    """
    # before the tails are grouped, the least any scan of the law can cost:
    # a huge arity is refused here, before its m-1 acts are listed
    _charge_blocks(N, m, 1, f"arities {m} and {n} on {N} points", batch)
    # a table against itself, as in every self-distributivity verdict, is
    # validated once and stays one array
    same = tm is tn and m == n
    tm = _entries(tm, batch * N ** m, N, "outer table")
    tn = tm if same else _entries(tn, batch * N ** n, N, "acting table")
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


def compat_cocycle_law(A, B, s0, s1, N, d, which):
    """Paired conditions on tuples (x0, x1, y0, y1, z0, z1), modulo d, y = (y0, y1):

    1: s0(x0, y) + s1(B(x1, y), z) == s1(x1, z) + s0(A(x0, z), A(y0, z), B(y1, z))
    2: s1(x1, y) + s0(A(x0, y), z) == s0(x0, z) + s1(B(x1, z), A(y0, z), B(y1, z))

    Each condition pairs each x coordinate with its own table and cochain,
    the pairing under which the binary cocycle of the pair on the square
    carrier is a cocycle.
    """
    A, B = (_entries(t, N ** 3, N, "operation table") for t in (A, B))
    s0, s1 = (_entries(s, N ** 3, d, "cochain") for s in (s0, s1))
    if which == 1:
        return Law(N, B, A, (A, B), s0, s1, d, pick=(1, 0, 0))
    return Law(N, A, B, (A, B), s1, s0, d, pick=(0, 1, 1))


def digits(r, N, count):
    """Base-N digits of the flat indices r, most significant first."""
    return [r // N ** p % N for p in range(count - 1, -1, -1)]


def _narrow(law):
    """The narrowest unsigned dtype of a block's values.  A table law forms
    table entries, 0..N-1.  A cocycle law forms sums of two residues,
    0..2d-2, in a dtype of at least 1 + log2(d) bits, so that s - d wraps
    above s exactly when s < d."""
    return np.min_scalar_type(2 * law.d - 1 if law.d else law.N - 1)


def _reduce(s, d, tmp):
    """s mod d in place, for s in 0..2d-2 in an unsigned dtype that holds
    2d - 1, such as `_narrow`'s; d is a modulus or moduli that broadcast
    against s."""
    np.subtract(s, np.asarray(d, s.dtype), out=tmp)
    np.minimum(s, tmp, out=s)


def add_mod(a, b, d):
    """(a + b) mod d as int64, exactly, for int64 residues a and b in
    0..d-1 and moduli d up to 2^63 - 1 that broadcast against the last axis
    of a + b: the one sum of residues of the cochain builders.  The sum is
    formed in uint64, where two residues cannot wrap, and `_reduce` brings
    it into 0..d-1 a block of at most `_SLAB` entries at a time, so that
    the scratch it holds beside the sum stays one block."""
    s = np.add(np.asarray(a, np.int64).view(np.uint64),
               np.asarray(b, np.int64).view(np.uint64))
    rows = s.reshape(-1, max(1, s.shape[-1]) if s.ndim else 1)
    step = max(1, _SLAB // rows.shape[1])
    tmp = np.empty((min(step, len(rows)), rows.shape[1]), np.uint64)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        _reduce(block, d, tmp[:len(block)])
    return s.view(np.int64)


def keyed_sum(key, vals):
    """(keys, sums): the distinct int64 keys in increasing order and the sum
    of the values at each, zero sums dropped.  The values are int64 or
    Python objects such as Fractions.  Keys that span at most twice their
    count are counted into an array from the least key, which is then no
    larger than a sort's arrays; others are sorted and each run of equal
    keys summed."""
    key, vals = np.asarray(key, np.int64), np.asarray(vals)
    if key.size and not (key[1:] > key[:-1]).all():
        low = int(key.min())
        span = int(key.max()) - low + 1
        if span <= 2 * key.size:
            acc = np.zeros(span, vals.dtype)
            np.add.at(acc, key - low, vals)
            key = np.flatnonzero(acc)
            return key + low, acc[key]
        order = np.argsort(key)
        key, vals = key[order], vals[order]
        starts = np.flatnonzero(key[1:] != key[:-1]) + 1
        if starts.size < key.size - 1:
            starts = np.concatenate(([0], starts))
            key, vals = key[starts], np.add.reduceat(vals, starts)
    keep = vals != 0
    if not keep.all():
        key, vals = key[keep], vals[keep]
    return key, vals


def _head_sums(law, c0, c1, t):
    """(c1 - c0, N^t, K) sums of act_j(y_j, z_k) N^(t-1-j) over the last t
    y-coordinates, one table per candidate c0..c1-1, built by broadcasting
    each candidate's act rows."""
    N, K = law.N, law.tail
    acts = [a.reshape(-1, N, K)[c0:c1] for a in law.acts[len(law.acts) - t:]]
    if not acts:
        return np.zeros((c1 - c0, 1, K), np.int64)
    S = acts[0]
    for rows in acts[1:]:
        S = (S[:, :, None, :] * N + rows[:, None]).reshape(c1 - c0, -1, K)
    return S


def _blocks(law, lo, hi):
    """(start, lhs, rhs) for each block of the leading tuples lo..hi-1,
    widened to whole units, where lhs[i, k] and rhs[i, k] are the sides of
    the law at leading tuple start + i and tail k; cocycle sides mod d.

    A unit is one x-prefix and the y-digits above the last t, where t is the
    most y-digits whose N^t x K index table fits in `_SLAB`.  A block of a
    batched law holds whole candidates when one candidate's units fit in
    `_SLAB`, and otherwise lies inside one candidate.
    """
    N, K, acts, batched = law.N, law.tail, law.acts, law.batch > 1
    nx = max(law.pick) + 1
    t = len(acts)
    while t and N ** t * K > _SLAB:
        t -= 1
    T, head = N ** t, len(acts) - t
    HH = N ** head
    U = N ** nx * HH                   # units of one candidate
    E = T * K                          # entries of one unit
    g = max(1, _SLAB // E)             # units of one block
    whole = batched and U <= g
    if whole:
        g -= g % U
    # what each side reads last, in the narrow dtype: the cochains of a
    # cocycle law, else the tables, cast once when both sides read one array.
    # Z has rows c*N + v and Y rows (c*N + v)*HH + yh, as have the int64
    # reads opz and opy.
    dtype = _narrow(law)
    vz, vy = (law.cz, law.cy) if law.d else (law.opz, law.opy)
    Z = vz.astype(dtype)
    Y = Z if vy is vz else vy.astype(dtype)
    Z, Y = Z.reshape(-1, K), Y.reshape(-1, T)
    opz, opy = law.opz.reshape(-1, K), law.opy.reshape(-1, T)
    heads = [a.reshape(-1, K) for a in acts[:head]]
    ulo, uhi = lo // T, -(-hi // T)
    size = min(g, uhi - ulo) * E
    Qb, Lb, Rb = np.empty((3, size), dtype)
    key = None
    u0 = ulo
    while u0 < uhi:
        u1 = min(uhi, u0 + g) if whole else min(uhi, u0 + g, (u0 // U + 1) * U)
        n = u1 - u0
        c0, c1 = u0 // U, -(-u1 // U)
        if key != (c0, c1):
            # flat index into Q of the right side at (unit, y tail, class):
            # (unit*K + k)*T plus the candidate's head sums, reused by every
            # later block of the same candidates, none of which is longer
            idx = ((_head_sums(law, c0, c1, t) + np.arange(K) * T)[:, None]
                   + (np.arange(n) * E).reshape(c1 - c0, -1, 1, 1)).reshape(n, T, K)
            key = (c0, c1)
        # each unit's x-digits and head y-digits, as rows of its candidate
        r = np.arange(u0, u1)
        if batched:
            r, base = r % U, r // U * N
        dig = digits(r, N, nx + head) if nx + head > 1 else [r]
        if batched:
            dig = [a + base for a in dig]
        xy, xz, xc = (dig[i] for i in law.pick)
        # row u, k of Q is the row of Y at opz(x, z_k) and the head acts at z_k
        rows = opz.take(xz, axis=0)
        if batched:
            rows += base[:, None]
        for act, y in zip(heads, dig[nx:]):
            rows *= N
            rows += act.take(y, axis=0)
        Q = Y.take(rows, axis=0, out=Qb[:n * E].reshape(n, K, T), mode="clip")
        R = Rb[:n * E].reshape(n, T, K)
        if law.d:
            Q += Z.take(xy, axis=0)[:, :, None]
            _reduce(Q, law.d, R.reshape(n, K, T))
        Q.reshape(-1).take(idx[:n], out=R, mode="clip")
        # the left side: the rows of Z at opy's values
        if head:
            yh = r % HH
            xy, xc = xy * HH + yh, xc * HH + yh
        v = opy.take(xy, axis=0)
        if batched:
            v += base[:, None]
        L = Z.take(v, axis=0, out=Lb[:n * E].reshape(n, T, K), mode="clip")
        if law.d:
            L += Y.take(xc, axis=0)[:, :, None]
            _reduce(L, law.d, Qb[:n * E].reshape(n, T, K))
        yield u0 * T, L.reshape(-1, K), R.reshape(-1, K)
        u0 = u1


def _scan_range(law, leads=None):
    """First failing flat index of the law over its tuples, or over those
    of the first `leads` leading tuples, or -1."""
    for start, lhs, rhs in _blocks(law, 0, law.N ** law.lead if leads is None else leads):
        hit = lhs != rhs
        i = int(hit.argmax())
        if hit.flat[i]:
            return start * law.tail + i
    return -1


def _tail_classes(law, inverse=True):
    """(cut, first, of): the law restricted to the first tail of each class
    of equal tails, those first tails in increasing order, and the class of
    every tail, or None unless `inverse`; (law, None, None) when every tail
    is a class of its own.

    Two tails are equal when each array read at the tail (opz, the acts and
    cz) has equal columns there.  The key holds those columns, one row per
    tail, in the narrowest unsigned dtype that holds their entries, and its
    rows are grouped as opaque byte strings, which is exact.
    """
    rows, N = law.tail, law.N
    limits.charge_steps(_ROW_STEPS * rows, f"grouping {rows} tails of a scan")
    read = []
    for a in (law.opz, *law.acts, law.cz):
        if a is not None and not any(a is b for b in read):
            read.append(a)
    dtype = np.min_scalar_type(max(N, law.d) - 1)
    width = len(read) * N
    # the key, and the sort order, first rows, inverse and class of each
    # tail that np.unique and the ranking build
    limits.charge_bytes(rows * (width * dtype.itemsize + 32), "the tail classes of a scan")
    key = np.empty((rows, width), dtype)
    for i, a in enumerate(read):
        key[:, i * N:(i + 1) * N] = a.reshape(N, rows).T
    unique = np.unique(key.view(np.dtype((np.void, width * dtype.itemsize))).ravel(),
                       return_index=True, return_inverse=inverse)
    first = unique[1]
    if len(first) == rows:
        return law, None, None
    # classes numbered in the order of their first tails
    order = np.argsort(first)
    first, of = first[order], None
    if inverse:
        rank = np.empty(len(first), np.int64)
        rank[order] = np.arange(len(first))
        of = rank[unique[2]]
    return _cut(law, first), first, of


def _cut(law, tails):
    """The law restricted to the given tails, in their order; arrays that
    are one array in the law stay one array."""
    cut = {}
    for a in (law.opz, *law.acts, law.cz):
        if a is not None and id(a) not in cut:
            cut[id(a)] = a.reshape(law.N, law.tail)[:, tails].ravel()
    return law._replace(opz=cut[id(law.opz)], acts=tuple(cut[id(a)] for a in law.acts),
                        cz=None if law.cz is None else cut[id(law.cz)])


def _closure(n, start, *moves):
    """Greedy generators of the points 0..n-1.

    Each move maps a generator s to a list whose entry k is the point that
    s carries point k to, or -1 for none: k o s for group validation.  A
    point is covered once it is `start` (a left identity, or None), a
    generator, or the image of a covered point under a move of a generator
    taken so far, and each generator is the first point not yet covered.
    Yields, for each generator s, (s, before, covered): the covered points
    in the order covered, the first `before` of them covered before s.
    """
    # seen[-1], read for a move to no point, stays True
    seen = [False] * n + [True]
    covered, tos = [], []           # each generator's moves
    if start is not None:
        seen[start] = True
        covered.append(start)
    for s in range(n):
        if seen[s]:
            continue
        new = [move(s) for move in moves]
        tos += new
        before = len(covered)
        seen[s] = True
        covered.append(s)
        # each point covered before s moved by s, then each point covered
        # since by every generator; the list grows as it is read
        for i, a in enumerate(covered):
            for to in new if i < before else tos:
                k = to[a]
                if not seen[k]:
                    seen[k] = True
                    covered.append(k)
        yield s, before, covered


def _bijections(Z):
    """Whether each column of the N x K table Z, entries in 0..N-1, is a
    bijection of 0..N-1: column k marks Z[x, k] + k N as seen, and is one
    exactly when all N of its marks are distinct."""
    N, K = Z.shape
    seen = np.zeros(K * N, bool)
    seen[(Z + np.arange(0, K * N, N)).ravel()] = True
    return seen.reshape(K, N).all(axis=1)


def _less_first(cols, d):
    """Each column of residues mod d less its entry in row 0, mod d:
    c + d - c_0 lies in 1..2d-1, which `_reduce` brings into 0..d-1 in the
    narrowest dtype that holds 2d - 1."""
    out = cols.astype(np.min_scalar_type(2 * d - 1))
    out += np.asarray(d, out.dtype) - out[0]
    _reduce(out, d, np.empty_like(out))
    return out


def _composing(law, Z):
    """The composition move: s -> the class of T_k o T_s for each class k,
    or -1 for none, found among the class rows by their bytes.  Row k is
    class k's translation, column k of Z, then for a cocycle law its
    cochain column less its entry at 0, mod d."""
    N, K, d = law.N, law.tail, law.d
    dtype = np.min_scalar_type(max(N, d) - 1)
    width = 2 * N if d else N
    # the class rows as columns, so that a composite gathers whole rows
    Q = np.empty((width, K), dtype)
    Q[:N] = Z
    if d:
        Q[N:] = _less_first(law.cz.reshape(N, K), d)
    void = np.dtype((np.void, width * dtype.itemsize))
    P = np.ascontiguousarray(Q.T)
    order = np.argsort(P.view(void).ravel())
    S = P[order]
    keys = S.view(void).ravel()

    def compose(s):
        # x -> R_k(R_s x), and for a cocycle law the cochain part
        # C[x, s] + C[R_s x, k] less its entry at x = 0
        R = Z[:, s]
        got = np.empty((width, K), dtype)
        Q[:N].take(R, axis=0, out=got[:N])
        if d:
            part = _less_first(Q[N:].take(R, axis=0), d)
            part += Q[N:, s, None]
            _reduce(part, d, np.empty_like(part))
            got[N:] = part
        got = np.ascontiguousarray(got.T)
        at = np.minimum(np.searchsorted(keys, got.view(void).ravel()), K - 1)
        return np.where((S[at] == got).all(axis=1), order[at], -1).tolist()
    return compose


def _acting(law, Z, first, of):
    """The tail move: s -> the class of each class's first tail acted on
    digit by digit by T_s, whose translation is T_s T_k T_s^-1, read from
    `of`, the class of every tail."""
    N, K = law.N, law.tail
    lead = digits(np.arange(K) if first is None else first, N, len(law.acts))

    def act(s):
        R, t = Z[:, s], 0
        for dig in lead:
            t = t * N + R[dig]
        return (t if of is None else of[t]).tolist()
    return act


def _generating_classes(law, first, of, need, one):
    """The classes, in increasing order, that the law is scanned on first:
    its generators and the classes they leave uncovered; None where the
    law takes the full scan at once.

    `law` holds one tail per class, `first` and `of` are `_tail_classes`'
    first tails and class of each tail (None where each tail is a class),
    `need` is the full scan's steps, and `one` says that the law before the
    cut read one table everywhere and one cochain: self-distributivity or
    the cocycle law over it.  The closure runs on those and on exchange
    laws of one acting table, where the law spans more than one block and
    every class translation is a bijection.  Composition runs from an
    identity class, as bijections closed under composition form a group,
    which holds the identity; the tail move needs self-distributivity at
    the generator, so an exchange law of two tables composes alone.  The
    generators stop at the first that leaves no class uncovered, or at
    `most`, the most whose closure costs at most half the full scan and
    fits in STEPS.  Each is charged for its K composed rows, three passes
    over their entries at the tuple rate, and three rows at `np.unique`'s
    cost, for the lookup and each move's list.
    """
    N, K = law.N, law.tail
    if (law.batch > 1 or law.pick != (0, 0, 0) or any(a is not law.opz for a in law.acts)
            or (law.d and not one) or N ** law.lead * K <= _SLAB):
        return None
    width = 2 * N if law.d else N
    per = K * (3 * width // _TUPLES_PER_STEP + 3 * _ROW_STEPS)
    most = min(K, min(need // 2, limits.STEPS) // per)
    if not most:
        return None
    what = f"the generating classes of {K} tail classes"
    limits.charge_steps(most * per, what)
    itemsize = np.min_scalar_type(max(N, law.d) - 1).itemsize
    # for each entry of the class rows: the bijection test's int64 marks,
    # and the rows, their columns, their sorted copy, and a composite, its
    # transpose and the rows it is compared with, in the key dtype; and each
    # move of each generator as a list.  tracemalloc peaks of 0.1-0.6 of
    # this on the scan benchmark's closures and on a cocycle law mod 2^63-1
    limits.charge_bytes(K * width * (16 + 6 * itemsize) + 80 * K * most, what)
    # column k of Z is the translation of class k
    Z = law.opz.reshape(N, K)
    if not _bijections(Z).all():
        return None
    # an identity class: its translation the identity and, for a cocycle
    # law, its cochain column constant
    start = np.flatnonzero(Z[0] == 0)
    start = start[(Z[:, start] == np.arange(N)[:, None]).all(axis=0)]
    if law.d:
        C = law.cz.reshape(N, K)
        start = start[(C[:, start] == C[0, start]).all(axis=0)]
    start = int(start[0]) if len(start) else None
    moves = [] if start is None else [_composing(law, Z)]
    # the tail move reads the class of every tail
    if one and (of is not None or first is None):
        moves.append(_acting(law, Z, first, of))
    if not moves:
        return None
    gens, covered = [], [] if start is None else [start]
    for s, before, covered in _closure(K, start, *moves):
        gens.append(s)
        # composition alone covers a group, where each generator at least
        # doubles the classes covered
        if len(gens) == most or not one and len(covered) < 2 * before:
            break
    # the generators and the classes they leave uncovered
    some = np.ones(K, bool)
    some[covered] = False
    some[gens] = True
    return None if some.all() else np.flatnonzero(some)


def _scan(law, classes=None):
    """First failing flat index of the law over all tuples, or -1; a list
    passed as `classes` is given `_tail_classes`' first tails.

    The law is scanned on one tail per class.  A law whose
    `_generating_classes` cover some class is scanned first on the classes
    those leave, and so is a cocycle law's table on its own
    self-distributivity: where each holds there, the law holds; where one
    fails, every class is scanned, so that the first failing tuple is
    found.  Each stage is charged just before it runs.
    """
    tail = law.tail
    # one table read everywhere, and one cochain
    one = (law.opy is law.opz and law.cy is law.cz
           and all(a is law.opz for a in law.acts))
    # the class of every tail is read by the tail move alone, in a closure
    # that runs only where one table's law spans more than one block
    law, first, of = _tail_classes(law, one and law.N ** law.lead * tail > _SLAB)
    if classes is not None:
        classes.append(first)
    N, K, lead = law.N, law.tail, law.lead
    what = f"{K} tail classes on {N} points"
    some = _generating_classes(law, first, of, _scan_steps(N, lead, K), one)
    leads = None
    if some is not None:
        if not len(some):
            return -1
        cut = _cut(law, some)
        _charge_blocks(N, lead, (2 if law.d else 1) * len(some), f"{len(some)} of {what}")
        hit = _scan_range(cut)
        if hit >= 0:
            # the first failing tuple leads no later than the cut's
            leads = hit // len(some) + 1
        elif not law.d or _scan_range(cut._replace(cy=None, cz=None, d=0)) < 0:
            return -1
    _charge_blocks(N, lead, K, what)
    hit = _scan_range(law, leads)
    if hit < 0 or first is None:
        return hit
    r, k = divmod(hit, K)
    return r * tail + int(first[k])


def holds(law):
    """Whether the law holds on every tuple, one bool per candidate table.

    Charges the bytes it holds besides the law's arrays: their copies in
    the narrow dtype and `_BLOCK_BYTES` for each entry of its largest block.
    """
    what = f"{law.batch} candidate tables on {law.N} points"
    _charge_blocks(law.N, law.lead, law.tail, what, law.batch)
    block = min(law.batch * law.N ** law.lead * law.tail, max(_SLAB, law.tail))
    limits.charge_bytes(_narrow(law).itemsize * (len(law.opz) + len(law.opy))
                        + _BLOCK_BYTES * block, f"a scan of {what}")
    ok = np.ones(law.batch, bool)
    span = law.N ** law.lead          # leading tuples of one candidate
    for start, lhs, rhs in _blocks(law, 0, law.batch * span):
        # whole candidates, or a part of one
        count = max(1, len(lhs) // span)
        c = start // span
        ok[c:c + count] &= ~(lhs != rhs).reshape(count, -1).any(axis=1)
    return ok


def witness(law, flat):
    """(tuple, lhs, rhs) of the law at a flat tuple index; cocycle sides mod d."""
    rows = law.tail
    r, z = divmod(int(flat), rows)
    start, lhs, rhs = next(_blocks(law, r, r + 1))
    lhs, rhs = int(lhs[r - start, z]), int(rhs[r - start, z])
    count = law.lead
    while law.N ** (count - law.lead) < rows:
        count += 1
    return tuple(digits(int(flat), law.N, count)), lhs, rhs


def exchange_scan(tm, tn, N, m, n, classes=None):
    """First (x, y.., z..) index violating `exchange_law`, or -1.  A list
    passed as `classes` is given the first tail of each class of equal
    tails that the scan grouped, in increasing order, or None where every
    tail is a class of its own."""
    return _scan(exchange_law(tm, tn, N, m, n), classes)


def compat_scan(A, B, N, which):
    """First (x, y0, y1, z0, z1) index violating `compat_law` identity 1 or 2, or -1."""
    return _scan(compat_law(A, B, N, which))


def nary_cocycle_scan(W, phi, N, k, d):
    """First (x, y.., z..) index violating `cocycle_law` modulo d, or -1."""
    return _scan(cocycle_law(W, phi, N, k, d))


def mutual_cocycle_scan(t0, t1, p0, p1, N, d, which):
    """First (x, y, z) index violating `mutual_cocycle_law` condition 1 or 2, or -1."""
    return _scan(mutual_cocycle_law(t0, t1, p0, p1, N, d, which))


def compat_cocycle_scan(A, B, s0, s1, N, d, which):
    """First (x0, x1, y0, y1, z0, z1) index violating `compat_cocycle_law`
    condition 1 or 2, or -1."""
    return _scan(compat_cocycle_law(A, B, s0, s1, N, d, which))


def translation_scan(table, N, k, tails=None):
    """First tail-tuple index whose translation x -> W(x, tail) is not a
    bijection, or -1.  With `tails`, the first tail of each class of equal
    columns in increasing order, one column a class is read: the first
    tail of the first failing class is the least failing tail."""
    Z = np.reshape(table, (N, -1))
    if tails is not None:
        Z = Z[:, tails]
    bad = np.flatnonzero(~_bijections(Z))
    if not bad.size:
        return -1
    return int(bad[0] if tails is None else tails[bad[0]])
