"""Answer checks that do not use the code under test.

Identities are re-evaluated with plain table lookups, constructed tables are
compared with reference gathers on a group's Cayley table and inverses, and
homology and classification answers are compared with pinned facts (see
FACTS.md in this directory for their sources).
"""
from __future__ import annotations

import itertools

import numpy as np


class Wrong(Exception):
    """A job's answer disagrees with the oracle."""


def expect(cond, msg):
    if not cond:
        raise Wrong(msg)


# ---------------------------------------------------------------------------
# plain lookups

def flat(args, n):
    idx = 0
    for a in args:
        idx = idx * n + int(a)
    return idx


def at(table, n, *args):
    return int(table[flat(args, n)])


def sd_sides(t, n, k, w):
    """(lhs, rhs) of k-ary right self-distributivity at w = (x, y.., z..)."""
    x, ys, zs = w[0], w[1:k], w[k:]
    lhs = at(t, n, at(t, n, x, *ys), *zs)
    rhs = at(t, n, at(t, n, x, *zs), *(at(t, n, y, *zs) for y in ys))
    return lhs, rhs


def exchange_sides(tm, m, tn, w):
    """(lhs, rhs) of tn distributing over the m-ary tm at w = (x, y.., z..)."""
    size = round(len(tm) ** (1.0 / m))
    x, ys, zs = w[0], w[1:m], w[m:]
    lhs = at(tn, size, at(tm, size, x, *ys), *zs)
    rhs = at(tm, size, at(tn, size, x, *zs), *(at(tn, size, y, *zs) for y in ys))
    return lhs, rhs


def compat_sides(A, B, n, which, w):
    """(lhs, rhs) of ternary compatibility identity 1 or 2."""
    x, y0, y1, z0, z1 = w
    T = A if which == 1 else B
    lhs = at(T, n, at(T, n, x, y0, y1), z0, z1)
    rhs = at(T, n, at(T, n, x, z0, z1), at(A, n, y0, z0, z1), at(B, n, y1, z0, z1))
    return lhs, rhs


def cocycle_sides(t, phi, n, k, d, w):
    """(lhs, rhs) mod d of the degree-2 cocycle condition of phi over t."""
    x, ys, zs = w[0], w[1:k], w[k:]
    lhs = at(phi, n, x, *ys) + at(phi, n, at(t, n, x, *ys), *zs)
    acted = [at(t, n, y, *zs) for y in ys]
    rhs = at(phi, n, x, *zs) + at(phi, n, at(t, n, x, *zs), *acted)
    return lhs % d, rhs % d


# ---------------------------------------------------------------------------
# witnesses and perturbations

def violated(kind, tables, w):
    """Whether the identity named by `kind` fails at the witness tuple w."""
    w = tuple(int(v) for v in w)
    if kind == "sd":
        t, n, k = tables
        if len(w) == k and len(set(w)) == 1:       # diagonal witness
            return at(t, n, *w) != w[0]
        a, b = sd_sides(t, n, k, w)
        return a != b
    if kind == "mutual":
        t0, t1 = tables
        return any(len(set(exchange_sides(a, 2, b, w))) == 2
                   for a, b in ((t0, t1), (t1, t0)))
    if kind == "compat":
        A, B, n = tables
        return any(len(set(compat_sides(A, B, n, which, w))) == 2 for which in (1, 2))
    if kind == "cocycle":
        t, phi, n, k, d = tables
        a, b = cocycle_sides(t, phi, n, k, d, w)
        return a != b
    raise ValueError(kind)


def perturb(values, modulus, rng):
    """Copy of `values` with one seeded entry changed; returns (copy, index)."""
    out = np.array(values, dtype=np.int64)
    i = rng.randrange(len(out))
    out[i] = (out[i] + rng.randrange(1, modulus)) % modulus
    return out, i


def find_violation(kind, tables, n, nargs, lead, rng, tries=256):
    """A tuple starting with `lead` at which the identity fails, or None.

    Used at set-up to prove that a perturbed input really fails before a job
    expects the program to say so.
    """
    rest = nargs - len(lead)
    for _ in range(tries):
        w = tuple(lead) + tuple(rng.randrange(n) for _ in range(rest))
        if violated(kind, tables, w):
            return w
    return None


# ---------------------------------------------------------------------------
# reference groups and gathers

def cyclic_cayley(n):
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def dihedral_cayley(n):
    """Element r^i s^j encoded as 2i+j; (r^i1 s^j1)(r^i2 s^j2) = r^(i1 ± i2) s^(j1+j2)."""
    e = np.arange(2 * n)
    i1, j1 = (e // 2)[:, None], (e % 2)[:, None]
    i2, j2 = (e // 2)[None, :], (e % 2)[None, :]
    i = (i1 + np.where(j1 == 0, i2, -i2)) % n
    return 2 * i + (j1 + j2) % 2


def symmetric_cayley(n):
    """Permutations in lexicographic order; the product applies a, then b."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    m = len(perms)
    key = np.zeros(m, dtype=np.int64)
    for col in range(n):
        key = key * n + perms[:, col]
    # (a then b)[t] = b[a[t]]
    comp = perms[np.arange(m)[None, :, None], perms[:, None, :]]
    ckey = np.zeros((m, m), dtype=np.int64)
    for col in range(n):
        ckey = ckey * n + comp[:, :, col]
    return np.searchsorted(key, ckey)


def product_cayley(g, h):
    a, b = len(g), len(h)
    a0 = np.arange(a * b)[:, None] // b
    a1 = np.arange(a * b)[:, None] % b
    b0 = np.arange(a * b)[None, :] // b
    b1 = np.arange(a * b)[None, :] % b
    return g[a0, b0] * b + h[a1, b1]


def group_cayley(spec):
    kind, _, arg = spec.partition(":")
    return {"cyclic": cyclic_cayley, "dihedral": dihedral_cayley,
            "symmetric": symmetric_cayley}[kind](int(arg))


def inverses(C):
    ident = int(np.flatnonzero((C == np.arange(len(C))[None, :]).all(axis=1))[0])
    return np.argmax(C == ident, axis=1)


def heap_ref(C):
    inv = inverses(C)
    n = len(C)
    x, y0, y1 = np.ix_(np.arange(n), np.arange(n), np.arange(n))
    return C[C[x, inv[y0]], y1].ravel()


def conj_ref(C):
    inv = inverses(C)
    a, b = np.ix_(np.arange(len(C)), np.arange(len(C)))
    return C[C[inv[b], a], b].ravel()


def core_ref(C):
    inv = inverses(C)
    a, b = np.ix_(np.arange(len(C)), np.arange(len(C)))
    return C[C[b, inv[a]], b].ravel()


def alexander_ref(C, f):
    inv = inverses(C)
    x, y = np.ix_(np.arange(len(C)), np.arange(len(C)))
    return C[np.asarray(f)[C[x, inv[y]]], y].ravel()


def affine_ref(n, coeffs):
    """sum c_i a_i mod n over all argument tuples, first argument most significant."""
    grid = np.indices((n,) * len(coeffs)).reshape(len(coeffs), -1)
    return (np.asarray(coeffs)[:, None] * grid).sum(axis=0) % n


def relabel_ref(table, n, k, perm):
    """Table transported along perm: new(p a_1, .., p a_k) = p(old(a_1, .., a_k))."""
    p = np.asarray(perm)
    grid = np.indices((n,) * k).reshape(k, -1)
    new_idx = np.zeros(n ** k, dtype=np.int64)
    for row in grid:
        new_idx = new_idx * n + p[row]
    out = np.empty(n ** k, dtype=np.int64)
    out[new_idx] = p[np.asarray(table)]
    return out


def power_ref(t, n, k, e):
    inner = np.asarray(t).reshape(n, n ** (k - 1))
    cur = np.repeat(np.arange(n)[:, None], n ** (k - 1), axis=1)
    cols = np.arange(n ** (k - 1))[None, :]
    for _ in range(e):
        cur = inner[cur, cols]
    return cur.ravel()


def braid_image(star, n, word, xs):
    """Right action of a braid word on a tuple through the binary rack star."""
    xs = list(xs)
    for letter in word:
        i = abs(letter) - 1
        a, b = xs[i], xs[i + 1]
        if letter > 0:
            xs[i], xs[i + 1] = b, at(star, n, a, b)
        else:
            pre = [v for v in range(n) if at(star, n, v, a) == b]
            xs[i], xs[i + 1] = pre[0], a
    return xs


# ---------------------------------------------------------------------------
# vectorized checks of whole tables (for outputs that must hold by theorem)

def is_sd(t, n, k):
    t = np.asarray(t)
    inner = t.reshape(n, n ** (k - 1))
    P = n ** (k - 1)
    x = np.arange(n)[:, None, None]
    y = np.arange(P)[None, :, None]
    z = np.arange(P)[None, None, :]
    lhs = inner[inner[x, y], z]
    idx = inner[x, z]
    for j in range(k - 1):
        digit = (y // n ** (k - 2 - j)) % n
        idx = idx * n + inner[digit, z]
    return bool((lhs == t[idx]).all())


def is_rack(t, n, k):
    cols = np.sort(np.asarray(t).reshape(n, n ** (k - 1)), axis=0)
    return is_sd(t, n, k) and bool((cols == np.arange(n)[:, None]).all())


def canonical(t, n, k):
    """Least relabeled table over all n! relabelings, as bytes."""
    best = None
    for p in itertools.permutations(range(n)):
        cand = relabel_ref(t, n, k, p).tobytes()
        if best is None or cand < best:
            best = cand
    return best


def all_tables(n, k):
    entries = n ** k
    codes = np.arange(n ** entries, dtype=np.int64)
    out = np.empty((len(codes), entries), dtype=np.int64)
    for pos in range(entries - 1, -1, -1):
        out[:, pos] = codes % n
        codes //= n
    return out


def sd_rows(tables, n, k):
    """Self-distributivity of every row, one argument tuple at a time."""
    rows = np.arange(len(tables))
    ok = np.ones(len(tables), dtype=bool)
    for w in itertools.product(range(n), repeat=2 * k - 1):
        x, ys, zs = w[0], w[1:k], w[k:]
        head = tables[:, flat((x,) + ys, n)]
        lhs = tables[rows, head * n ** (k - 1) + flat(zs, n)]
        idx = tables[:, flat((x,) + zs, n)]
        for y in ys:
            idx = idx * n + tables[:, flat((y,) + zs, n)]
        ok &= lhs == tables[rows, idx]
    return ok


def rack_rows(tables, n, k):
    P = n ** (k - 1)
    cols = np.sort(tables.reshape(len(tables), n, P), axis=1)
    return (cols == np.arange(n)[None, :, None]).all(axis=(1, 2))


def quandle_rows(tables, n, k):
    step = (n ** k - 1) // (n - 1)
    return (tables[:, np.arange(n) * step] == np.arange(n)[None, :]).all(axis=1)


# ---------------------------------------------------------------------------
# homology facts and the universal coefficient theorem

def rack_boundary(system, size, degree):
    """Degree-`degree` boundary of the labeled rack complex, built entry by entry.

    `system` is a list of (table, arity).  Generators are x followed by
    degree-1 labeled blocks (e, Y), Y an (arity_e - 1)-tuple; the boundary
    is sum_i (-1)^i (delete block i  -  act on everything left of block i
    by T_e_i( . , Y_i)).  Columns are degree-`degree` generators, rows
    degree-`degree`-1 generators.
    """
    def gens(deg):
        blocks = [[(e, ys) for e, (_, k) in enumerate(system)
                   for ys in itertools.product(range(size), repeat=k - 1)]] * (deg - 1)
        return [(x,) + bs for x in range(size) for bs in itertools.product(*blocks)]

    def act(v, e, ys):
        table, _ = system[e]
        return at(table, size, v, *ys)

    lo = {g: r for r, g in enumerate(gens(degree - 1))} if degree > 1 else {}
    hi = gens(degree)
    M = np.zeros((len(lo), len(hi)), dtype=np.int64)
    for c, (x, *blocks) in enumerate(hi):
        for i in range(1, degree):
            e, ys = blocks[i - 1]
            sign = (-1) ** i
            M[lo[(x,) + tuple(blocks[:i - 1] + blocks[i:])], c] += sign
            moved = [(f, tuple(act(y, e, ys) for y in zs)) for f, zs in blocks[:i - 1]]
            M[lo[(act(x, e, ys),) + tuple(moved + blocks[i:])], c] -= sign
    return M


def rank_mod(M, p):
    """Rank of an integer matrix over F_p, by Gaussian elimination."""
    A = np.array(M, dtype=np.int64) % p
    rank = 0
    for c in range(A.shape[1]):
        if rank == A.shape[0]:
            break
        pivots = np.flatnonzero(A[rank:, c])
        if len(pivots) == 0:
            continue
        r = rank + pivots[0]
        A[[rank, r]] = A[[r, rank]]
        A[rank] = A[rank] * pow(int(A[rank, c]), -1, p) % p
        others = np.flatnonzero(A[:, c])
        others = others[others != rank]
        A[others] = (A[others] - A[others, c][:, None] * A[rank]) % p
        rank += 1
    return rank


def homology_ranks(system, size, degree, primes=(2, 3, 5, 7)):
    """(betti, {p: number of torsion factors of H_degree divisible by p}).

    b_n = dim C_n - rank d_n - rank d_(n+1) over Q, and the torsion factors
    divisible by p number rank_Q d_(n+1) - rank_p d_(n+1).
    """
    dn, dn1 = rack_boundary(system, size, degree), rack_boundary(system, size, degree + 1)
    rank_n = np.linalg.matrix_rank(dn.astype(float)) if dn.size else 0
    rank_n1 = np.linalg.matrix_rank(dn1.astype(float))
    betti = dn.shape[1] - rank_n - rank_n1
    return betti, {p: rank_n1 - rank_mod(dn1, p) for p in primes}


def uct_mod_p(pinned, degree, p):
    """Invariant factors of H_n(C; Z/p) and H^n(C; Z/p) for prime p.

    Both equal (Z/p)^(b_n + t_n + t_(n-1)) for a complex of finitely generated
    free groups, where t_m counts the torsion factors of H_m divisible by p.
    """
    betti, tors = pinned[degree]
    prev = pinned.get(degree - 1, (0, ()))[1]
    count = betti + sum(1 for d in tors if d % p == 0) + sum(1 for d in prev if d % p == 0)
    return (p,) * count

