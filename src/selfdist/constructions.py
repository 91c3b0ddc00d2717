"""Builders for self-distributive operation tables.

Affine and group-based families, the two doubling constructions on pair
carriers, the binary-pair -> ternary and ternary-pair -> binary passages,
composition across arities, the composition monoid, and augmented ternary
operations from group actions.

Every builder validates the hypotheses its construction needs (`verify=True`)
and refuses with the failing counterexample otherwise; pass `verify=False` to
build unchecked tables for experimentation.  A pair's hypotheses are checked
in one order: each operation's own test (a rack, or self-distributive), then
the pair law (mutually distributive: the exchange law both ways; or, for
ternary operations, compatible).  Every refusal reads the same way,

    <subject> is not <property>[ at <witness>: <lhs> != <rhs>][ (<detail>)]

as in "first operation is not a rack (translation by tail (0,) is not a
bijection)" or "operations are not mutually distributive at ...".

The group-derived and composite tables are built by whole-row gathers.
Indexing a table reshaped to (N, N^(k-1)) by an array of elements puts
the row of each element x, the table with x as first argument, in x's
place.  With C the Cayley table, inv the inverses, s0, s1 binary and A, B
ternary tables reshaped to (N, N) and (N, N, N), and a pair (x0, x1)
encoded as x0 N + x1:

    heap              x y0^-1 y1       = C[C[:, inv]]
    f_functor         (x *0 y0) *1 y1  = s1[s0]
    g_functor         with A, B        = A[:, None] * N + B[None, :]
    doubling_binary   with F = s1[s0]  = F[:, None] * N + F[None, :]
    doubling_ternary  with A[A], B[B]  = A[A][:, None] * N + B[B][None, :]

Row (x, y0) of C[:, inv] is x y0^-1, so row (x, y0) of the heap is the row
of C there; likewise A[A] holds A(A(x, y0, y1), z0, z1).
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import limits
from .optable import (CheckResult, Counterexample, FiniteGroup, InputError,
                      OpTable, are_compatible_ternary,
                      are_mutually_distributive, check_shape, exchange_holds,
                      integer_array, is_nary_distributive, is_rack,
                      table_bytes)


class PreconditionError(ValueError):
    """A construction's hypotheses fail; carries the failed check result."""

    def __init__(self, message: str, result: CheckResult | None = None):
        super().__init__(message)
        self.result = result


def _require(result: CheckResult, what: str):
    """Refuse with `what`, "<subject> is not <property>", unless result holds."""
    if not result:
        cex = result.counterexample
        where = f" at {cex.witness}: {cex.lhs} != {cex.rhs}" if cex else ""
        raise PreconditionError(f"{what}{where}" +
                                (f" ({result.detail})" if result.detail else ""),
                                result)


def _require_ops(ops, own=None, law=None, names=None):
    """Refuse unless each operation passes its own test, and then every two
    of them, in index order, the pair law.

    `own` is "a rack" or "self-distributive", one of them per operation, or
    None; `law` is "mutually distributive" or "compatible", or None.  The
    operations are named "first operation" and "second operation" in a
    pair, "operation i" in a larger system, or by `names`.
    """
    # built at each call, so that a wrapper installed on a check since
    # import is the one called
    tests = {"a rack": is_rack, "self-distributive": is_nary_distributive,
             "mutually distributive": are_mutually_distributive,
             "compatible": are_compatible_ternary}
    count = len(ops)
    if names is None:
        names = (("operation",) if count == 1 else
                 ("first operation", "second operation") if count == 2 else
                 tuple(f"operation {i}" for i in range(count)))
    if own is None or isinstance(own, str):
        own = (own,) * count
    for op, name, test in zip(ops, names, own):
        if test:
            _require(tests[test](op), f"{name} is not {test}")
    if law:
        for a, b in itertools.combinations(range(count), 2):
            pair = "operations" if count == 2 else f"operations {a} and {b}"
            _require(tests[law](ops[a], ops[b]), f"{pair} are not {law}")


def _charge_table(size: int, arity: int, what: str) -> None:
    """Charge the int64 table a builder is about to make, before any
    hypothesis is verified."""
    limits.charge_bytes(table_bytes(size, arity),
                        f"{what} (a size {size} arity {arity} table)")


def affine_op(modulus: int, arity: int, coefficients) -> OpTable:
    """Linear operation sum(c_i * a_i) mod N with coefficients summing to 1.

    The first arity-1 coefficients are given; the last is 1 minus their sum,
    which makes the table self-distributive for every choice.  Translations
    are invertible only when the leading coefficient is a unit mod N; a
    non-unit still builds, with a warning recorded in the table metadata.
    """
    check_shape(modulus, arity)
    coeffs = [int(c) % modulus for c in coefficients]
    if len(coeffs) != arity - 1:
        raise InputError(
            f"need {arity - 1} coefficients for arity {arity}, got {len(coeffs)}")
    _charge_table(modulus, arity, "an affine operation")
    coeffs.append((1 - sum(coeffs)) % modulus)
    total = np.zeros(1, np.int64)
    for c in coeffs:
        # append one argument: each partial sum, plus c times every value
        total = (total[:, None] + c * np.arange(modulus)).ravel()
    meta = {"construction": "affine", "modulus": modulus,
            "coefficients": coeffs}
    if math.gcd(coeffs[0], modulus) != 1:
        meta["warning"] = ("leading coefficient is not a unit; "
                          "translations are not invertible")
    return OpTable(modulus, arity, (total % modulus).ravel(), meta=meta)


def conj_quandle(g: FiniteGroup) -> OpTable:
    """Conjugation a * b = b^-1 a b."""
    _charge_table(g.size, 2, "a conjugation quandle")
    C = g.cayley.reshape(g.size, g.size)
    return OpTable(g.size, 2, C[g.inverse[None, :], C],
                   meta={"construction": "conjugation"})


def core_quandle(g: FiniteGroup) -> OpTable:
    """Core operation a * b = b a^-1 b."""
    _charge_table(g.size, 2, "a core quandle")
    C = g.cayley.reshape(g.size, g.size)
    return OpTable(g.size, 2, C[np.arange(g.size)[None, :], C[g.inverse]],
                   meta={"construction": "core"})


def heap_op(g: FiniteGroup) -> OpTable:
    """Heap T(x, y0, y1) = x y0^-1 y1, a ternary rack for every group."""
    _charge_table(g.size, 3, "a heap")
    C = g.cayley.reshape(g.size, g.size)
    return OpTable(g.size, 3, C[C[:, g.inverse]], meta={"construction": "heap"})


def heap_vs_core_directional(group: FiniteGroup, jobs: int = 1):
    """The two exchange directions between a group's core and heap operations.

    Returns (heap distributes over core, core distributes over heap); the
    second->first direction fails for every nonabelian group.
    """
    core, heap = core_quandle(group), heap_op(group)
    return (bool(exchange_holds(core, heap, jobs=jobs)),
            bool(exchange_holds(heap, core, jobs=jobs)))


def _check_automorphism(g: FiniteGroup, perm) -> np.ndarray:
    f = integer_array(perm, "automorphism entries")
    if f.shape != (g.size,) or not np.array_equal(np.sort(f), np.arange(g.size)):
        raise InputError("automorphism must be a permutation of the group")
    C = g.cayley.reshape(g.size, g.size)
    if not np.array_equal(f[C], C[f][:, f]):
        bad = np.argwhere(f[C] != C[f][:, f])[0]
        a, b = (int(v) for v in bad)
        raise InputError(
            f"map is not an automorphism: f({a}*{b}) != f({a})*f({b})")
    return f


def generalized_alexander(g: FiniteGroup, f) -> OpTable:
    """Twisted operation x * y = f(x y^-1) y for an automorphism f."""
    _charge_table(g.size, 2, "a generalized Alexander quandle")
    fv = _check_automorphism(g, f)
    C = g.cayley.reshape(g.size, g.size)
    return OpTable(g.size, 2, C[fv[C[:, g.inverse]], np.arange(g.size)[None, :]],
                   meta={"construction": "generalized_alexander"})


def commuting_automorphisms(g: FiniteGroup, f0, f1) -> bool:
    """Whether two validated automorphisms commute as maps."""
    a = _check_automorphism(g, f0)
    b = _check_automorphism(g, f1)
    return bool(np.array_equal(a[b], b[a]))


def power_op(op: OpTable, n: int, verify: bool = True) -> OpTable:
    """n-fold leftmost iterate x -> W(...W(W(x, y), y)..., y).

    n = 0 gives the projection onto the first argument, the identity of the
    composition monoid.  The iterate is the n-th power of each translation
    x -> W(x, y), taken by repeated squaring: powers of one map commute, so
    the squares of the translations are multiplied in along the bits of n.
    """
    if n < 0:
        raise InputError("power must be a nonnegative integer")
    N, k = op.size, op.arity
    # two gathers of the whole table per bit of n
    limits.charge_steps(2 * int(n).bit_length() * len(op.table),
                        f"power {n} of a size {N} arity {k} table")
    if verify:
        _require_ops((op,), "self-distributive")
    P = N ** (k - 1)
    square = op.table.reshape(N, P)
    cur = np.broadcast_to(np.arange(N)[:, None], (N, P)).copy()
    cols = np.arange(P)[None, :]
    bits = int(n)
    while bits:
        if bits & 1:
            cur = square[cur, cols]
        bits >>= 1
        if bits:
            square = square[square, cols]
    return OpTable(N, k, cur.ravel(),
                   meta={"construction": "power", "exponent": n})


def projection_op(size: int, arity: int) -> OpTable:
    """W(x, y...) = x, the identity of the composition monoid."""
    check_shape(size, arity)
    _charge_table(size, arity, "a projection")
    table = np.repeat(np.arange(size, dtype=np.int64), size ** (arity - 1))
    return OpTable(size, arity, table, meta={"construction": "projection"})


def product_mutual_pair(rack_x: OpTable, rack_y: OpTable,
                        verify: bool = True) -> tuple[OpTable, OpTable]:
    """Two commuting operations on X x Y, each acting in one factor only.

    The first acts by rack_x on the left coordinates, the second by rack_y on
    the right; the resulting pair is mutually distributive.
    """
    if rack_x.arity != 2 or rack_y.arity != 2:
        raise InputError("product pair construction needs binary operations")
    nx, ny = rack_x.size, rack_y.size
    # two tables on the product carrier
    limits.charge_bytes(2 * table_bytes(nx * ny, 2),
                        f"a product pair of orders {nx} and {ny}")
    if verify:
        _require_ops((rack_x, rack_y), "a rack")
    sx = rack_x.table.reshape(nx, nx)
    sy = rack_y.table.reshape(ny, ny)
    x0 = np.arange(nx)[:, None, None, None]
    y0 = np.arange(ny)[None, :, None, None]
    x1 = np.arange(nx)[None, None, :, None]
    y1 = np.arange(ny)[None, None, None, :]
    op0 = np.broadcast_to(sx[x0, x1] * ny + y0, (nx, ny, nx, ny))
    op1 = np.broadcast_to(x0 * ny + sy[y0, y1], (nx, ny, nx, ny))
    meta = {"construction": "product_pair", "sizes": [nx, ny]}
    return (OpTable(nx * ny, 2, op0.ravel(), meta=meta),
            OpTable(nx * ny, 2, op1.ravel(), meta=meta))


def _pair_meta(name: str, *ops: OpTable) -> dict:
    return {"construction": name, "size": ops[0].size,
            "inputs": [o.meta.get("construction", "table") for o in ops]}


def doubling_binary(op0: OpTable, op1: OpTable, verify: bool = True) -> OpTable:
    """Rack on pairs: (x0,x1) * (y0,y1) = ((x0*y0)*y1, (x1*y0)*y1).

    The first operation is applied with y0, then the second with y1, in both
    coordinates.  Needs a mutually distributive pair of racks.
    """
    if op0.arity != 2 or op1.arity != 2 or op0.size != op1.size:
        raise InputError("doubling needs two binary operations of equal size")
    _charge_table(op0.size ** 2, 2, "a binary doubling")
    if verify:
        _require_ops((op0, op1), "a rack", "mutually distributive")
    N = op0.size
    F = op1.table.reshape(N, N)[op0.table.reshape(N, N)]
    out = F[:, None] * N + F[None, :]
    return OpTable(N * N, 2, out.ravel(),
                   meta=_pair_meta("doubling_binary", op0, op1))


def doubling_ternary(T0: OpTable, T1: OpTable, verify: bool = True) -> OpTable:
    """Ternary operation on pairs, each coordinate acted twice by its own op.

    T((x0,x1),(y0,y1),(z0,z1)) = (T0(T0(x0,y0,y1),z0,z1),
    T1(T1(x1,y0,y1),z0,z1)); needs compatible self-distributive ternary ops.
    """
    if T0.arity != 3 or T1.arity != 3 or T0.size != T1.size:
        raise InputError("ternary doubling needs two ternary operations of equal size")
    _charge_table(T0.size ** 2, 3, "a ternary doubling")
    if verify:
        _require_ops((T0, T1), "self-distributive", "compatible")
    N = T0.size
    A = T0.table.reshape(N, N, N)
    B = T1.table.reshape(N, N, N)
    out = A[A][:, None] * N + B[B][None, :]
    return OpTable(N * N, 3, out.ravel(),
                   meta=_pair_meta("doubling_ternary", T0, T1))


def f_functor(op0: OpTable, op1: OpTable, verify: bool = True) -> OpTable:
    """Ternary operation T(x, y0, y1) = (x *0 y0) *1 y1 on the same carrier.

    Needs a mutually distributive pair of racks.
    """
    if op0.arity != 2 or op1.arity != 2 or op0.size != op1.size:
        raise InputError("the binary-to-ternary passage needs two binary operations")
    _charge_table(op0.size, 3, "the binary-to-ternary passage")
    if verify:
        _require_ops((op0, op1), "a rack", "mutually distributive")
    N = op0.size
    out = op1.table.reshape(N, N)[op0.table.reshape(N, N)]
    return OpTable(N, 3, out.ravel(), meta=_pair_meta("binary_pair_to_ternary",
                                                      op0, op1))


def g_functor(T0: OpTable, T1: OpTable, verify: bool = True) -> OpTable:
    """Binary operation on pairs: (x0,x1)*(y0,y1) = (T0(x0,y0,y1), T1(x1,y0,y1)).

    Needs compatible ternary racks.
    """
    if T0.arity != 3 or T1.arity != 3 or T0.size != T1.size:
        raise InputError("the ternary-to-binary passage needs two ternary operations")
    _charge_table(T0.size ** 2, 2, "the ternary-to-binary passage")
    if verify:
        _require_ops((T0, T1), "a rack", "compatible")
    N = T0.size
    A = T0.table.reshape(N, N, N)
    B = T1.table.reshape(N, N, N)
    out = A[:, None] * N + B[None, :]
    return OpTable(N * N, 2, out.ravel(), meta=_pair_meta("ternary_pair_to_binary",
                                                          T0, T1))


def verify_functor_identities(op0: OpTable, op1: OpTable,
                              verify: bool = True) -> bool:
    """Round-trip identity between the pair passages and the doublings.

    For a binary pair: applying the binary-to-ternary passage and then the
    ternary-to-binary one (with the result against itself) reproduces the
    binary doubling table exactly.  For a ternary pair, the same trip through
    the other passage reproduces the ternary doubling.
    """
    if op0.arity == 2 and op1.arity == 2:
        T = f_functor(op0, op1, verify=verify)
        back = g_functor(T, T, verify=verify)
        return back == doubling_binary(op0, op1, verify=verify)
    if op0.arity == 3 and op1.arity == 3:
        s = g_functor(op0, op1, verify=verify)
        back = f_functor(s, s, verify=verify)
        return back == doubling_ternary(op0, op1, verify=verify)
    raise InputError("functor identities need a binary pair or a ternary pair")


def compose_mn(W_m: OpTable, W_n: OpTable, verify: bool = True) -> OpTable:
    """(m+n-1)-ary operation W(x, y, z) = W_n(W_m(x, y), z).

    Needs the two operations individually self-distributive and mutually
    distributive; a binary pair reproduces the binary-to-ternary passage.
    """
    if W_m.size != W_n.size:
        raise InputError(f"size mismatch: {W_m.size} vs {W_n.size}")
    _charge_table(W_m.size, W_m.arity + W_n.arity - 1, "a composite operation")
    if verify:
        _require_ops((W_m, W_n), "self-distributive", "mutually distributive")
    N = W_m.size
    Pn = N ** (W_n.arity - 1)
    inner_n = W_n.table.reshape(N, Pn)
    out = inner_n[W_m.table]
    return OpTable(N, W_m.arity + W_n.arity - 1, out.ravel(),
                   meta=_pair_meta("compose", W_m, W_n))


def monoid_product(W: OpTable, W_prime: OpTable) -> OpTable:
    """Composite (W . W')(x, y) = W(W'(x, y), y) of same-shape operations.

    Associative, with the projection onto the first argument as two-sided
    identity; W . W equals the leftmost square of W.
    """
    if W.size != W_prime.size or W.arity != W_prime.arity:
        raise InputError("monoid product needs tables of identical size and arity")
    N, k = W.size, W.arity
    _charge_table(N, k, "a monoid product")
    P = N ** (k - 1)
    inner = W.table.reshape(N, P)
    out = inner[W_prime.table.reshape(N, P),
                np.broadcast_to(np.arange(P)[None, :], (N, P))]
    return OpTable(N, k, out.ravel(), meta=_pair_meta("monoid_product",
                                                      W, W_prime))


def augmented_ternary(x_size: int, g: FiniteGroup, action, pairing,
                      verify: bool = True) -> OpTable:
    """Ternary operation T(x, y0, y1) = x . p(y0, y1) from a right group action.

    `action` is a table of shape (x_size, |G|) giving x . g; `pairing` maps
    X^2 -> G as a table of shape (x_size, x_size).  The action must be a valid
    right action and the pairing must intertwine it with conjugation:
    p(y0.g, y1.g) = g^-1 p(y0, y1) g.  Self-distributivity of the result then
    comes for free.
    """
    act = integer_array(action, "action entries")
    p = integer_array(pairing, "pairing entries")
    if act.shape != (x_size, g.size):
        raise InputError(f"action has shape {act.shape}, expected"
                         f" {(x_size, g.size)}")
    if p.shape != (x_size, x_size):
        raise InputError(f"pairing has shape {p.shape}, expected"
                         f" {(x_size, x_size)}")
    _charge_table(x_size, 3, "an augmented ternary operation")
    if act.size and (act.min() < 0 or act.max() >= x_size):
        raise InputError("action values must lie in the carrier")
    if p.size and (p.min() < 0 or p.max() >= g.size):
        raise InputError("pairing values must lie in the group")
    C = g.cayley.reshape(g.size, g.size)
    if verify:
        # the action law compares two x_size x |G| x |G| arrays
        limits.charge_bytes(8 * x_size * g.size ** 2,
                            f"verifying an action of order {g.size}"
                            f" on {x_size} points")
        if not np.array_equal(act[:, g.identity], np.arange(x_size)):
            raise PreconditionError("action does not fix the identity")
        # act(act(x,a),b) == act(x, a*b)
        lhs = act[act][:, :, :]
        rhs = act[:, C]
        if not np.array_equal(lhs, rhs):
            x, a, b = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise PreconditionError(
                f"not a right action: (x.a).b != x.(ab) at x={x}, a={a}, b={b}")
        # p(y0.g, y1.g) == g^-1 p(y0,y1) g
        for gg in range(g.size):
            gi = g.inv(gg)
            lhs = p[act[:, gg]][:, act[:, gg]]
            rhs = C[C[gi, p], gg]
            if not np.array_equal(lhs, rhs):
                y0, y1 = (int(v) for v in np.argwhere(lhs != rhs)[0])
                cex = Counterexample((y0, y1, gg), int(lhs[y0, y1]),
                                     int(rhs[y0, y1]))
                raise PreconditionError(
                    f"pairing is not conjugation-equivariant at "
                    f"(y0,y1,g)=({y0},{y1},{gg})",
                    CheckResult(False, cex, "equivariance fails"))
    x = np.arange(x_size)[:, None, None]
    out = act[x, p[None, :, :]]
    return OpTable(x_size, 3, np.broadcast_to(out, (x_size, x_size, x_size)).ravel(),
                   meta={"construction": "augmented_ternary", "group": g.size})


def affine_ternary_compat_conditions(modulus: int, t: int, s: int,
                                     tp: int, sp: int) -> list[int]:
    """Closed-form residues deciding compatibility of two affine ternary ops.

    For T0 = tx+sy+rz and T1 = t'x+s'y+r'z (r = 1-t-s, r' = 1-t'-s'), the pair
    is compatible exactly when all four residues vanish: r(t'-t), r(s'-s),
    s'(t'-t), s'(s'-s) mod N.  Derived by matching coefficients of both
    compatibility identities; equivalent to the brute-force scan for every
    modulus.
    """
    r = (1 - t - s) % modulus
    return [(r * (tp - t)) % modulus,
            (r * (sp - s)) % modulus,
            (sp * (tp - t)) % modulus,
            (sp * (sp - s)) % modulus]
