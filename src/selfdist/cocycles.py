"""Degree-2 cocycles, abelian extensions, and their passages between arities.

A cochain assigns an element of a finite abelian group to every argument
tuple of an operation's carrier.  Values are stored as residue rows, one
column per cyclic factor, in the same first-argument-most-significant
order as operation tables.  Extensions live on the product carrier with
(x, a) encoded as x * |A| + index(a).

The checks mirror the table-level layer: a single operation has a cocycle
condition, a mutually distributive binary pair has a pair of mixed
conditions, and a compatible ternary pair has a six-variable pair of
conditions.  The second six-variable condition pairs each x coordinate
with its own operation, the form under which the binary passage below
gives a cocycle; the printed form, which feeds the first pair coordinate
into the final term, is not checked.

Each passage is stated once.  `ternary_cocycle_from_pair` takes a binary
pair to a ternary cocycle and `binary_cocycle_from_ternary_pair` a ternary
pair to a binary cocycle on the square carrier; the doubled cocycles are
their round trips, as the doubled tables are the round trips of the table
passages.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import kernels, limits
from .homology import Elimination, boundary_matrix
from .optable import (CheckResult, InputError, OK, OpTable,
                      _checked_index, _first_failure, diagonal_indices,
                      index_to_tuple, integer_array)
from .constructions import (PreconditionError, _require, _require_ops,
                            f_functor, g_functor, power_op)


# ---------------------------------------------------------------------------
# coefficient groups

def _mixed_digits(index, factors):
    """Residues of `index` (an int or an int64 array) in the mixed radix of
    `factors`, first factor most significant."""
    out = []
    for f in reversed(factors):
        index, r = divmod(index, f)
        out.append(r)
    return out[::-1]


@functools.lru_cache(maxsize=None)
def _residue_table(factors: Tuple[int, ...]) -> np.ndarray:
    """(order, len(factors)) residue rows in index order, read-only."""
    order = math.prod(factors)
    limits.charge_bytes(8 * order * len(factors),
                        f"the residue table of a group of order {order}")
    out = np.empty((order, len(factors)), dtype=np.int64)
    for j, col in enumerate(_mixed_digits(np.arange(order, dtype=np.int64), factors)):
        out[:, j] = col
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AbGroup:
    """Finite abelian group as a product of cyclic factors (d_1, ..., d_r).

    Elements are residue tuples; the flat index uses the first factor as
    the most significant digit, matching the carrier conventions.
    """
    factors: Tuple[int, ...]

    def __post_init__(self):
        facs = tuple(int(f) for f in self.factors)
        if any(f < 1 or f > np.iinfo(np.int64).max for f in facs):
            raise InputError(f"cyclic factors must be in 1..2^63-1, got {facs}")
        object.__setattr__(self, "factors", facs)

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    @property
    def rank(self) -> int:
        return len(self.factors)

    def index(self, residues) -> int:
        if len(residues) != len(self.factors):
            raise InputError(f"element needs {len(self.factors)} residues")
        idx = 0
        for r, f in zip(residues, self.factors):
            idx = idx * f + int(r) % f
        return idx

    def residues(self, index: int) -> tuple:
        if not 0 <= index < self.order:
            raise InputError(f"index {index} outside 0..{self.order - 1}")
        return tuple(_mixed_digits(int(index), self.factors))

    def residue_table(self) -> np.ndarray:
        return _residue_table(self.factors)

    def reduce(self, arr) -> np.ndarray:
        mods = np.array(self.factors, dtype=np.int64)
        return np.asarray(arr, dtype=np.int64) % mods

    def index_array(self, residue_rows) -> np.ndarray:
        """Flat indices of residue rows with shape (..., rank); refused for
        an order of 2^63 or more, whose indices int64 cannot hold."""
        if self.order >> 63:
            raise InputError(f"a group of order {self.order} has flat "
                             "indices past int64")
        arr = self.reduce(residue_rows)
        idx = np.zeros(arr.shape[:-1], dtype=np.int64)
        for j, f in enumerate(self.factors):
            idx = idx * f + arr[..., j]
        return idx


def coeff_group(coeff) -> AbGroup:
    """Accept an AbGroup, a bare modulus, or a factor sequence."""
    if isinstance(coeff, AbGroup):
        return coeff
    if isinstance(coeff, int):
        return AbGroup((coeff,))
    return AbGroup(tuple(coeff))


# ---------------------------------------------------------------------------
# cochains

class Cochain:
    """Function from argument tuples of a carrier to an abelian group.

    values has shape (size^nargs, rank); `base` optionally remembers the
    operation the cochain belongs to and never takes part in equality.
    """

    __slots__ = ("size", "nargs", "coeff", "values", "base")

    def __init__(self, size: int, nargs: int, coeff, values, base=None):
        coeff = coeff_group(coeff)
        if size < 1 or nargs < 1:
            raise InputError("cochain needs size >= 1 and nargs >= 1")
        arr = integer_array(values, "cochain values")
        if arr.ndim == 1 and coeff.rank == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != coeff.rank:
            raise InputError(
                f"values must have shape (size^nargs, {coeff.rank})")
        if arr.shape[0] != limits.power(size, nargs):
            raise InputError(
                f"values length {arr.shape[0]} != {size}^{nargs}")
        arr = coeff.reduce(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "size", int(size))
        object.__setattr__(self, "nargs", int(nargs))
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.size == other.size
                and self.nargs == other.nargs and self.coeff == other.coeff
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self):
        return hash((self.size, self.nargs, self.coeff.factors,
                     self.values.tobytes()))

    def __repr__(self):
        return (f"Cochain(size={self.size}, nargs={self.nargs}, "
                f"coeff={self.coeff.factors})")

    def __call__(self, *args) -> tuple:
        idx = _checked_index(args, self.size, self.nargs)
        return tuple(int(v) for v in self.values[idx])

    def as_json(self) -> dict:
        return {"nargs": self.nargs,
                "coeff": list(self.coeff.factors),
                "values": [[int(v) for v in row] for row in self.values]}

    @staticmethod
    def from_json(obj: dict) -> "Cochain":
        try:
            nargs = int(obj["nargs"])
            coeff = coeff_group(obj["coeff"])
            values = obj["values"]
            count = len(values)
        except (KeyError, TypeError, ValueError, InputError) as exc:
            raise InputError(f"cochain JSON needs nargs/coeff/values: {exc}")
        size = round(count ** (1.0 / nargs)) if nargs > 0 else 1
        for cand in (size - 1, size, size + 1):
            if cand >= 1 and limits.power(cand, nargs) == count:
                return Cochain(cand, nargs, coeff, values)
        raise InputError(f"values length {count} is not a {nargs}-th power")


def zero_cochain(size: int, nargs: int, coeff, base=None) -> Cochain:
    coeff = coeff_group(coeff)
    limits.charge_bytes(8 * limits.power(size, nargs) * coeff.rank,
                        f"a size {size} zero cochain on {nargs} arguments")
    return Cochain(size, nargs, coeff,
                   np.zeros((size ** nargs, coeff.rank), np.int64), base=base)


def is_normalized_cochain(c: Cochain) -> bool:
    """True when the cochain vanishes on every constant tuple (x, ..., x)."""
    diag = c.values[diagonal_indices(c.size, c.nargs)]
    return not diag.any()


def _match(op: OpTable, c: Cochain, arity: int, what: str):
    if op.arity != arity:
        raise InputError(f"{what} needs an arity-{arity} operation")
    if c.nargs != arity:
        raise InputError(f"{what} needs a {arity}-argument cochain")
    if c.size != op.size:
        raise InputError(f"cochain carrier {c.size} != operation carrier {op.size}")


def _same_coeff(*cochains):
    first = cochains[0].coeff
    for c in cochains[1:]:
        if c.coeff != first:
            raise InputError("cochains take values in different groups")
    return first


# ---------------------------------------------------------------------------
# cocycle conditions

def _column(c: Cochain, fi: int) -> np.ndarray:
    return np.ascontiguousarray(c.values[:, fi])


def _degree2_check(c: Cochain, op: OpTable) -> CheckResult:
    for fi, d in enumerate(c.coeff.factors):
        res = _first_failure(kernels.nary_cocycle_scan, kernels.cocycle_law,
                             (op.table, _column(c, fi), op.size, op.arity, d),
                             f"cocycle condition fails in factor {fi}")
        if not res:
            return res
    return OK


def is_binary_2cocycle(phi: Cochain, op: OpTable) -> CheckResult:
    """phi(x,y) + phi(x*y, z) == phi(x,z) + phi(x*z, y*z) in the coefficients."""
    _match(op, phi, 2, "binary cocycle check")
    return _degree2_check(phi, op)


def is_ternary_2cocycle(psi: Cochain, op: OpTable) -> CheckResult:
    """psi(x,y) + psi(T(x,y), z) == psi(x,z) + psi(T(x,z), T(y,z)) with pair
    tails y = (y0,y1), z = (z0,z1)."""
    _match(op, psi, 3, "ternary cocycle check")
    return _degree2_check(psi, op)


def _pair_shapes(c0: Cochain, c1: Cochain, op0: OpTable, op1: OpTable,
                 arity: int) -> AbGroup:
    """Refuse a cochain pair that does not fit its operation pair of this
    arity on one carrier with one coefficient group; returns the group."""
    what = "cocycle pair check" if arity == 2 else "ternary cocycle pair check"
    _match(op0, c0, arity, what)
    _match(op1, c1, arity, what)
    if op0.size != op1.size:
        raise InputError("operations live on different carriers")
    return _same_coeff(c0, c1)


def _pair_conditions(c0: Cochain, c1: Cochain, op0: OpTable, op1: OpTable,
                     arity: int) -> CheckResult:
    """The two pair conditions of a binary (arity 2) or ternary (arity 3)
    cochain pair, after the hypotheses: the pair law of the operations,
    then each cochain a cocycle."""
    _pair_shapes(c0, c1, op0, op1, arity)
    binary = arity == 2
    _require_ops((op0, op1), law="mutually distributive" if binary else "compatible")
    cocycle = is_binary_2cocycle if binary else is_ternary_2cocycle
    _require(cocycle(c0, op0), "first cochain is not a cocycle")
    _require(cocycle(c1, op1), "second cochain is not a cocycle")
    if binary:
        scan, law, name = kernels.mutual_cocycle_scan, kernels.mutual_cocycle_law, "mixed"
    else:
        scan, law, name = kernels.compat_cocycle_scan, kernels.compat_cocycle_law, "pair"
    for fi, d in enumerate(c0.coeff.factors):
        for which in (1, 2):
            res = _first_failure(scan, law, (op0.table, op1.table, _column(c0, fi),
                                             _column(c1, fi), op0.size, d, which),
                                 f"{name} condition {which} fails in factor {fi}")
            if not res:
                return res
    return OK


def are_mutually_distributive_cocycles(phi0: Cochain, phi1: Cochain,
                                       op0: OpTable, op1: OpTable) -> CheckResult:
    """Mixed pair conditions for cocycles over a mutually distributive pair.

    Condition 1: phi0(x,y) + phi1(x *0 y, z) == phi1(x,z) + phi0(x *1 z, y *1 z).
    Condition 2 swaps the roles of the two operations and cochains.
    Mutual distributivity of the pair and each cochain being a cocycle are
    hypotheses, checked up front.
    """
    return _pair_conditions(phi0, phi1, op0, op1, 2)


def are_compatible_ternary_cocycles(psi0: Cochain, psi1: Cochain,
                                    T0: OpTable, T1: OpTable) -> CheckResult:
    """Six-variable pair conditions for cocycles over a compatible ternary pair,
    those of `kernels.compat_cocycle_law`, under which the pair-to-binary
    composite is a cocycle.

    Hypotheses checked up front: the operations are compatible and each
    cochain is a cocycle for its operation.
    """
    return _pair_conditions(psi0, psi1, T0, T1, 3)


# ---------------------------------------------------------------------------
# abelian extensions

def _charge_digits(size: int, k: int, what: str) -> None:
    """Charge the k int64 digit rows of every k-tuple on a carrier, the
    largest arrays of the extension builders."""
    limits.charge_bytes(8 * k * limits.power(size, k), what)


def _fiber_digits(N: int, o: int, k: int):
    """For every k-tuple on X x A, |X| = N and |A| = o: the flat index of its
    X coordinates, and its A coordinates as one row per slot."""
    grid = kernels.digits(np.arange((N * o) ** k, dtype=np.int64), N * o, k)
    base_idx = 0
    for v in grid:
        base_idx = base_idx * N + v // o
    return base_idx, np.stack([v % o for v in grid])


def extend(op: OpTable, c: Cochain, verify: bool = True) -> OpTable:
    """Extension on X x A: first slot (x, a), result (op(x, ...), a + c(x, ...)).

    With verify on, a failed cocycle condition refuses with the witness; the
    unverified table exists for exactly the tables that fail to be racks.
    """
    _match(op, c, op.arity, "extension")
    A = c.coeff
    o = A.order
    N = op.size
    k = op.arity
    M = N * o
    _charge_digits(M, k, f"an extension of a size {N} table by order {o}")
    if verify:
        _require(_degree2_check(c, op), "cochain is not a cocycle")
    base_idx, azs = _fiber_digits(N, o, k)
    res = A.residue_table()
    vals = res[azs[0]] + c.values[base_idx]
    out = op.table[base_idx] * o + A.index_array(vals)
    return OpTable(M, k, out,
                   meta={"construction": "abelian_extension",
                         "base_size": N, "coeff": list(A.factors)})


def extend_mutual_pair(op0: OpTable, op1: OpTable,
                       phi0: Cochain, phi1: Cochain,
                       verify: bool = True) -> Tuple[OpTable, OpTable]:
    """Extend both operations of a pair; the results stay mutually
    distributive exactly because the pair conditions hold."""
    if verify:
        _require(are_mutually_distributive_cocycles(phi0, phi1, op0, op1),
                 "cochains are not a cocycle pair")
    return (extend(op0, phi0, verify=False), extend(op1, phi1, verify=False))


# ---------------------------------------------------------------------------
# passages between arities and carriers

def _charge_passage(size: int, k: int, rank: int, what: str) -> None:
    """Charge what a passage to k-argument cochains on `size` points holds
    at once: the values it sums, their reduction into a Cochain, and its
    base table."""
    limits.charge_bytes(8 * (2 * rank + 1) * limits.power(size, k), what)


def ternary_cocycle_from_pair(phi0: Cochain, phi1: Cochain,
                              op0: OpTable, op1: OpTable,
                              verify: bool = True) -> Cochain:
    """psi(x, y, z) = phi0(x, y) + phi1(x *0 y, z), a ternary cocycle for the
    composite ternary operation of the pair."""
    N = op0.size
    A = _pair_shapes(phi0, phi1, op0, op1, 2)
    _charge_passage(N, 3, A.rank, "a ternary cocycle from a pair")
    if verify:
        _require(are_mutually_distributive_cocycles(phi0, phi1, op0, op1),
                 "cochains are not a cocycle pair")
    # row x * N + y of phi1's (N, N) view at x *0 y is phi1(x *0 y, z) over z
    vals = kernels.add_mod(phi1.values.reshape(N, N, A.rank)[op0.table],
                           phi0.values[:, None], A.factors)
    return Cochain(N, 3, A, vals.reshape(-1, A.rank),
                   base=f_functor(op0, op1, verify=False))


def binary_cocycle_from_ternary_pair(psi0: Cochain, psi1: Cochain,
                                     T0: OpTable, T1: OpTable,
                                     verify: bool = True) -> Cochain:
    """phi((x0,x1), (y0,y1)) = psi0(x0, y0, y1) + psi1(x1, y0, y1) on the
    square carrier, a binary cocycle for the pair-to-binary composite."""
    N = T0.size
    A = _pair_shapes(psi0, psi1, T0, T1, 3)
    _charge_passage(N * N, 2, A.rank, "a binary cocycle from a ternary pair")
    if verify:
        _require(are_compatible_ternary_cocycles(psi0, psi1, T0, T1),
                 "cochains are not a cocycle pair")
    # (x0, x1, (y0, y1)) in the order of the square carrier's pairs
    vals = kernels.add_mod(psi0.values.reshape(N, 1, N * N, A.rank),
                           psi1.values.reshape(1, N, N * N, A.rank), A.factors)
    return Cochain(N * N, 2, A, vals.reshape(-1, A.rank),
                   base=g_functor(T0, T1, verify=False))


def doubled_binary_cocycle(phi0: Cochain, phi1: Cochain,
                           op0: OpTable, op1: OpTable,
                           verify: bool = True) -> Cochain:
    """Cocycle for the doubled binary operation on the square carrier:
    phi0(x0,y0) + phi1(x0 *0 y0, y1) + phi0(x1,y0) + phi1(x1 *0 y0, y1).

    The round trip of the passages: the ternary cocycle of the pair, taken
    with itself through the binary passage.  That is how the doubling is
    proved to stay a cocycle, and its base is the round trip of the tables,
    equal to the binary doubling.
    """
    psi = ternary_cocycle_from_pair(phi0, phi1, op0, op1, verify=verify)
    return binary_cocycle_from_ternary_pair(psi, psi, psi.base, psi.base,
                                            verify=False)


def doubled_ternary_cocycle(psi0: Cochain, psi1: Cochain,
                            T0: OpTable, T1: OpTable,
                            verify: bool = True) -> Cochain:
    """Cocycle for the doubled ternary operation on the square carrier:
    psi0(x0,y) + psi1(x1,y) + psi0(T0(x0,y), z) + psi1(T1(x1,y), z).

    The round trip of the passages the other way: the binary cocycle of the
    pair, taken with itself through the ternary passage.  Its base is the
    round trip of the tables, equal to the ternary doubling.
    """
    phi = binary_cocycle_from_ternary_pair(psi0, psi1, T0, T1, verify=verify)
    return ternary_cocycle_from_pair(phi, phi, phi.base, phi.base,
                                     verify=False)


def power_cocycle(phi: Cochain, op: OpTable, n: int,
                  verify: bool = True) -> Cochain:
    """phi_n(x, y) = sum over i < n of phi(x *^i y, y), a cocycle for the
    n-th power operation when phi is one for the base."""
    _match(op, phi, 2, "power cocycle")
    if n < 0:
        raise InputError("power must be nonnegative")
    # n gathers of the N^2 pairs
    limits.charge_steps(n * op.size ** 2,
                        f"power cocycle {n} on a size {op.size} table")
    if verify:
        _require(is_binary_2cocycle(phi, op), "cochain is not a cocycle")
    N = op.size
    A = phi.coeff
    s = op.table.reshape(N, N)
    x, y = np.indices((N, N))
    cur = x
    total = np.zeros((N * N, A.rank), dtype=np.int64)
    for _ in range(n):
        total = kernels.add_mod(total, phi.values[(cur * N + y).ravel()], A.factors)
        cur = s[cur, y]
    return Cochain(N, 2, A, total, base=power_op(op, n, verify=False))


# ---------------------------------------------------------------------------
# short exact coefficient sequences and degree-3 cocycles

class SES:
    """Short exact sequence of finite abelian groups with a chosen section.

    sub --inclusion--> total --projection--> quotient, with a set-theoretic
    section of the projection fixing 0.  Maps are index arrays; construction
    validates homomorphism laws, injectivity, exactness, and the section.
    """

    __slots__ = ("sub", "total", "quotient", "inclusion", "projection",
                 "section")

    def __init__(self, sub, total, quotient, inclusion, projection, section):
        sub, total, quotient = (coeff_group(g) for g in (sub, total, quotient))
        _charge_ses(total.order)
        inc = integer_array(inclusion, "inclusion entries")
        proj = integer_array(projection, "projection entries")
        sec = integer_array(section, "section entries")
        if inc.shape != (sub.order,) or proj.shape != (total.order,) \
                or sec.shape != (quotient.order,):
            raise InputError("map tables have wrong lengths")
        if total.order != sub.order * quotient.order:
            raise InputError("total order must be |sub| * |quotient|")
        for what, arr, dst in (("inclusion", inc, total),
                               ("projection", proj, quotient),
                               ("section", sec, total)):
            if arr.size and (arr.min() < 0 or arr.max() >= dst.order):
                raise InputError(f"{what} entry outside 0..{dst.order - 1}")
        _check_hom(sub, total, inc, "inclusion")
        _check_hom(total, quotient, proj, "projection")
        if len(set(int(v) for v in inc)) != sub.order:
            raise InputError("inclusion is not injective")
        kernel = {i for i in range(total.order) if proj[i] == 0}
        if kernel != {int(v) for v in inc}:
            raise InputError("image of inclusion differs from kernel of projection")
        if any(proj[sec[a]] != a for a in range(quotient.order)):
            raise InputError("section does not split the projection")
        if sec[0] != 0:
            raise InputError("section must fix 0")
        for name, val in (("sub", sub), ("total", total),
                          ("quotient", quotient), ("inclusion", inc),
                          ("projection", proj), ("section", sec)):
            arr = val
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        raise AttributeError("SES is immutable")

    def as_json(self) -> dict:
        return {"sub": list(self.sub.factors),
                "total": list(self.total.factors),
                "quotient": list(self.quotient.factors),
                "inclusion": [int(v) for v in self.inclusion],
                "projection": [int(v) for v in self.projection],
                "section": [int(v) for v in self.section]}

    @staticmethod
    def from_json(obj: dict) -> "SES":
        try:
            return SES(obj["sub"], obj["total"], obj["quotient"],
                       obj["inclusion"], obj["projection"], obj["section"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"sequence JSON incomplete: {exc}")


def _charge_ses(order: int) -> None:
    """Charge the homomorphism checks of a sequence: one pass over the total
    group for each of its elements."""
    limits.charge_steps(order * order,
                        f"checking a sequence through a group of order {order}")


def _check_hom(src: AbGroup, dst: AbGroup, table, what: str):
    res = src.residue_table()
    img = dst.residue_table()[table]
    for i in range(src.order):
        summed = dst.reduce(img[i][None, :] + img)
        target = table[src.index_array(src.reduce(res[i][None, :] + res))]
        if not np.array_equal(dst.index_array(summed), target):
            raise InputError(f"{what} is not a homomorphism")


def cyclic_ses(sub_order: int, quotient_order: int) -> SES:
    """Z_h --times a--> Z_(h a) --mod a--> Z_a with the canonical lift."""
    h, a = int(sub_order), int(quotient_order)
    total = h * a
    _charge_ses(total)
    return SES((h,), (total,), (a,),
               [k * a for k in range(h)],
               [e % a for e in range(total)],
               list(range(a)))


def split_ses(sub_order: int, quotient_order: int) -> SES:
    """Z_h --> Z_h x Z_a --> Z_a with the additive section a -> (0, a)."""
    h, a = int(sub_order), int(quotient_order)
    _charge_ses(h * a)
    total = AbGroup((h, a))
    return SES((h,), total, (a,),
               [total.index((k, 0)) for k in range(h)],
               [total.residues(e)[1] for e in range(total.order)],
               [total.index((0, r)) for r in range(a)])


def three_cocycle_from_ses(phi: Cochain, op: OpTable, ses: SES,
                           verify: bool = True) -> Cochain:
    """Degree-3 cocycle measuring the failure of a section-lifted 2-cocycle.

    alpha(x1..x5) = s phi(x1,x2,x3) - s phi(T(x1,x4,x5),T(x2,x4,x5),T(x3,x4,x5))
    - s phi(x1,x4,x5) + s phi(T(x1,x2,x3),x4,x5), computed in the total group;
    the value always lands in the included subgroup and is returned there.
    """
    _match(op, phi, 3, "degree-3 construction")
    if phi.coeff != ses.quotient:
        raise InputError("cochain coefficients must equal the quotient group")
    N = op.size
    _charge_digits(N, 5, f"a degree-3 cocycle on a size {N} carrier")
    if verify:
        _require(is_ternary_2cocycle(phi, op), "cochain is not a cocycle")
    E = ses.total
    lift_res = E.residue_table()[ses.section]           # quotient idx -> E residues
    a_idx = ses.quotient.index_array(phi.values)        # per 3-tuple
    sphi = lift_res[a_idx]                              # (N^3, rankE)
    T = op.table
    x1, x2, x3, x4, x5 = kernels.digits(np.arange(N ** 5, dtype=np.int64), N, 5)

    def t(a, b, c):
        return T[(a * N + b) * N + c]

    i123 = (x1 * N + x2) * N + x3
    i145 = (x1 * N + x4) * N + x5
    acted = (t(x1, x4, x5) * N + t(x2, x4, x5)) * N + t(x3, x4, x5)
    last = (T[i123] * N + x4) * N + x5
    vals = E.reduce(sphi[i123] - sphi[acted] - sphi[i145] + sphi[last])
    # pull back through the inclusion
    inv = np.full(E.order, -1, dtype=np.int64)
    inv[ses.inclusion] = np.arange(ses.sub.order)
    e_idx = E.index_array(vals)
    h_idx = inv[e_idx]
    if (h_idx < 0).any():
        bad = int(np.flatnonzero(h_idx < 0)[0])
        raise RuntimeError(
            "internal error: degree-3 value escapes the included subgroup "
            f"at tuple {index_to_tuple(bad, N, 5)}")
    return Cochain(N, 5, ses.sub, ses.sub.residue_table()[h_idx], base=op)


# ---------------------------------------------------------------------------
# cohomology relations

def cocycles_cohomologous(c1: Cochain, c2: Cochain, op: OpTable):
    """Whether c1 - c2 is the coboundary of a function on the carrier.

    Returns (True, eta) with delta eta = c1 - c2, or (False, None).  Works
    for binary cochains over a binary operation and ternary cochains over a
    ternary operation.
    """
    _match(op, c1, op.arity, "cohomology comparison")
    _match(op, c2, op.arity, "cohomology comparison")
    A = _same_coeff(c1, c2)
    # delta is reduced once for every coefficient factor
    delta = Elimination(boundary_matrix(op, 2, verify=False).T)
    diff = A.reduce(c1.values.astype(np.int64) - c2.values)
    cols = []
    for fi, d in enumerate(A.factors):
        sol = delta.solve_mod(diff[:, fi], d)
        if sol is None:
            return False, None
        cols.append(sol % d)
    eta = Cochain(op.size, 1, A, np.stack(cols, axis=1))
    return True, eta


def _extract_cocycle(ext: OpTable, base: OpTable, A: AbGroup):
    """Recover the cochain of a standard-form extension table, or None.

    The caller has checked that ext has the size and arity of an extension."""
    o = A.order
    N = base.size
    k = base.arity
    _charge_digits(N * o, k, f"reading the cochain of an extension by order {o}")
    base_idx, azs = _fiber_digits(N, o, k)
    out = ext.table
    if not np.array_equal(out // o, base.table[base_idx]):
        return None
    res = A.residue_table()
    offs = A.reduce(res[out % o] - res[azs[0]])
    # the offset must depend only on the base tuple
    first = np.zeros((N ** k, A.rank), dtype=np.int64)
    zero_fiber = (azs == 0).all(axis=0)
    first[base_idx[zero_fiber]] = offs[zero_fiber]
    if not np.array_equal(offs, first[base_idx]):
        return None
    return Cochain(N, k, A, first, base=base)


def extension_equivalent(ext0: OpTable, ext1: OpTable, base: OpTable,
                         coeff) -> CheckResult:
    """Whether two abelian extensions of base by A are equivalent.

    An equivalence of extensions is an isomorphism over the base that
    commutes with the action of A, a map (x, a) -> (x, a + eta(x)).  It
    carries the extension by c0 to the extension by c1 exactly when
    c0 - c1 is the coboundary of eta, so the two are equivalent exactly when
    their cochains are cohomologous (Carter-Elhamdadi-Nikiforou-Saito, JKTR
    12, 2003).  Both tables must be in the standard form that `extend`
    builds, (x, a) * .. = (x * .., a + c(x, ..)); other tables are refused.
    """
    A = coeff_group(coeff)
    for ext in (ext0, ext1):
        if ext.size != base.size * A.order or ext.arity != base.arity:
            raise InputError(
                f"an extension of a size {base.size} arity {base.arity} table"
                f" by order {A.order} has size {base.size * A.order} and arity"
                f" {base.arity}, got size {ext.size} arity {ext.arity}")
    cochains = [_extract_cocycle(ext, base, A) for ext in (ext0, ext1)]
    for name, c in zip(("first", "second"), cochains):
        if c is None:
            raise InputError(
                f"the {name} table is not a standard-form extension of the base"
                f" by order {A.order}")
    if cocycles_cohomologous(*cochains, base)[0]:
        return CheckResult(True, detail="cochains cohomologous: a translation"
                           " (x, a) -> (x, a + eta(x)) carries one to the other")
    return CheckResult(False, detail="cochains not cohomologous")
