"""Self-distributive operations on finite-dimensional vector spaces.

Here the carrier is a tensor power of one base space instead of a finite set,
and an operation is a linear map.  A comonoid supplies the copying that tuples
give for free in the table modules, and the distributive law becomes an exact
identity between two composite maps out of the (2n-1)-th tensor power.

All arithmetic is exact: residues modulo a prime, or Fractions in
characteristic zero.  The basis of the k-th tensor power is ordered
lexicographically with the first factor most significant, matching the tuple
convention of the table modules, so basis-level comparisons against operation
tables are direct.

A map is stored as sparse columns: coordinate arrays (rows, cols, vals)
sorted column-major, with zeros dropped and duplicate entries summed, so a
group-algebra map costs its nonzeros rather than its dense size.  One
gather applies a map to a run of tensor factors of another map's target:
each row index is split into the digits before the run, the run (a column
of the applied map) and the digits after it, and pulls in that column.
Composition is its whole-target case, and the distributivity check applies
the operation to each group of a head and its tails' copies in turn.
Duplicate positions are summed by `kernels.keyed_sum`, the package's one
sum of keyed entries, which boundary assembly in `homology` shares: it
counts into an array where the positions are dense and sorts elsewhere.
A tensor product is the outer product of the two maps' entries, and a
permutation of tensor factors is arithmetic on the digits of basis
indices.  The dense matrix is a read-only view built on demand.

Every step is charged to the budgets of `limits` before it allocates: the
products of a gather or tensor product and the entries of any dense array
to BYTES.  The distributivity check is charged up front in STEPS with the
bound of the dense contraction it replaced, its term combinations times
block entries.  It then runs over blocks of tails, so that its gathers
stay small: about _BLOCK products each, or one tail's where that is more.
A map whose dense shape (rows times columns) does not fit int64 is
refused as well, since entries are keyed by their flat position, and so
is a field whose residue products (p-1)^2 do not fit int64; each product
is reduced mod p before any sum.  A failing identity between two maps
reports the first basis input in lexicographic order where they differ,
then its first differing row: their difference's first entry.
"""
from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import limits
from .kernels import digits, keyed_sum
from .constructions import PreconditionError, _require
from .optable import (CheckResult, Counterexample, FiniteGroup, InputError,
                      index_to_tuple, integer_array)

_INT64_MAX = int(np.iinfo(np.int64).max)
# Budget steps per multiply-add of Fractions: one takes about 5 us on a
# 2-core Xeon, where the whole step budget runs in about a second.
_FRACTION_STEPS = 40
# Products of the largest gather of one block of the distributivity check,
# as estimated before it runs: 2^16 of them hold about 6 MB of temporaries.
_BLOCK = 1 << 16


# Bytes a map built from its terms holds at its peak, a term: its keys and
# values, the sum's temporaries and the result.  Measured by VmHWM on a
# 2-core Xeon with numpy 2.4: a compose that counts its sums holds about 40,
# one that sorts them about 60, and a tensor product, which keeps every
# term, about 63.
_TERM_BYTES = 64


def _charge_terms(terms: int, what: str) -> None:
    """Charge building a map from `terms` products."""
    limits.charge_bytes(_TERM_BYTES * terms, what)


@functools.lru_cache(maxsize=256)
def _shape(dim: int, src_power: int, dst_power: int) -> tuple:
    # saturated, so a huge power is refused without being computed.  Kept
    # for the shapes last asked: every map built or applied asks again, so
    # a Hopf heap or adjoint job asks for its dozen or so shapes hundreds
    # of times.  A refusal is not kept, so it is raised again at every call.
    rows, cols = limits.power(dim, dst_power), limits.power(dim, src_power)
    if rows * cols > _INT64_MAX:
        raise InputError(
            f"refusing a power {src_power} -> {dst_power} map at dimension"
            f" {dim}: {dim}^{dst_power} x {dim}^{src_power} positions do not"
            " fit int64")
    return rows, cols


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _rational(x) -> Fraction:
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(x)
    raise InputError(f"matrix entries must be integers or fractions, got {x!r}")


class Field:
    """Exact scalars: residues modulo a prime, or rationals (characteristic 0)."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        c = int(characteristic)
        if c > 1 and (c - 1) ** 2 > _INT64_MAX:
            raise InputError(
                f"field characteristic {c} is too large: residue products"
                " (p-1)^2 must fit int64")
        if c != 0 and not _is_prime(c):
            raise InputError(f"field characteristic must be 0 or a prime, got {c}")
        object.__setattr__(self, "characteristic", c)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.characteristic == other.characteristic)

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return f"Field({self.characteristic})"

    def reduce(self, arr) -> np.ndarray:
        """Exact entries: int64 residues, or Fractions in characteristic 0.

        Floats and bools are refused rather than rounded, and so are integers
        beyond int64 and fractions in prime characteristic.
        """
        if self.characteristic:
            return integer_array(arr, "matrix entries") % self.characteristic
        src = np.asarray(arr, dtype=object)
        flat = [x if isinstance(x, Fraction) else _rational(x)
                for x in src.ravel()]
        out = np.empty(src.size, dtype=object)
        out[:] = flat
        return out.reshape(src.shape)

    def zeros(self, shape) -> np.ndarray:
        if self.characteristic:
            return np.zeros(shape, np.int64)
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out

    def scalars(self, vals) -> np.ndarray:
        """Trusted integer or Fraction values as field elements (1-D)."""
        if self.characteristic:
            return np.asarray(vals, np.int64) % self.characteristic
        vals = np.asarray(vals)
        if vals.dtype == object:
            return vals
        out = np.empty(vals.size, dtype=object)
        out[:] = [Fraction(int(v)) for v in vals]
        return out


class LinMap:
    """Linear map between tensor powers of one base dimension.

    The matrix is dst x src over the field; basis vectors of the k-th power
    are enumerated lexicographically, first factor most significant.  Maps
    are immutable after construction; `compose`/`@` applies the other map
    first, `tensor` stacks factors with self most significant.  The entries
    live in `rows`, `cols` and `vals`, sorted column-major; `matrix` is the
    dense view.
    """

    __slots__ = ("field", "dim", "src_power", "dst_power", "rows", "cols",
                 "vals", "_dense")

    def __init__(self, field: Field, dim: int, src_power: int, dst_power: int,
                 matrix):
        if not isinstance(field, Field):
            raise InputError("field must be a Field instance")
        dim, src_power, dst_power = int(dim), int(src_power), int(dst_power)
        if dim < 0:
            raise InputError(f"dimension must be nonnegative, got {dim}")
        if src_power < 0 or dst_power < 0:
            raise InputError("tensor powers must be nonnegative")
        want = _shape(dim, src_power, dst_power)
        mat = field.reduce(matrix)
        if mat.shape != want:
            raise InputError(
                f"matrix shape {mat.shape} != {want} for a power"
                f" {src_power} -> {dst_power} map at dimension {dim}")
        cols, rows = np.nonzero(mat.T)
        mat.setflags(write=False)
        self._fill(field, dim, src_power, dst_power, rows, cols,
                   mat.T[cols, rows], mat)

    def _fill(self, field, dim, src_power, dst_power, rows, cols, vals,
              dense):
        for arr in (rows, cols, vals):
            arr.setflags(write=False)
        for name, value in zip(LinMap.__slots__,
                               (field, dim, src_power, dst_power, rows, cols,
                                vals, dense)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_entries(cls, field: Field, dim: int, src_power: int,
                      dst_power: int, rows, cols, vals) -> "LinMap":
        """Map from coordinate entries in any order; duplicates are summed."""
        nrows = _shape(dim, src_power, dst_power)[0]
        key = np.asarray(cols, np.int64) * nrows + np.asarray(rows, np.int64)
        return cls._from_keys(field, dim, src_power, dst_power, key, vals)

    @classmethod
    def _from_keys(cls, field: Field, dim: int, src_power: int,
                   dst_power: int, key: np.ndarray, vals) -> "LinMap":
        """Map from entries keyed column * rows + row; duplicates are summed."""
        nrows = _shape(dim, src_power, dst_power)[0]
        terms = key.size
        key, vals = keyed_sum(key, field.scalars(vals))
        if field.characteristic and key.size < terms:
            # sums of residues, some of which reduce to zero
            vals = field.scalars(vals)
            keep = vals != 0
            if not keep.all():
                key, vals = key[keep], vals[keep]
        cols, rows = np.divmod(key, nrows)
        out = object.__new__(cls)
        out._fill(field, dim, src_power, dst_power, rows, cols, vals, None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LinMap is immutable")

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only view, built on first use."""
        if self._dense is None:
            shape = _shape(self.dim, self.src_power, self.dst_power)
            limits.charge_bytes(8 * shape[0] * shape[1], "a dense matrix")
            mat = self.field.zeros(shape)
            mat[self.rows, self.cols] = self.vals
            mat.setflags(write=False)
            object.__setattr__(self, "_dense", mat)
        return self._dense

    def entry(self, row: int, col: int):
        """One coefficient: an int over F_p, a Fraction over Q."""
        nrows, ncols = _shape(self.dim, self.src_power, self.dst_power)
        if not (0 <= row < nrows and 0 <= col < ncols):
            raise InputError(f"entry ({row}, {col}) is outside a {nrows} x"
                             f" {ncols} map")
        hit = self.vals[(self.cols == col) & (self.rows == row)]
        v = hit[0] if hit.size else self.field.scalars([0])[0]
        return int(v) if self.field.characteristic else v

    def _same_space(self, other, what: str):
        if not isinstance(other, LinMap):
            raise InputError(f"can only {what} another LinMap")
        if self.field != other.field or self.dim != other.dim:
            raise InputError(f"{what} needs matching field and dimension")

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.field == other.field
                and self.dim == other.dim
                and self.src_power == other.src_power
                and self.dst_power == other.dst_power
                and bool(np.array_equal(self.rows, other.rows))
                and bool(np.array_equal(self.cols, other.cols))
                and bool(np.array_equal(self.vals, other.vals)))

    def __repr__(self):
        return (f"LinMap(dim={self.dim}, {self.src_power}->{self.dst_power},"
                f" field={self.field.characteristic})")

    def __add__(self, other: "LinMap") -> "LinMap":
        self._same_space(other, "add")
        if (self.src_power, self.dst_power) != (other.src_power,
                                                other.dst_power):
            raise InputError("sum needs maps between the same powers")
        cat = np.concatenate
        return LinMap._from_entries(
            self.field, self.dim, self.src_power, self.dst_power,
            cat((self.rows, other.rows)), cat((self.cols, other.cols)),
            cat((self.vals, other.vals)))

    def __neg__(self) -> "LinMap":
        return LinMap._from_entries(self.field, self.dim, self.src_power,
                                    self.dst_power, self.rows, self.cols,
                                    -self.vals)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other: self applied to the whole target of other."""
        self._same_space(other, "compose with")
        if other.dst_power != self.src_power:
            raise InputError(
                f"composition power mismatch: need {self.src_power},"
                f" got {other.dst_power}")
        return _act(other, self, 0)

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "LinMap") -> "LinMap":
        self._same_space(other, "tensor with")
        src, dst = (self.src_power + other.src_power,
                    self.dst_power + other.dst_power)
        nrows = _shape(self.dim, src, dst)[0]
        _charge_terms(self.nnz * other.nnz, "a tensor product")
        orows, ocols = _shape(other.dim, other.src_power, other.dst_power)
        # the key (c * ocols + oc) * nrows + r * orows + o splits into a term
        # of each map's entry
        key = ((self.cols * ocols * nrows + self.rows * orows)[:, None]
               + (other.cols * nrows + other.rows)).ravel()
        return LinMap._from_keys(self.field, self.dim, src, dst, key,
                                 (self.vals[:, None] * other.vals).ravel())

    @staticmethod
    def identity(field: Field, dim: int, power: int = 1) -> "LinMap":
        return _identity_columns(field, dim, power, 0,
                                 _shape(dim, power, power)[0])

    def as_json(self) -> dict:
        if self.field.characteristic:
            rows = self.matrix.tolist()
        else:
            rows = [[str(v) for v in row] for row in self.matrix]
        return {"field": self.field.characteristic, "dim": self.dim,
                "src_power": self.src_power, "dst_power": self.dst_power,
                "matrix": rows}

    @staticmethod
    def from_json(obj: dict) -> "LinMap":
        try:
            field = Field(obj["field"])
            # a nested list, so integer entries keep an integer dtype
            mat = [[Fraction(v) if isinstance(v, str) else v for v in row]
                   for row in obj["matrix"]]
            return LinMap(field, obj["dim"], obj["src_power"],
                          obj["dst_power"], mat)
        except (KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise InputError(f"bad linear map JSON: {exc}")


def _act(m: LinMap, w: LinMap, first: int, gap: int = 0) -> LinMap:
    """w applied to the target factors first .. first + w.src_power - 1 of m,
    or with a gap, w's last input `gap` factors further on.

    Each row of m is read as (high digits, a column of w, low digits) and
    pulls in that column of w, scaled: the new rows keep the high and low
    digits around w's rows, which take the place of w's first input.  The
    products are then summed by position.
    """
    d = m.dim
    out_power = m.dst_power - w.src_power + w.dst_power
    low = d ** (m.dst_power - first - w.src_power - gap)
    ncols = d ** w.src_power
    high, rest = np.divmod(m.rows, ncols * d ** gap * low)
    if gap:
        # w's leading inputs, the gap, w's last input, the low digits
        lead, rest = np.divmod(rest, d ** (gap + 1) * low)
        mid, rest = np.divmod(rest, d * low)
        col, lo = np.divmod(rest, low)
        col += lead * d
        lo += mid * low
        low *= d ** gap
    else:
        col, lo = np.divmod(rest, low)
    # each entry's output key, less the term of w's row
    base = (m.cols * _shape(d, m.src_power, out_power)[0]
            + high * d ** w.dst_power * low + lo)
    w_rows = w.rows * low
    # residue products fit int64; the sums reduce them
    if w.nnz == ncols and (w.cols[1:] > w.cols[:-1]).all():
        # one term per column: the column index is the entry index
        _charge_terms(m.nnz, "a composition")
        return LinMap._from_keys(m.field, d, m.src_power, out_power,
                                 base + w_rows[col], m.vals * w.vals[col])
    # where each entry's column of w starts, and its term count
    start = np.searchsorted(w.cols, col, "left")
    counts = np.searchsorted(w.cols, col, "right") - start
    total = int(counts.sum())
    _charge_terms(total, "a composition")
    take = (np.arange(total)
            + np.repeat(start - (np.cumsum(counts) - counts), counts))
    return LinMap._from_keys(m.field, d, m.src_power, out_power,
                             np.repeat(base, counts) + w_rows[take],
                             np.repeat(m.vals, counts) * w.vals[take])


def _permute_rows(m: LinMap, target_from_source) -> LinMap:
    """Left-compose a tensor-factor permutation by rewriting row digits:
    target slot i reads source slot target_from_source[i]."""
    d, power = m.dim, m.dst_power
    limits.charge_bytes(8 * m.nnz * power,
                        f"permuting {power} tensor factors of {m.nnz} terms")
    factors = digits(m.rows, d, power)          # first factor first
    rows = np.zeros_like(m.rows)
    for source in target_from_source:
        rows = rows * d + factors[source]
    return LinMap._from_entries(m.field, d, m.src_power, power, rows, m.cols,
                                m.vals)


def _identity_columns(field: Field, dim: int, power: int, lo: int,
                      hi: int) -> LinMap:
    """The identity on the basis vectors lo .. hi - 1 of a tensor power."""
    diag = np.arange(lo, hi, dtype=np.int64)
    _charge_terms(diag.size, "an identity map")
    return LinMap._from_entries(field, dim, power, power, diag, diag,
                                np.ones(diag.size, np.int64))


def _perm_map(field: Field, dim: int, power: int, target_from_source) -> LinMap:
    """Permutation of tensor factors; target slot i reads source slot
    target_from_source[i]."""
    return _permute_rows(LinMap.identity(field, dim, power), target_from_source)


def _mismatch(lhs: LinMap, rhs: LinMap, detail: str) -> CheckResult:
    """Failure at the first basis input where two maps differ, and at its
    first differing row: the difference's first entry, column-major."""
    diff = lhs + (-rhs)
    r, c = int(diff.rows[0]), int(diff.cols[0])
    witness = (r, index_to_tuple(c, lhs.dim, lhs.src_power))
    return CheckResult(False, Counterexample(witness, lhs.entry(r, c),
                                             rhs.entry(r, c)), detail)


# ---------------------------------------------------------------------------
# comonoids and self-distributive objects
# ---------------------------------------------------------------------------

class ComonoidObject:
    """A coassociative counital comultiplication, validated on construction."""

    __slots__ = ("field", "dim", "delta", "counit")

    def __init__(self, dim: int, delta: LinMap, counit: LinMap):
        if not isinstance(delta, LinMap) or not isinstance(counit, LinMap):
            raise InputError("delta and counit must be LinMaps")
        dim = int(dim)
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        if delta.dim != dim or counit.dim != dim or delta.field != counit.field:
            raise InputError("delta/counit dimension or field mismatch")
        if (delta.src_power, delta.dst_power) != (1, 2):
            raise InputError("delta must map power 1 to power 2")
        if (counit.src_power, counit.dst_power) != (1, 0):
            raise InputError("counit must map power 1 to power 0")
        if _act(delta, delta, 0) != _act(delta, delta, 1):
            raise InputError("comultiplication is not coassociative")
        ident = LinMap.identity(delta.field, dim)
        if _act(delta, counit, 0) != ident or _act(delta, counit, 1) != ident:
            raise InputError("counit laws fail for the given comultiplication")
        object.__setattr__(self, "field", delta.field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "counit", counit)

    def __setattr__(self, name, value):
        raise AttributeError("ComonoidObject is immutable")

    def __eq__(self, other):
        return (isinstance(other, ComonoidObject) and self.dim == other.dim
                and self.delta == other.delta and self.counit == other.counit)

    def delta_n(self, n: int) -> LinMap:
        """Iterated comultiplication into the n-th tensor power."""
        if n < 0:
            raise InputError(f"tensor power must be nonnegative, got {n}")
        if n == 0:
            return self.counit
        out = LinMap.identity(self.field, self.dim)
        for _ in range(n - 1):
            out = _act(out, self.delta, 0)     # copy the first factor
        return out

    def as_json(self) -> dict:
        return {"dim": self.dim, "delta": self.delta.as_json(),
                "counit": self.counit.as_json()}

    @staticmethod
    def from_json(obj: dict) -> "ComonoidObject":
        try:
            return ComonoidObject(obj["dim"], LinMap.from_json(obj["delta"]),
                                  LinMap.from_json(obj["counit"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad comonoid JSON: {exc}")


class SDObject:
    """A comonoid with an n-ary operation; the distributive law is verified
    as an exact matrix identity on construction unless verify=False.

    The object is immutable, so a verdict found at construction holds for
    good: the object keeps it, and `check_nary_sd` returns it without
    computing the law again.  An object built with verify=False keeps
    nothing, and each `check_nary_sd` on it computes the law.
    """

    __slots__ = ("comonoid", "arity", "w", "_verdict")

    def __init__(self, comonoid: ComonoidObject, arity: int, w: LinMap,
                 verify: bool = True):
        if not isinstance(comonoid, ComonoidObject):
            raise InputError("comonoid must be a ComonoidObject")
        arity = int(arity)
        if arity < 2:
            raise InputError(f"arity must be at least 2, got {arity}")
        if (not isinstance(w, LinMap) or w.dim != comonoid.dim
                or w.field != comonoid.field):
            raise InputError("operation map must live on the comonoid carrier")
        if (w.src_power, w.dst_power) != (arity, 1):
            raise InputError(f"operation must map power {arity} to power 1")
        object.__setattr__(self, "comonoid", comonoid)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "_verdict", None)
        if verify:
            verdict = check_nary_sd(self)
            _require(verdict, "operation is not self-distributive")
            object.__setattr__(self, "_verdict", verdict)

    def __setattr__(self, name, value):
        raise AttributeError("SDObject is immutable")

    def __eq__(self, other):
        return (isinstance(other, SDObject) and self.arity == other.arity
                and self.comonoid == other.comonoid and self.w == other.w)

    def as_json(self) -> dict:
        return {"arity": self.arity, "comonoid": self.comonoid.as_json(),
                "w": self.w.as_json()}

    @staticmethod
    def from_json(obj: dict, verify: bool = True) -> "SDObject":
        try:
            return SDObject(ComonoidObject.from_json(obj["comonoid"]),
                            obj["arity"], LinMap.from_json(obj["w"]),
                            verify=verify)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad SD object JSON: {exc}")


def check_nary_sd(obj: SDObject) -> CheckResult:
    """Exact comparison of the two sides of the distributive law.

    Left side: W (W x 1^(n-1)), the operation on the heads, then once more
    with the tails.  Right side, one group at a time: the group's head
    joins, each remaining tail is copied once with the comultiplication,
    and the operation reads the head and the first copies; the last group
    takes the remaining tails whole, and the operation is applied once more
    to the n results.  No map has more than 3n-3 target factors (2n-1 for
    n = 2), and no head waits as an identity factor while an earlier group
    is computed.  Both sides are sparse maps out of the (2n-1)-th power,
    computed over blocks of tails; a failure reports the least failing
    basis input over all blocks, then its first differing row.  The
    up-front STEPS charge is the bound of the dense contraction this
    replaced, so every input that one refused is still refused before any
    work; each map built is charged to BYTES as it is built.

    An object verified at construction answers with the verdict it kept
    then, computing nothing; on one built with verify=False the law is
    computed at every call.
    """
    if obj._verdict is not None:
        return obj._verdict
    com, n, w = obj.comonoid, obj.arity, obj.w
    d, field = com.dim, com.field
    p = field.characteristic
    delta = com.delta_n(n)
    # the dense contraction's term combinations, each a d x d^n block at
    # about a step an entry over F_p, or n d^(n+2) Fraction products over Q
    combos = delta.nnz ** (n - 1)
    limits.charge_steps(
        combos * d ** (n + 1) if p else combos * n * d ** (n + 2) * _FRACTION_STEPS,
        "a distributivity check over comultiplication term combinations")
    # Both sides read their inputs as (tails, heads), so that each group's
    # head joins as the least significant factor when the group is formed.
    # w_last is the operation reading (copies, head); split copies every
    # tail once, first copies before second ones.  Where it is small, outer
    # applies the last group's operation and then the outer one in a single
    # gather.
    ident = LinMap.identity(field, d)
    w_last = w @ _perm_map(field, d, n, [n - 1, *range(n - 1)])
    split = com.delta
    for _ in range(n - 2):
        split = split.tensor(com.delta)
    split = _permute_rows(split, [*range(0, 2 * n - 2, 2),
                                  *range(1, 2 * n - 2, 2)])
    outer = None
    if d ** (n - 1) * w.nnz <= _BLOCK:
        outer = w @ LinMap.identity(field, d, n - 1).tensor(w_last)
    # blocks of whole tails, each with about _BLOCK products in its last
    # gather if nothing cancels: the heads and copies of the expanded right
    # side, times the terms of a column of w for each of the last two
    # operations
    tails = d ** (n - 1)
    terms = int(np.bincount(w.cols).max()) if w.nnz else 1
    per = -(-tails * _BLOCK // (combos * d ** n * terms ** 2))
    found = None
    for t in range(0, tails, per):
        end = min(t + per, tails)
        # left: the operation on the heads, then on (tails, result)
        lhs = _identity_columns(field, d, 2 * n - 1, t * d ** n, end * d ** n)
        lhs = _act(_act(lhs, w, n - 1), w_last, 0)
        # right: before group j, (r_0 .. r_(j-1), remaining tails) out of
        # (tails, x_0 .. x_(j-1)); the head x_j joins, the tails are copied
        # and the operation reads x_j and the first copies
        rhs = _identity_columns(field, d, n - 1, t, end)
        for j in range(n - 1):
            rhs = _act(_act(rhs.tensor(ident), split, j), w_last, j, n - 1)
        rhs = rhs.tensor(ident)
        rhs = (_act(_act(rhs, w_last, n - 1), w, 0) if outer is None
               else outer @ rhs)
        if lhs != rhs:
            # the first differing entry, column-major in the usual (heads,
            # tails) order of the inputs
            diff = lhs + (-rhs)
            tail, head = np.divmod(diff.cols, d ** n)
            key = int(((head * tails + tail) * d + diff.rows).min())
            if found is None or key < found[0]:
                c, r = divmod(key, d)
                head, tail = divmod(c, tails)
                c_here = tail * d ** n + head
                found = key, CheckResult(False, Counterexample(
                    (r, index_to_tuple(c, d, 2 * n - 1)), lhs.entry(r, c_here),
                    rhs.entry(r, c_here)),
                    "self-distributivity fails on a basis input")
    return CheckResult(True) if found is None else found[1]


def switching_lemmas_check(obj: SDObject) -> CheckResult:
    """Naturality of the factor swap against copying and against the
    operation.  Both identities hold in any symmetric setting, so a failure
    flags an index-convention bug rather than bad data."""
    if obj.arity != 2:
        raise InputError("switching lemmas are stated for binary objects")
    com = obj.comonoid
    field, d = com.field, com.dim
    ident = LinMap.identity(field, d)
    tau = _perm_map(field, d, 2, [1, 0])
    over = _perm_map(field, d, 3, [1, 2, 0])    # x,y1,y2 -> y1,y2,x
    under = _perm_map(field, d, 3, [2, 0, 1])   # x1,x2,y -> y,x1,x2
    left = com.delta.tensor(ident) @ tau
    right = over @ ident.tensor(com.delta)
    if left != right:
        return _mismatch(left, right, "swap does not commute with copying")
    left = tau @ obj.w.tensor(ident)
    right = ident.tensor(obj.w) @ under
    if left != right:
        return _mismatch(left, right,
                         "swap does not commute with the operation")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Lie-algebra carriers
# ---------------------------------------------------------------------------

class LieAlgebraObject:
    """A bracket validated for alternation, antisymmetry and Jacobi."""

    __slots__ = ("field", "dim", "bracket")

    def __init__(self, dim: int, bracket: LinMap):
        if not isinstance(bracket, LinMap):
            raise InputError("bracket must be a LinMap")
        dim = int(dim)
        if dim < 0:
            raise InputError(f"dimension must be nonnegative, got {dim}")
        if bracket.dim != dim:
            raise InputError("bracket dimension mismatch")
        if (bracket.src_power, bracket.dst_power) != (2, 1):
            raise InputError("bracket must map power 2 to power 1")
        field = bracket.field
        # columns i*dim + i hold the brackets of basis vectors with themselves
        if np.any(bracket.cols % (dim + 1) == 0):
            raise InputError("bracket of a basis vector with itself"
                             " is nonzero")
        if dim:
            tau = _perm_map(field, dim, 2, [1, 0])
            if (bracket + bracket @ tau).nnz:
                raise InputError("bracket is not antisymmetric")
            ident = LinMap.identity(field, dim)
            jac1 = bracket @ bracket.tensor(ident)
            rho = _perm_map(field, dim, 3, [1, 2, 0])
            if (jac1 + jac1 @ rho + jac1 @ rho @ rho).nnz:
                raise InputError("bracket fails the Jacobi identity")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bracket", bracket)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebraObject is immutable")

    def as_json(self) -> dict:
        return {"dim": self.dim, "bracket": self.bracket.as_json()}

    @staticmethod
    def from_json(obj: dict) -> "LieAlgebraObject":
        try:
            return LieAlgebraObject(obj["dim"],
                                    LinMap.from_json(obj["bracket"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad Lie algebra JSON: {exc}")


def lie_to_binary_sd(L: LieAlgebraObject) -> SDObject:
    """Binary object on ground-field-plus-carrier: the unit line is
    grouplike, the carrier primitive, and
    (a, x), (b, y) -> (ab, bx + [x, y])."""
    field, B = L.bracket.field, L.bracket
    dl = L.dim
    d = 1 + dl
    carrier = np.arange(1, d)
    # the unit column, the x-only columns, then [x, y] into the carrier
    q = LinMap._from_entries(
        field, d, 2, 1, np.concatenate(([0], carrier, B.rows + 1)),
        np.concatenate(([0], carrier * d,
                        (B.cols // dl + 1) * d + B.cols % dl + 1)),
        np.concatenate((field.scalars(np.ones(d, np.int64)), B.vals)))
    # the unit line grouplike, the carrier primitive
    delta = LinMap._from_entries(
        field, d, 1, 2, np.concatenate(([0], carrier * d, carrier)),
        np.concatenate(([0], carrier, carrier)), np.ones(2 * d - 1, np.int64))
    counit = LinMap._from_entries(field, d, 1, 0, [0], [0], [1])
    return SDObject(ComonoidObject(d, delta, counit), 2, q)


def categorical_double(obj: SDObject) -> SDObject:
    """Ternary object from a binary one: operate on the first two inputs,
    then on the result and the third."""
    if obj.arity != 2:
        raise InputError(
            f"doubling needs a binary object, got arity {obj.arity}")
    ident = LinMap.identity(obj.comonoid.field, obj.comonoid.dim)
    return SDObject(obj.comonoid, 3, obj.w @ obj.w.tensor(ident))


# ---------------------------------------------------------------------------
# Hopf-algebra carriers
# ---------------------------------------------------------------------------

class HopfAlgebraObject:
    """Unit, multiplication, comultiplication, counit and antipode, with
    every axiom checked as an exact matrix identity on construction."""

    __slots__ = ("field", "dim", "unit", "mult", "delta", "counit", "antipode",
                 "_comonoid")

    def __init__(self, dim: int, unit: LinMap, mult: LinMap, delta: LinMap,
                 counit: LinMap, antipode: LinMap):
        dim = int(dim)
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        shapes = {"unit": (unit, 0, 1), "mult": (mult, 2, 1),
                  "delta": (delta, 1, 2), "counit": (counit, 1, 0),
                  "antipode": (antipode, 1, 1)}
        field = mult.field if isinstance(mult, LinMap) else None
        for name, (m, sp, dp) in shapes.items():
            if not isinstance(m, LinMap):
                raise InputError(f"{name} must be a LinMap")
            if m.dim != dim or m.field != field:
                raise InputError(f"{name} has mismatched dimension or field")
            if (m.src_power, m.dst_power) != (sp, dp):
                raise InputError(f"{name} must map power {sp} to power {dp}")
        ident = LinMap.identity(field, dim)
        if mult @ mult.tensor(ident) != mult @ ident.tensor(mult):
            raise InputError("multiplication is not associative")
        if mult @ unit.tensor(ident) != ident or mult @ ident.tensor(unit) != ident:
            raise InputError("unit laws fail")
        comonoid = ComonoidObject(dim, delta, counit)
        # compatibility through the four-factor middle swap
        swapped = _permute_rows(delta.tensor(delta), [0, 2, 1, 3])
        if delta @ mult != mult.tensor(mult) @ swapped:
            raise InputError("comultiplication is not an algebra morphism")
        if counit @ mult != counit.tensor(counit):
            raise InputError("counit is not an algebra morphism")
        if delta @ unit != unit.tensor(unit):
            raise InputError("the unit is not grouplike")
        if counit @ unit != LinMap.identity(field, dim, 0):
            raise InputError("counit of the unit is not 1")
        ue = unit @ counit
        if (mult @ antipode.tensor(ident) @ delta != ue
                or mult @ ident.tensor(antipode) @ delta != ue):
            raise InputError("antipode axiom fails")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "counit", counit)
        object.__setattr__(self, "antipode", antipode)
        object.__setattr__(self, "_comonoid", comonoid)

    def __setattr__(self, name, value):
        raise AttributeError("HopfAlgebraObject is immutable")

    def comonoid(self) -> ComonoidObject:
        """The comonoid of delta and counit, validated once on construction."""
        return self._comonoid

    def as_json(self) -> dict:
        return {"dim": self.dim,
                **{n: getattr(self, n).as_json()
                   for n in ("unit", "mult", "delta", "counit", "antipode")}}

    @staticmethod
    def from_json(obj: dict) -> "HopfAlgebraObject":
        try:
            return HopfAlgebraObject(
                obj["dim"], *(LinMap.from_json(obj[n])
                              for n in ("unit", "mult", "delta", "counit",
                                        "antipode")))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad Hopf algebra JSON: {exc}")


def group_algebra_hopf(g: FiniteGroup, field: Field) -> HopfAlgebraObject:
    """Group algebra with grouplike basis: products from the Cayley table,
    comultiplication duplicating, antipode from group inversion."""
    d = g.size
    every = np.arange(d)

    def basis_map(src, dst, rows, cols):
        return LinMap._from_entries(field, d, src, dst, rows, cols,
                                    np.ones(len(cols), np.int64))
    return HopfAlgebraObject(
        d, basis_map(0, 1, [g.identity], [0]),
        basis_map(2, 1, g.cayley, np.arange(d * d)),
        basis_map(1, 2, every * (d + 1), every),
        basis_map(1, 0, np.zeros(d, np.int64), every),
        basis_map(1, 1, g.inverse, every))


def hopf_heap(H: HopfAlgebraObject) -> SDObject:
    """Ternary operation multiplying the first input, the antipode of the
    second and the third, as a validated SD object."""
    ident = LinMap.identity(H.field, H.dim)
    w = (H.mult @ H.mult.tensor(ident)
         @ ident.tensor(H.antipode).tensor(ident))
    return SDObject(H.comonoid(), 3, w)


def hopf_adjoint_ternary(H: HopfAlgebraObject) -> SDObject:
    """Iterated-conjugation analogue: the two tail inputs are copied, the
    antipodes of their first copies multiply in from the left and the second
    copies from the right.

    The copies are reordered by rewriting row digits of the copying map,
    so no permutation on the fifth tensor power is built.
    """
    d, field = H.dim, H.field
    ident = LinMap.identity(field, d)
    spread = ident.tensor(H.delta).tensor(H.delta)   # x,y1,y2,z1,z2
    spread = _permute_rows(spread, [3, 1, 0, 2, 4])  # z1,y1,x,y2,z2
    anti = H.antipode.tensor(H.antipode).tensor(LinMap.identity(field, d, 3))
    m_fold = H.mult
    for _ in range(3):
        m_fold = H.mult @ m_fold.tensor(ident)       # left-to-right products
    return SDObject(H.comonoid(), 3, m_fold @ anti @ spread)


# ---------------------------------------------------------------------------
# augmented operations
# ---------------------------------------------------------------------------

def _augmented_shapes(p_map: LinMap, H: HopfAlgebraObject, X: ComonoidObject,
                      action: LinMap):
    # one base dimension for every map, so the carrier and the algebra must
    # agree in dimension and field
    if X.dim != H.dim or X.field != H.field:
        raise InputError(
            "carrier and algebra must share dimension and field")
    for name, m in (("p", p_map), ("action", action)):
        if not isinstance(m, LinMap) or m.dim != X.dim or m.field != X.field:
            raise InputError(f"{name} has mismatched dimension or field")
        if (m.src_power, m.dst_power) != (2, 1):
            raise InputError(f"{name} must map power 2 to power 1")


def augmented_operation(p_map: LinMap, H: HopfAlgebraObject,
                        X: ComonoidObject, action: LinMap,
                        verify: bool = True) -> SDObject:
    """Ternary operation acting on the head by the pairing of the two tails."""
    _augmented_shapes(p_map, H, X, action)
    ident = LinMap.identity(X.field, X.dim)
    return SDObject(X, 3, action @ ident.tensor(p_map), verify=verify)


def check_augmented_hopf(p_map: LinMap, H: HopfAlgebraObject,
                         X: ComonoidObject, action: LinMap) -> CheckResult:
    """Axiom for an algebra-valued pairing: translating both inputs of the
    pairing by a copied algebra element equals conjugating its output.

    An invalid module action or a pairing that is not a coalgebra morphism
    raises PreconditionError; an axiom failure is a falsy result.  When the
    axiom holds, the derived ternary operation is also confirmed
    self-distributive.
    """
    _augmented_shapes(p_map, H, X, action)
    field, d = X.field, X.dim
    ident = LinMap.identity(field, d)
    if action @ action.tensor(ident) != action @ ident.tensor(H.mult):
        raise PreconditionError("action is not a right module structure")
    if action @ ident.tensor(H.unit) != ident:
        raise PreconditionError("action does not fix the unit")
    # coalgebra morphism: copy then pair twice, through the middle swap
    paired = p_map.tensor(p_map) @ _permute_rows(X.delta.tensor(X.delta),
                                                 [0, 2, 1, 3])
    if (H.delta @ p_map != paired
            or H.counit @ p_map != X.counit.tensor(X.counit)):
        raise PreconditionError("p is not a coalgebra morphism")
    copy_last = ident.tensor(ident).tensor(H.delta)   # 3 -> 4
    left = (p_map @ action.tensor(action)
            @ _permute_rows(copy_last, [0, 2, 1, 3]))
    head = H.mult @ H.mult.tensor(ident) @ H.antipode.tensor(p_map).tensor(ident)
    # y0,y1,g1,g2 -> g1,y0,y1,g2 moves the first copy in front
    right = head @ _permute_rows(copy_last, [2, 0, 1, 3])
    if left != right:
        return _mismatch(left, right, "augmentation axiom fails")
    inner = check_nary_sd(augmented_operation(p_map, H, X, action,
                                              verify=False))
    if not inner:
        return CheckResult(False, inner.counterexample,
                           "derived ternary operation is not self-distributive")
    return CheckResult(True)
