"""Self-distributive operations on finite-dimensional vector spaces.

Here the carrier is a tensor power of one base space instead of a finite set,
and an operation is a matrix.  A comonoid supplies the copying that tuples
give for free in the table modules, and the distributive law becomes an exact
identity between two composite matrices out of the (2n-1)-th tensor power.

All arithmetic is exact: residues modulo a prime, or Fractions in
characteristic zero.  The basis of the k-th tensor power is ordered
lexicographically with the first factor most significant, matching the tuple
convention of the table modules, so basis-level comparisons against operation
tables are direct.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .constructions import PreconditionError, _require
from .optable import (CheckResult, Counterexample, FiniteGroup, InputError,
                      integer_array)

# dense-matrix guardrails: the distributivity check builds d^(2n-1) columns,
# the explicit regrouping permutation d^(n^2) rows, Hopf validation d^6
# entries and the augmented-axiom check d^7
MAX_SD_COLUMNS = 1_000_000
MAX_SD_TERMS = 2_000_000
MAX_PERM_ROWS = 5_000
MAX_HOPF_ENTRIES = 200_000_000
MAX_AUGMENTED_ENTRIES = 100_000_000


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


class LinMap:
    """Linear map between tensor powers of one base dimension.

    The matrix is dst x src over the field; basis vectors of the k-th power
    are enumerated lexicographically, first factor most significant.  Maps
    are immutable after construction; `compose`/`@` applies the other map
    first, `tensor` stacks factors with self most significant.
    """

    __slots__ = ("field", "dim", "src_power", "dst_power", "matrix")

    def __init__(self, field: Field, dim: int, src_power: int, dst_power: int,
                 matrix):
        if not isinstance(field, Field):
            raise InputError("field must be a Field instance")
        dim, src_power, dst_power = int(dim), int(src_power), int(dst_power)
        if dim < 0:
            raise InputError(f"dimension must be nonnegative, got {dim}")
        if src_power < 0 or dst_power < 0:
            raise InputError("tensor powers must be nonnegative")
        mat = field.reduce(matrix)
        want = (dim ** dst_power, dim ** src_power)
        if mat.shape != want:
            raise InputError(
                f"matrix shape {mat.shape} != {want} for a power"
                f" {src_power} -> {dst_power} map at dimension {dim}")
        mat.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "src_power", src_power)
        object.__setattr__(self, "dst_power", dst_power)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("LinMap is immutable")

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.field == other.field
                and self.dim == other.dim
                and self.src_power == other.src_power
                and self.dst_power == other.dst_power
                and bool(np.array_equal(self.matrix, other.matrix)))

    def __repr__(self):
        return (f"LinMap(dim={self.dim}, {self.src_power}->{self.dst_power},"
                f" field={self.field.characteristic})")

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if not isinstance(other, LinMap):
            raise InputError("can only compose with another LinMap")
        if self.field != other.field or self.dim != other.dim:
            raise InputError("composition needs matching field and dimension")
        if other.dst_power != self.src_power:
            raise InputError(
                f"composition power mismatch: need {self.src_power},"
                f" got {other.dst_power}")
        return LinMap(self.field, self.dim, other.src_power, self.dst_power,
                      np.dot(self.matrix, other.matrix))

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "LinMap") -> "LinMap":
        if not isinstance(other, LinMap):
            raise InputError("can only tensor with another LinMap")
        if self.field != other.field or self.dim != other.dim:
            raise InputError("tensor needs matching field and dimension")
        return LinMap(self.field, self.dim,
                      self.src_power + other.src_power,
                      self.dst_power + other.dst_power,
                      np.kron(self.matrix, other.matrix))

    @staticmethod
    def identity(field: Field, dim: int, power: int = 1) -> "LinMap":
        return LinMap(field, dim, power, power,
                      np.eye(dim ** power, dtype=np.int64))

    def as_json(self) -> dict:
        if self.field.characteristic:
            rows = [[int(v) for v in row] for row in self.matrix]
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


def _perm_map(field: Field, dim: int, power: int, target_from_source) -> LinMap:
    """Permutation of tensor factors; target slot i reads source slot
    target_from_source[i]."""
    size = dim ** power
    mat = np.zeros((size, size), np.int64)
    for src in itertools.product(range(dim), repeat=power):
        r = c = 0
        for i in range(power):
            r = r * dim + src[target_from_source[i]]
            c = c * dim + src[i]
        mat[r, c] = 1
    return LinMap(field, dim, power, power, mat)


def _permute_rows(mat, dim: int, power: int, target_from_source) -> np.ndarray:
    """Left-compose a tensor-factor permutation by reindexing rows.

    Equivalent to _perm_map(...).matrix @ mat without the dense permutation;
    rows of mat must be indexed by basis tuples of the given power.
    """
    shaped = mat.reshape((dim,) * power + (-1,))
    shaped = shaped.transpose(tuple(target_from_source) + (power,))
    return shaped.reshape(mat.shape[0], -1)


def _decode_basis(index: int, dim: int, power: int) -> tuple:
    digits = []
    for _ in range(power):
        digits.append(index % dim)
        index //= dim
    digits.reverse()
    return tuple(digits)


def _matrix_mismatch(lhs, rhs, dim: int, src_power: int, field: Field,
                     detail: str) -> CheckResult:
    diff = np.argwhere(lhs != rhs)
    r, c = (int(v) for v in diff[0])
    lv, rv = lhs[r, c], rhs[r, c]
    if field.characteristic:
        lv, rv = int(lv), int(rv)
    witness = (r, _decode_basis(c, dim, src_power))
    return CheckResult(False, Counterexample(witness, lv, rv), detail)


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
        ident = LinMap.identity(delta.field, dim)
        if delta.tensor(ident) @ delta != ident.tensor(delta) @ delta:
            raise InputError("comultiplication is not coassociative")
        if (counit.tensor(ident) @ delta != ident
                or ident.tensor(counit) @ delta != ident):
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
        for k in range(2, n + 1):
            step = self.delta
            if k > 2:
                step = self.delta.tensor(
                    LinMap.identity(self.field, self.dim, k - 2))
            out = step @ out
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
    as an exact matrix identity on construction unless verify=False."""

    __slots__ = ("comonoid", "arity", "w")

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
        if verify:
            _require(check_nary_sd(self), "operation is self-distributive")

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


def shuffle_positions(n: int) -> list:
    """Source slot order regrouping n heads and n-1 copied tails.

    Source order: x_1..x_n followed by n-1 blocks a_k1..a_kn (the k-th copy
    block); target order: the n groups (x_j, a_1j, ..., a_(n-1)j).  Returned
    as 0-based source slots listed in target order.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    out = []
    for j in range(n):
        out.append(j)
        for k in range(n - 1):
            out.append(n + k * n + j)
    return out


def shuffle_perm(n: int, d: int, field: Field | None = None) -> LinMap:
    """The regrouping permutation as a dense matrix on the n^2-th power."""
    field = field if field is not None else Field(0)
    rows = d ** (n * n)
    if rows > MAX_PERM_ROWS:
        raise InputError(
            f"refusing dense permutation matrix: {d}^{n * n} = {rows} rows"
            f" exceeds {MAX_PERM_ROWS}")
    return _perm_map(field, d, n * n, shuffle_positions(n))


def _sparse_columns(mat, dim: int, power: int) -> list:
    """Per-column expansion of a (dim^power x dim) matrix into
    (coefficient, basis digits) terms."""
    cols = []
    for t in range(mat.shape[1]):
        col = mat[:, t]
        cols.append([(col[i], _decode_basis(i, dim, power))
                     for i in range(col.shape[0]) if col[i] != 0])
    return cols


def check_nary_sd(obj: SDObject) -> CheckResult:
    """Exact comparison of the two sides of the distributive law.

    Left side: apply the operation to the head block, then once more with the
    tails.  Right side: copy each tail with the iterated comultiplication,
    regroup one copy to each head, apply the operation n times, then once.
    The right side is assembled per tail column from the sparse expansion of
    the comultiplication, so the n^2-th tensor power is never materialized.
    """
    com, n, w = obj.comonoid, obj.arity, obj.w
    d, field = com.dim, com.field
    p = field.characteristic
    cols = d ** (2 * n - 1)
    if cols > MAX_SD_COLUMNS:
        raise InputError(
            f"refusing distributivity check: {d}^{2 * n - 1} = {cols}"
            f" columns exceeds {MAX_SD_COLUMNS}")
    Wm = w.matrix
    tails = d ** (n - 1)
    # left composite, laid out (output, head block, tail block)
    Wr = Wm.reshape(d, d, tails)
    lhs = np.tensordot(Wr, Wm, axes=([1], [0]))      # (out, tail, head)
    lhs = lhs.transpose(0, 2, 1)
    if p:
        lhs = lhs % p
    terms = _sparse_columns(com.delta_n(n).matrix, d, n)
    total = sum(len(ts) for ts in terms)
    if total ** (n - 1) > MAX_SD_TERMS:
        raise InputError(
            f"refusing distributivity check: about {total ** (n - 1)}"
            f" comultiplication term combinations exceed {MAX_SD_TERMS}")
    Wt = Wm.reshape((d,) * (n + 1))
    rhs = field.zeros((d, d ** n, tails))
    for tail in itertools.product(range(d), repeat=n - 1):
        tflat = 0
        for t in tail:
            tflat = tflat * d + t
        for combo in itertools.product(*(terms[t] for t in tail)):
            coeff = combo[0][0] if combo else 1
            for c, _ in combo[1:]:
                coeff = coeff * c
            if p:
                coeff = int(coeff) % p
            block = Wt
            for j in range(n):
                off = 0
                for k in range(n - 1):
                    off = off * d + combo[k][1][j]
                block = np.tensordot(block, Wr[:, :, off], axes=([1], [0]))
                if p:
                    block = block % p
            # block axes are now (output, head_1, ..., head_n)
            rhs[:, :, tflat] = rhs[:, :, tflat] + coeff * block.reshape(d, d ** n)
            if p:
                rhs[:, :, tflat] %= p
    if np.array_equal(lhs, rhs):
        return CheckResult(True)
    return _matrix_mismatch(lhs.reshape(d, cols), rhs.reshape(d, cols), d,
                            2 * n - 1, field,
                            "self-distributivity fails on a basis input")


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
        return _matrix_mismatch(left.matrix, right.matrix, d, 2, field,
                                "swap does not commute with copying")
    left = tau @ obj.w.tensor(ident)
    right = ident.tensor(obj.w) @ under
    if left != right:
        return _matrix_mismatch(left.matrix, right.matrix, d, 3, field,
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
        B = bracket.matrix
        for i in range(dim):
            if np.any(B[:, i * dim + i] != 0):
                raise InputError("bracket of a basis vector with itself"
                                 " is nonzero")
        if dim:
            tau = _perm_map(field, dim, 2, [1, 0])
            if np.any(field.reduce(B + (bracket @ tau).matrix) != 0):
                raise InputError("bracket is not antisymmetric")
            ident = LinMap.identity(field, dim)
            jac1 = bracket @ bracket.tensor(ident)
            rho = _perm_map(field, dim, 3, [1, 2, 0])
            acc = field.reduce(jac1.matrix + (jac1 @ rho).matrix
                               + (jac1 @ rho @ rho).matrix)
            if np.any(acc != 0):
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
    field = L.bracket.field
    dl = L.dim
    d = 1 + dl
    B = L.bracket.matrix
    q = field.zeros((d, d * d))
    q[0, 0] = 1
    for i in range(1, d):
        q[i, i * d] = 1
        for j in range(1, d):
            q[1:, i * d + j] = q[1:, i * d + j] + B[:, (i - 1) * dl + (j - 1)]
    delta = np.zeros((d * d, d), np.int64)
    delta[0, 0] = 1
    for i in range(1, d):
        delta[i * d, i] = 1
        delta[i, i] = 1
    counit = np.zeros((1, d), np.int64)
    counit[0, 0] = 1
    com = ComonoidObject(d, LinMap(field, d, 1, 2, delta),
                         LinMap(field, d, 1, 0, counit))
    return SDObject(com, 2, LinMap(field, d, 2, 1, q))


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

    __slots__ = ("field", "dim", "unit", "mult", "delta", "counit", "antipode")

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
        if dim ** 6 > MAX_HOPF_ENTRIES:
            raise InputError(
                f"refusing Hopf axiom validation: {dim}^6 = {dim ** 6}"
                f" matrix entries exceed {MAX_HOPF_ENTRIES}")
        ident = LinMap.identity(field, dim)
        if mult @ mult.tensor(ident) != mult @ ident.tensor(mult):
            raise InputError("multiplication is not associative")
        if mult @ unit.tensor(ident) != ident or mult @ ident.tensor(unit) != ident:
            raise InputError("unit laws fail")
        ComonoidObject(dim, delta, counit)
        # compatibility through the four-factor middle swap, with the swap
        # applied as a row reindexing instead of a dense permutation
        swapped = _permute_rows(delta.tensor(delta).matrix, dim, 4,
                                [0, 2, 1, 3])
        rhs = field.reduce(np.dot(mult.tensor(mult).matrix, swapped))
        if not np.array_equal((delta @ mult).matrix, rhs):
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

    def __setattr__(self, name, value):
        raise AttributeError("HopfAlgebraObject is immutable")

    def comonoid(self) -> ComonoidObject:
        return ComonoidObject(self.dim, self.delta, self.counit)

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
    mult = np.zeros((d, d * d), np.int64)
    delta = np.zeros((d * d, d), np.int64)
    anti = np.zeros((d, d), np.int64)
    for a in range(d):
        for b in range(d):
            mult[g.mul(a, b), a * d + b] = 1
        delta[a * d + a, a] = 1
        anti[g.inv(a), a] = 1
    unit = np.zeros((d, 1), np.int64)
    unit[g.identity, 0] = 1
    counit = np.ones((1, d), np.int64)
    return HopfAlgebraObject(
        d, LinMap(field, d, 0, 1, unit), LinMap(field, d, 2, 1, mult),
        LinMap(field, d, 1, 2, delta), LinMap(field, d, 1, 0, counit),
        LinMap(field, d, 1, 1, anti))


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

    The factor reordering is applied by reindexing the rows of the copied
    composite, so no dense permutation on the fifth tensor power is built.
    """
    d, field = H.dim, H.field
    ident = LinMap.identity(field, d)
    spread = ident.tensor(H.delta).tensor(H.delta)   # x,y1,y2,z1,z2
    M = spread.matrix.reshape((d,) * 5 + (d ** 3,))
    M = M.transpose(3, 1, 0, 2, 4, 5).reshape(d * d, d ** 3, d ** 3)
    SS = np.kron(H.antipode.matrix, H.antipode.matrix)
    M = field.reduce(np.tensordot(SS, M, axes=([1], [0])))
    m_fold = H.mult
    for _ in range(3):
        m_fold = H.mult @ m_fold.tensor(ident)       # left-to-right products
    w = LinMap(field, d, 3, 1,
               np.dot(m_fold.matrix, M.reshape(d ** 5, d ** 3)))
    return SDObject(H.comonoid(), 3, w)


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
    if d ** 7 > MAX_AUGMENTED_ENTRIES:
        raise InputError(
            f"refusing augmented-axiom check: {d}^7 = {d ** 7} matrix"
            f" entries exceed {MAX_AUGMENTED_ENTRIES}")
    ident = LinMap.identity(field, d)
    if action @ action.tensor(ident) != action @ ident.tensor(H.mult):
        raise PreconditionError("action is not a right module structure")
    if action @ ident.tensor(H.unit) != ident:
        raise PreconditionError("action does not fix the unit")
    # coalgebra morphism: copy then pair twice, with the middle swap as a
    # row reindexing
    paired = field.reduce(np.dot(
        p_map.tensor(p_map).matrix,
        _permute_rows(X.delta.tensor(X.delta).matrix, d, 4, [0, 2, 1, 3])))
    if (not np.array_equal((H.delta @ p_map).matrix, paired)
            or H.counit @ p_map != X.counit.tensor(X.counit)):
        raise PreconditionError("p is not a coalgebra morphism")
    copy_last = ident.tensor(ident).tensor(H.delta).matrix   # 3 -> 4
    left = field.reduce(np.dot(
        np.dot(p_map.matrix, action.tensor(action).matrix),
        _permute_rows(copy_last, d, 4, [0, 2, 1, 3])))
    head = H.mult @ H.mult.tensor(ident) @ H.antipode.tensor(p_map).tensor(ident)
    # y0,y1,g1,g2 -> g1,y0,y1,g2 moves the first copy in front
    right = field.reduce(np.dot(
        head.matrix, _permute_rows(copy_last, d, 4, [2, 0, 1, 3])))
    if not np.array_equal(left, right):
        return _matrix_mismatch(left, right, d, 3, field,
                                "augmentation axiom fails")
    inner = check_nary_sd(augmented_operation(p_map, H, X, action,
                                              verify=False))
    if not inner:
        return CheckResult(False, inner.counterexample,
                           "derived ternary operation is not self-distributive")
    return CheckResult(True)
