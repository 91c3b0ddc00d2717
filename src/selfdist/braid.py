"""Braid group actions on powers of a rack and twisted operations.

The m-string braid group acts on X^m from the right: the generator with
index i sends the entries (a, b) at positions i, i+1 to (b, a * b), its
inverse sends (c, d) to (R_c^{-1}(d), c), and a word applies its letters
left to right, so (x^a)^b = x^(ab).

The action is computed on many tuples at once.  The tuples are held as m
columns, one array of entries per position, and a letter moves one column
into its neighbour's place and fills the other by one gather from the
table (or from its inverse translations).  A twist holds all N^(k-1) tails
of its operation this way, and a single tuple is one integer per strand.

Generators i, i+1 braid at a tuple exactly when its entries a, b, c at
positions i, i+1, i+2 satisfy (a * b) * c = (a * c) * (b * c), and distant
generators move disjoint entries.  So the relation check reads the one
self-distributivity scan and evaluates one relation at one tuple.

An n-ary operation that is mutually distributive with * commutes with this
action applied to each entry of a power of the carrier, and precomposing it
with a braid action on its last n-1 arguments yields a family of twisted
operations that are again self-distributive and pairwise mutually
distributive.
"""
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import limits
from .kernels import digits
from .optable import (Axioms, CheckResult, Counterexample, InputError, OK,
                      OpTable, inverse_translations)
from .constructions import _require_ops

# Steps charged for the column action, against 0.12 us a step, about a
# second for all of STEPS, on a 2-core Xeon with numpy 2.4.  A twist
# spends 2.4 us on each letter at one tail, so a letter costs
# _LETTER_STEPS plus one step per tail.
_LETTER_STEPS = 25


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strings.

    Letters are nonzero integers: letter i with 1 <= i <= strands-1 is the
    i-th standard generator, -i its inverse.
    """
    strands: int
    word: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise InputError("braid words need at least 2 strands")
        object.__setattr__(self, "word", tuple(int(l) for l in self.word))
        for letter in self.word:
            if letter == 0 or abs(letter) >= self.strands:
                raise InputError(
                    f"letter {letter}: need 1 <= |letter| <= {self.strands - 1}")

    @property
    def has_inverse_letters(self) -> bool:
        return any(l < 0 for l in self.word)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-l for l in reversed(self.word)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        # concatenation, self acting first: x^(a b) = (x^a)^b
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise InputError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.word + other.word)


def _action(op, inv, word, cols):
    """The images of tuples under a braid word, as columns.

    `cols` holds one int64 array per strand, the entries of every tuple at
    that position, or one integer per strand for a single tuple; the letters
    act through the binary table `op`, and negative letters through `inv`,
    its inverse translations.  A letter
    replaces the two columns it moves and leaves the others as they are.
    """
    cols = list(cols)
    N, table = op.size, op.table
    inv = None if inv is None else inv.ravel()
    for letter in word:
        i = abs(letter) - 1
        a, b = cols[i], cols[i + 1]
        if letter > 0:
            cols[i], cols[i + 1] = b, table[a * N + b]
        else:
            cols[i], cols[i + 1] = inv[a * N + b], a
    return cols


def braid_act(op: OpTable, beta: BraidWord, x) -> tuple:
    """Image of the tuple x under the braid word, acting through op.

    Words with negative letters undo translations, so they require op to be
    a rack; positive words evaluate on any binary table.
    """
    if op.arity != 2:
        raise InputError("braid actions act through a binary operation")
    xs = tuple(int(v) for v in x)
    if len(xs) != beta.strands:
        raise InputError(
            f"tuple length {len(xs)} != strand count {beta.strands}")
    N = op.size
    for v in xs:
        if not 0 <= v < N:
            raise InputError(f"entry {v} outside the carrier 0..{N - 1}")
    inv = None
    if beta.has_inverse_letters:
        _require_ops((op,), "a rack")
        inv = inverse_translations(op)
    return tuple(map(int, _action(op, inv, beta.word, xs)))


def verify_braid_relations(op: OpTable, m: int) -> CheckResult:
    """The defining relations of the braid group on X^m, read from the
    self-distributivity scan of op.

    Adjacent generators must braid and distant generators must commute, as
    maps on X^m.  They do for m <= 2, and for m >= 3 exactly when op is
    self-distributive.  Otherwise, with (x, y, z) the scan's first failing
    tuple, the least failing tuple of X^m is m - 3 zeros followed by
    (x, y, z): moving a triple right past zeros never raises it in
    lexicographic order, so no earlier window of that tuple fails unless
    every entry is 0.  The first relation failing there is the braid
    relation of generators m-2, m-1, or of generators 1, 2 when
    (x, y, z) = (0, 0, 0); both images are the action of its two words.
    """
    if op.arity != 2:
        raise InputError("braid actions act through a binary operation")
    if m < 2:
        raise InputError("need at least 2 strands")
    what = f"braid relations on {m} strands over {op.size} points"
    # the witness, the two column lists the action copies, its two images,
    # and the report's three lists and their text: 63-68 bytes a strand at
    # 10^6 strands, which take 0.14 us a strand, more than a step
    limits.charge_bytes(72 * m, what)
    limits.charge_steps(2 * m, what)
    sd = Axioms(op).sd if m > 2 else OK
    if sd:
        return OK
    triple = sd.counterexample.witness
    i = m - 2 if any(triple) else 1
    x = (0,) * (m - 3) + triple
    lhs, rhs = (tuple(map(int, _action(op, None, word, x)))
                for word in ((i, i + 1, i), (i + 1, i, i + 1)))
    return CheckResult(False, Counterexample(x, lhs, rhs),
                       f"braid relation for generators {i}, {i + 1} fails")


def verify_equivariance(star: OpTable, hat: OpTable) -> CheckResult:
    """Acting entrywise by hat commutes with the braid action through star.

    A generator moves (a, b) to (b, a * b), so at a tail t it commutes with
    hat exactly when hat(a * b, t) = hat(a, t) * hat(b, t): hat distributes
    over star, one of the two exchange laws of a mutually distributive
    pair.  An inverse generator undoes a generator, and a word composes its
    letters, so every word follows by induction.  The three hypotheses are
    therefore the whole check: the result is OK, or a PreconditionError
    names the one that fails.
    """
    if star.arity != 2:
        raise InputError("the acting operation must be binary")
    if star.size != hat.size:
        raise InputError("operations live on different carriers")
    _require_ops((star, hat), "self-distributive", "mutually distributive",
                 ("acting operation", "acted operation"))
    return OK


def twist_op(hat: OpTable, star: OpTable, beta: BraidWord,
             verify: bool = True) -> OpTable:
    """Precompose hat with the braid action of beta on its last n-1 slots.

    The word must live on hat.arity - 1 strands.  With verify on, star must
    be a rack and the pair mutually distributive, the hypotheses under which
    the twisted operation is again self-distributive.
    """
    if star.arity != 2:
        raise InputError("the acting operation must be binary")
    if star.size != hat.size:
        raise InputError("operations live on different carriers")
    k = hat.arity
    if beta.strands != k - 1:
        raise InputError(
            f"braid word needs {k - 1} strands for an arity-{k} operation")
    N = star.size
    P = N ** (k - 1)
    what = f"a braid twist of {P} tails by {len(beta.word)} letters"
    # the k-1 columns of the tails, one gathered per letter, a gather
    # index, the permutation of the tails and the twisted table
    limits.charge_bytes(8 * P * (k + 2 + N), what)
    limits.charge_steps((len(beta.word) + k) * (_LETTER_STEPS + P), what)
    if verify:
        _require_ops((star, hat), ("a rack", "self-distributive"),
                     "mutually distributive", ("acting operation", "twisted operation"))
    inv = None
    if beta.has_inverse_letters:
        inv = inverse_translations(star)
    perm = 0
    for col in _action(star, inv, beta.word, digits(np.arange(P), N, k - 1)):
        perm = perm * N + col
    out = hat.table.reshape(N, P)[:, perm].reshape(-1)
    return OpTable(N, k, out, meta={"construction": "braid_twist",
                                    "word": list(beta.word)})
