"""Braid group actions on powers of a rack and twisted operations.

The m-string braid group acts on X^m from the right: the generator with
index i sends the entries (a, b) at positions i, i+1 to (b, a * b), its
inverse sends (c, d) to (R_c^{-1}(d), c), and a word applies its letters
left to right, so (x^a)^b = x^(ab).

The action is computed on many tuples at once.  The tuples are held as m
columns, one array of entries per position, and a letter moves one column
into its neighbour's place and fills the other by one gather from the
table (or from its inverse translations).  The relation check holds all N^m
tuples of X^m this way, a twist all N^(k-1) tails of its operation, and a
single tuple is a set of columns of length one.

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
from .optable import (CheckResult, Counterexample, InputError, OK, OpTable,
                      inverse_translations)
from .constructions import _require_ops

# Steps charged for the column action, against 0.12 us a step, about a
# second for all of STEPS, on a 2-core Xeon with numpy 2.4.  A relation
# check spends 12-40 us of numpy calls on each relation at one point, about
# 0.07 us more for each strand it lists and compares, and 21-95 ns on each
# tuple and relation at 10^4 to 2.7e7 tuples.  So a relation costs
# _RELATION_STEPS plus one step per strand and one per tuple.  A twist
# spends 2.4 us on each letter at one tail, so a letter costs
# _LETTER_STEPS plus one step per tail.
_RELATION_STEPS = 150
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
    that position; the letters act through the binary table `op`, and
    negative letters through `inv`, its inverse translations.  A letter
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
    image = _action(op, inv, beta.word, [np.array([v]) for v in xs])
    return tuple(int(c[0]) for c in image)


def verify_braid_relations(op: OpTable, m: int) -> CheckResult:
    """Exhaustive check of the defining relations of the braid group on X^m.

    Adjacent generators must braid and distant generators must commute, as
    maps on X^m.  On a self-distributive table both families hold; a failure
    is reported with the tuple and the two images.
    """
    if op.arity != 2:
        raise InputError("braid actions act through a binary operation")
    if m < 2:
        raise InputError("need at least 2 strands")
    N = op.size
    count = limits.power(N, m)
    what = f"braid relations on {m} strands over {N} points"
    # the m columns of X^m, the at most three columns each image gathers,
    # one gather index and two masks
    limits.charge_bytes(count * (8 * (m + 7) + 2), what)
    limits.charge_steps((m - 1) * (m - 2) // 2 * (_RELATION_STEPS + m + count), what)
    relations = []
    for i in range(1, m - 1):
        relations.append(((i, i + 1, i), (i + 1, i, i + 1),
                          f"braid relation for generators {i}, {i + 1}"))
        for j in range(i + 2, m):
            relations.append(((i, j), (j, i),
                              f"commutation of generators {i}, {j}"))
    cols = digits(np.arange(count), N, m)
    # (first failing tuple, relation order, name, both images there)
    fails = []
    for order, (left, right, name) in enumerate(relations):
        a, b = _action(op, None, left, cols), _action(op, None, right, cols)
        bad = np.zeros(count, bool)
        for p, q in zip(a, b):
            if p is not q:
                bad |= p != q
        t = int(bad.argmax())
        if bad[t]:
            fails.append((t, order, name, tuple(int(c[t]) for c in a),
                          tuple(int(c[t]) for c in b)))
    if not fails:
        return OK
    # the least failing tuple, and the first relation failing there
    t, _, name, lhs, rhs = min(fails)
    return CheckResult(False, Counterexample(tuple(int(c[t]) for c in cols), lhs, rhs),
                       f"{name} fails")


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
