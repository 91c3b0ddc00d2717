"""Braid group actions on powers of a rack and twisted operations.

The m-string braid group acts on X^m from the right: the generator with
index i sends the entries (a, b) at positions i, i+1 to (b, a * b), its
inverse sends (c, d) to (R_c^{-1}(d), c), and a word applies its letters
left to right, so (x^a)^b = x^(ab).

An n-ary operation that is mutually distributive with * commutes with this
action applied to each entry of a power of the carrier, and precomposing it
with a braid action on its last n-1 arguments yields a family of twisted
operations that are again self-distributive and pairwise mutually
distributive.
"""
import itertools
import random
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import limits
from .optable import (CheckResult, Counterexample, InputError, OK, OpTable,
                      are_mutually_distributive, index_to_tuple,
                      inverse_translations, is_nary_distributive, is_rack)
from .constructions import _require

_RANDOM_WORD_SEED = 0x1A2


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


def _act(table, inv, word, x):
    # one pass over the letters; `table` is the N x N operation, `inv` its
    # inverse translations (only consulted for negative letters)
    cur = list(x)
    for letter in word:
        i = abs(letter) - 1
        a, b = cur[i], cur[i + 1]
        if letter > 0:
            cur[i], cur[i + 1] = b, int(table[a, b])
        else:
            cur[i], cur[i + 1] = int(inv[a, b]), a
    return tuple(cur)


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
        _require(is_rack(op), "operation is a rack")
        inv = inverse_translations(op)
    return _act(op.table.reshape(N, N), inv, beta.word, xs)


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
    # (m-1)(m-2)/2 relations, each compared on every tuple of X^m
    limits.charge_steps(limits.power(op.size, m) * max(1, (m - 1) * (m - 2) // 2),
                        f"braid relations on {m} strands over {op.size} points")
    table = op.table.reshape(op.size, op.size)
    relations = []
    for i in range(1, m - 1):
        relations.append(((i, i + 1, i), (i + 1, i, i + 1),
                          f"braid relation for generators {i}, {i + 1}"))
        for j in range(i + 2, m):
            relations.append(((i, j), (j, i),
                              f"commutation of generators {i}, {j}"))
    for x in itertools.product(range(op.size), repeat=m):
        for left, right, name in relations:
            a = _act(table, None, left, x)
            b = _act(table, None, right, x)
            if a != b:
                return CheckResult(False, Counterexample(x, a, b),
                                   f"{name} fails")
    return OK


def verify_equivariance(star: OpTable, hat: OpTable,
                        trials: int = 60) -> CheckResult:
    """Acting entrywise by hat commutes with the braid action through star.

    The generator case is checked exhaustively on pairs with every tail;
    seeded random longer words on 2 to 4 strands guard the general case.
    """
    if star.arity != 2:
        raise InputError("the acting operation must be binary")
    if star.size != hat.size:
        raise InputError("operations live on different carriers")
    _require(is_nary_distributive(star), "acting operation is self-distributive")
    _require(is_nary_distributive(hat), "acted operation is self-distributive")
    _require(are_mutually_distributive(star, hat),
             "operations are mutually distributive")
    N = star.size
    P = N ** (hat.arity - 1)
    table = star.table.reshape(N, N)
    H = hat.table.reshape(N, P)
    for x1 in range(N):
        for x2 in range(N):
            sx = int(table[x1, x2])
            for t in range(P):
                lhs = (int(H[x2, t]), int(H[sx, t]))
                rhs = (int(H[x2, t]), int(table[H[x1, t], H[x2, t]]))
                if lhs != rhs:
                    tail = index_to_tuple(t, N, hat.arity - 1)
                    return CheckResult(
                        False, Counterexample((x1, x2) + tail, lhs, rhs),
                        "generator equivariance fails")
    rng = random.Random(_RANDOM_WORD_SEED)
    invertible = bool(is_rack(star))
    inv = inverse_translations(star) if invertible else None
    for _ in range(trials):
        m = rng.randrange(2, 5)
        letters = []
        for _ in range(rng.randrange(1, 5)):
            g = rng.randrange(1, m)
            if invertible and rng.random() < 0.4:
                g = -g
            letters.append(g)
        beta = BraidWord(m, tuple(letters))
        xs = tuple(rng.randrange(N) for _ in range(m))
        t = rng.randrange(P)
        acted = _act(table, inv, beta.word, xs)
        lhs = tuple(int(H[v, t]) for v in acted)
        rhs = _act(table, inv, beta.word, tuple(int(H[v, t]) for v in xs))
        if lhs != rhs:
            tail = index_to_tuple(t, N, hat.arity - 1)
            return CheckResult(False, Counterexample(xs + tail, lhs, rhs),
                               f"equivariance fails for the word {beta.word}")
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
    limits.charge_steps(P * (len(beta.word) + k),
                        f"a braid twist of {P} tails by {len(beta.word)} letters")
    if verify:
        _require(is_rack(star), "acting operation is a rack")
        _require(is_nary_distributive(hat), "operation is self-distributive")
        _require(are_mutually_distributive(star, hat),
                 "operations are mutually distributive")
    inv = None
    if beta.has_inverse_letters:
        inv = inverse_translations(star)
    table = star.table.reshape(N, N)
    perm = np.empty(P, np.int64)
    for t in range(P):
        image = _act(table, inv, beta.word, index_to_tuple(t, N, k - 1))
        q = 0
        for v in image:
            q = q * N + v
        perm[t] = q
    out = hat.table.reshape(N, P)[:, perm].reshape(-1)
    return OpTable(N, k, out, meta={"construction": "braid_twist",
                                    "word": list(beta.word)})
