import itertools
import random

import numpy as np
import pytest

from selfdist import (InputError, OpTable, PreconditionError, affine_op,
                      are_mutually_distributive, conj_quandle, core_quandle,
                      cyclic_group, enumerate_mutual_pairs, enumerate_operations,
                      exchange_holds, f_functor, heap_op, inverse_translations,
                      is_nary_distributive, is_rack, make_op_table,
                      symmetric_group)
from selfdist.braid import (BraidWord, braid_act, twist_op,
                            verify_braid_relations, verify_equivariance)


def dih3():
    return affine_op(3, 2, (2,))


def dih5():
    return affine_op(5, 2, (2,))


def sigma1_power(m):
    return BraidWord(2, (1,) * m if m >= 0 else (-1,) * (-m))


# ---------------------------------------------------------------------------
# loop oracles: the action one tuple and one letter at a time

def act_oracle(table, inv, word, x):
    """x under the word; `table` is the N x N operation, `inv` its inverse
    translations (read only for negative letters)."""
    cur = list(x)
    for letter in word:
        i = abs(letter) - 1
        a, b = cur[i], cur[i + 1]
        if letter > 0:
            cur[i], cur[i + 1] = b, int(table[a, b])
        else:
            cur[i], cur[i + 1] = int(inv[a, b]), a
    return tuple(cur)


def relations_oracle(op, m):
    """(holds, witness, lhs, rhs, detail) of the braid relations on X^m, from
    the first failing tuple and the first relation failing there."""
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
            a = act_oracle(table, None, left, x)
            b = act_oracle(table, None, right, x)
            if a != b:
                return False, x, a, b, f"{name} fails"
    return True, None, None, None, ""


def twist_oracle(hat, star, beta):
    N, k = hat.size, hat.arity
    table = star.table.reshape(N, N)
    inv = inverse_translations(star) if beta.has_inverse_letters else None
    out = np.empty(N ** k, np.int64)
    for x in range(N):
        for tail in itertools.product(range(N), repeat=k - 1):
            image = act_oracle(table, inv, beta.word, tail)
            out[np.ravel_multi_index((x,) + tail, (N,) * k)] = \
                hat.table[np.ravel_multi_index((x,) + image, (N,) * k)]
    return out


def equivariance_oracle(star, hat, words=0, seed=0x1A2):
    """(holds, witness) of acting entrywise by hat commuting with the braid
    action through star: every generator at every pair (x1, x2) and tail t,
    then `words` seeded random words on 2 to 4 strands, with inverse letters
    when star is a rack."""
    N = star.size
    P = N ** (hat.arity - 1)
    table = star.table.reshape(N, N)
    H = hat.table.reshape(N, P)
    for x1 in range(N):
        for x2 in range(N):
            for t in range(P):
                # the generator sends (x1, x2) to (x2, x1 * x2); the first
                # entries agree, so the second decides
                if H[table[x1, x2], t] != table[H[x1, t], H[x2, t]]:
                    return False, (x1, x2, t)
    rng = random.Random(seed)
    inv = inverse_translations(star) if is_rack(star) else None
    for _ in range(words):
        m = rng.randrange(2, 5)
        word = []
        for _ in range(rng.randrange(1, 5)):
            g = rng.randrange(1, m)
            word.append(-g if inv is not None and rng.random() < 0.4 else g)
        x = tuple(rng.randrange(N) for _ in range(m))
        t = rng.randrange(P)
        lhs = tuple(int(H[v, t]) for v in act_oracle(table, inv, word, x))
        rhs = act_oracle(table, inv, word, tuple(int(H[v, t]) for v in x))
        if lhs != rhs:
            return False, (x, t, tuple(word))
    return True, None


def perturbed_table(op, rng):
    table = op.table.copy()
    table[rng.randrange(len(table))] = rng.randrange(op.size)
    return OpTable(op.size, op.arity, table)


def relation_cases():
    rng = random.Random(1905)
    sd = [dih3(), dih5(), core_quandle(cyclic_group(4)),
          conj_quandle(symmetric_group(3)), make_op_table(3, 2, lambda x, y: x)]
    cases = [(op, m) for op in sd for m in range(2, 6) if op.size ** m <= 1296]
    for op in sd:
        for _ in range(3):
            cases.append((perturbed_table(op, rng), rng.randrange(2, 6)))
    for _ in range(30):
        N = rng.randrange(1, 5)
        op = OpTable(N, 2, [rng.randrange(N) for _ in range(N * N)])
        cases.append((op, rng.randrange(2, 6)))
    return cases


@pytest.mark.parametrize("op, m", relation_cases())
def test_relations_match_the_loop(op, m):
    res = verify_braid_relations(op, m)
    holds, x, a, b, detail = relations_oracle(op, m)
    assert bool(res) == holds
    if holds:
        assert res.counterexample is None
        return
    w = res.counterexample
    assert (w.witness, w.lhs, w.rhs, res.detail) == (x, a, b, detail)
    assert all(type(v) is int for v in w.witness + w.lhs + w.rhs)


def test_relation_cases_reach_both_choices():
    # distant generators move disjoint entries, so only braid relations
    # fail.  The cases have a first failing tuple where a later relation is
    # the first to fail, and one where several relations fail at once.
    later, several = False, False
    for op, m in relation_cases():
        holds, x, _, _, detail = relations_oracle(op, m)
        if holds:
            continue
        table = op.table.reshape(op.size, op.size)
        failing = [i for i in range(1, m - 1)
                   if act_oracle(table, None, (i, i + 1, i), x)
                   != act_oracle(table, None, (i + 1, i, i + 1), x)]
        later |= not detail.startswith("braid relation for generators 1, 2")
        several |= len(failing) > 1
    assert later and several


def test_act_and_twist_match_the_loop():
    rng = random.Random(2019)
    for star, hat in ((dih3(), f_functor(dih3(), dih3())),
                      (dih5(), affine_op(5, 3, (2, 2))),
                      (core_quandle(cyclic_group(4)), heap_op(cyclic_group(4))),
                      (dih3(), affine_op(3, 4, (1, 1, 2)))):
        N, k = star.size, hat.arity
        table = star.table.reshape(N, N)
        inv = inverse_translations(star)
        for signs in ((1,), (1, -1)):
            for _ in range(6):
                word = tuple(rng.choice(signs) * rng.randrange(1, k - 1)
                             for _ in range(rng.randrange(0, 6)))
                beta = BraidWord(k - 1, word)
                out = twist_op(hat, star, beta, verify=False)
                assert np.array_equal(out.table, twist_oracle(hat, star, beta)), word
                for _ in range(5):
                    x = tuple(rng.randrange(N) for _ in range(k - 1))
                    assert braid_act(star, beta, x) == act_oracle(table, inv, word, x)


# ---------------------------------------------------------------------------
# words

def test_braid_word_validation():
    w = BraidWord(3, [1, -2, 1])
    assert w.word == (1, -2, 1)
    assert w.has_inverse_letters
    with pytest.raises(InputError):
        BraidWord(1, ())
    with pytest.raises(InputError):
        BraidWord(3, (0,))
    with pytest.raises(InputError):
        BraidWord(3, (3,))
    with pytest.raises(InputError):
        BraidWord(3, (-3,))


def test_braid_word_inverse_and_product():
    w = BraidWord(3, (1, 2, -1))
    assert w.inverse().word == (1, -2, -1)
    v = BraidWord(3, (2,))
    assert (w * v).word == (1, 2, -1, 2)
    with pytest.raises(InputError):
        w * BraidWord(4, (1,))


# ---------------------------------------------------------------------------
# the action

def test_empty_word_is_identity():
    op = dih3()
    for x in itertools.product(range(3), repeat=2):
        assert braid_act(op, BraidWord(2), x) == x


def test_generator_on_dihedral():
    # sigma_1 sends (0, 1) to (1, 0*1) = (1, 2)
    assert braid_act(dih3(), BraidWord(2, (1,)), (0, 1)) == (1, 2)
    # and its inverse sends (1, 2) back
    assert braid_act(dih3(), BraidWord(2, (-1,)), (1, 2)) == (0, 1)


def test_generator_inverse_cancels():
    op = dih3()
    for w in (BraidWord(2, (1, -1)), BraidWord(2, (-1, 1))):
        for x in itertools.product(range(3), repeat=2):
            assert braid_act(op, w, x) == x


def test_inverse_word_inverts_action():
    op = dih5()
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(1, 6)))
        beta = BraidWord(3, word)
        x = tuple(rng.randrange(5) for _ in range(3))
        y = braid_act(op, beta, x)
        assert braid_act(op, beta.inverse(), y) == x


def test_concatenation_composes():
    # right action: x^(a b) = (x^a)^b, exhaustively on X^3
    op = dih5()
    a = BraidWord(3, (1, 2))
    b = BraidWord(3, (-2, 1, 1))
    for x in itertools.product(range(5), repeat=3):
        assert braid_act(op, a * b, x) == braid_act(op, b, braid_act(op, a, x))


def test_braid_act_input_errors():
    with pytest.raises(InputError):
        braid_act(dih3(), BraidWord(3, (1,)), (0, 1))
    with pytest.raises(InputError):
        braid_act(dih3(), BraidWord(2, (1,)), (0, 5))
    with pytest.raises(InputError):
        braid_act(affine_op(3, 3, (1, 1)), BraidWord(2, (1,)), (0, 1))


def test_negative_letters_need_a_rack():
    # constant table: translations are not bijective
    flat = make_op_table(3, 2, lambda x, y: 0)
    assert braid_act(flat, BraidWord(2, (1,)), (1, 2)) == (2, 0)
    with pytest.raises(PreconditionError):
        braid_act(flat, BraidWord(2, (-1,)), (1, 2))


# ---------------------------------------------------------------------------
# relations

def test_relations_dihedral_z5():
    assert verify_braid_relations(dih5(), 3)


def test_relations_with_commuting_generators():
    assert verify_braid_relations(dih3(), 4)


def test_relations_trivial_quandle():
    # x * y = x turns each generator into a plain transposition
    proj = make_op_table(3, 2, lambda x, y: x)
    assert verify_braid_relations(proj, 3)
    assert verify_braid_relations(proj, 4)


def test_relations_fail_without_self_distributivity():
    plus = make_op_table(3, 2, lambda x, y: (x + y) % 3)
    res = verify_braid_relations(plus, 3)
    assert not res
    w = res.counterexample
    assert w.witness == (0, 0, 1)
    assert w.lhs == (1, 1, 1)
    assert w.rhs == (1, 1, 2)
    assert "braid relation" in res.detail


def test_relations_input_errors():
    with pytest.raises(InputError):
        verify_braid_relations(dih3(), 1)
    with pytest.raises(InputError):
        verify_braid_relations(affine_op(3, 3, (1, 1)), 3)


# ---------------------------------------------------------------------------
# equivariance

def test_equivariance_with_composite():
    star = dih3()
    assert verify_equivariance(star, f_functor(star, star))


def test_equivariance_binary_self():
    assert verify_equivariance(dih3(), dih3())


def test_equivariance_affine_z5():
    assert verify_equivariance(dih5(), affine_op(5, 3, (2, 1)))


def test_equivariance_oracle_holds_on_enumerated_mutual_pairs():
    # the generator case on every mutual pair on 2 and 3 points, and random
    # words, inverse letters included for racks, on a seeded sample of 100
    pairs = [pair for size in (2, 3) for pair in enumerate_mutual_pairs(size)]
    assert len(pairs) == 43 + 4868
    for star, hat in pairs:
        assert equivariance_oracle(star, hat) == (True, None)
    sample = random.Random(0xB4A1D).sample(pairs, 100)
    assert any(is_rack(star) for star, _ in sample)
    for star, hat in sample:
        assert verify_equivariance(star, hat)
        assert equivariance_oracle(star, hat, words=60) == (True, None)


def test_generator_equivariance_is_the_exchange_law():
    # over pairs of self-distributive tables, the generator case holds
    # exactly where hat distributes over star
    sd2 = enumerate_operations(2, 2, "sd")
    cases = [(a, b) for a in sd2 for b in sd2]
    sd3 = enumerate_operations(3, 2, "sd")
    rng = random.Random(0xE9)
    cases += [(rng.choice(sd3), rng.choice(sd3)) for _ in range(300)]
    verdicts = [bool(exchange_holds(star, hat)) for star, hat in cases]
    assert 0 < sum(verdicts) < len(cases)
    for (star, hat), want in zip(cases, verdicts):
        assert equivariance_oracle(star, hat)[0] == want


def test_equivariance_requires_mutual_pair():
    star = dih3()
    hat = make_op_table(3, 3, lambda x, y, z: (x + y + z) % 3)
    with pytest.raises(PreconditionError):
        verify_equivariance(star, hat)


def test_equivariance_random_mutual_affine_pairs():
    # affine pairs are always mutually distributive, so the lemma holds as a
    # universally quantified statement across random coefficient choices
    rng = random.Random(17)
    for _ in range(8):
        N = rng.choice((3, 5, 7))
        u = rng.randrange(2, N)
        star = affine_op(N, 2, (u,))
        if not is_nary_distributive(star):
            continue
        t, s = rng.randrange(N), rng.randrange(N)
        hat = affine_op(N, 3, (t, s))
        if not is_nary_distributive(hat):
            continue
        if not are_mutually_distributive(star, hat):
            continue
        assert verify_equivariance(star, hat)


# ---------------------------------------------------------------------------
# twisted operations

def test_twist_empty_word_returns_same_table():
    T = affine_op(5, 3, (2, 1))
    out = twist_op(T, dih5(), BraidWord(2))
    assert np.array_equal(out.table, T.table)


def test_twist_generator_formula():
    # T^{sigma_1}(x, y0, y1) = T(x, y1, y0 * y1), exhaustively on Z3
    star = dih3()
    T = f_functor(star, star)
    out = twist_op(T, star, BraidWord(2, (1,)))
    t = T.table.reshape(3, 3, 3)
    o = out.table.reshape(3, 3, 3)
    s = star.table.reshape(3, 3)
    for x, y0, y1 in itertools.product(range(3), repeat=3):
        assert o[x, y0, y1] == t[x, y1, s[y0, y1]]
    assert out.meta["construction"] == "braid_twist"
    assert out.meta["word"] == [1]


def test_twist_family_acceptance_inputs():
    # the affine pair used in the acceptance run: every twist by sigma_1^m is
    # self-distributive and the family is pairwise mutually distributive
    star = dih5()
    T = affine_op(5, 3, (2, 1))
    fam = [twist_op(T, star, sigma1_power(m)) for m in range(-2, 3)]
    for W in fam:
        assert is_nary_distributive(W)
    for A, B in itertools.combinations(fam, 2):
        assert are_mutually_distributive(A, B)


def test_twist_family_nondegenerate():
    # with T = 2x + 2y + 2z the twists genuinely differ: 4 distinct tables
    # among sigma_1^m for m in -2..2, still all SD and pairwise mutual
    star = dih5()
    T = affine_op(5, 3, (2, 2))
    fam = {m: twist_op(T, star, sigma1_power(m)) for m in range(-2, 3)}
    assert len({f.table.tobytes() for f in fam.values()}) == 4
    t1 = fam[1].table.reshape(5, 5, 5)
    tm2 = fam[-2].table.reshape(5, 5, 5)
    assert t1[0, 1, 2] == 4
    assert tm2[0, 1, 2] == 3
    for W in fam.values():
        assert is_nary_distributive(W)
    for a, b in itertools.combinations(fam, 2):
        assert are_mutually_distributive(fam[a], fam[b])


def test_twist_composition():
    # (T^a)^b = T^(ba): the outer twist acts first on the tail
    star = dih5()
    T = affine_op(5, 3, (2, 2))
    a = BraidWord(2, (1,))
    b = BraidWord(2, (1, 1))
    lhs = twist_op(twist_op(T, star, a), star, b)
    rhs = twist_op(T, star, b * a)
    assert np.array_equal(lhs.table, rhs.table)


def test_twist_preconditions():
    star = dih3()
    T = f_functor(star, star)
    with pytest.raises(InputError):
        twist_op(T, star, BraidWord(3, (1,)))      # wrong strand count
    hat = make_op_table(3, 3, lambda x, y, z: (x + y + z) % 3)
    with pytest.raises(PreconditionError):
        twist_op(hat, star, BraidWord(2, (1,)))    # not a mutual pair
    flat = make_op_table(3, 2, lambda x, y: 0)
    with pytest.raises(PreconditionError):
        twist_op(T, flat, BraidWord(2, (1,)))      # star not a rack
    # unverified negative twist still refuses when translations do not invert
    with pytest.raises(InputError):
        twist_op(T, flat, BraidWord(2, (-1,)), verify=False)
