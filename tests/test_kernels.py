import itertools
import json
import random

import numpy as np
import pytest

from selfdist import (InputError, OpTable, affine_op, conj_quandle,
                      core_quandle, cyclic_group, dihedral_group,
                      direct_product, exchange_holds, generalized_alexander,
                      heap_op, index_to_tuple, power_op, product_mutual_pair,
                      relabel, symmetric_group)
from selfdist import cli, kernels
from selfdist.kernels import (compat_cocycle_scan, compat_scan, exchange_scan,
                              mutual_cocycle_scan, nary_cocycle_scan,
                              translation_scan)
from formulas import make_op_table

rng = random.Random(20260823)


def rand_table(size, arity):
    return np.array([rng.randrange(size) for _ in range(size ** arity)],
                    dtype=np.int64)


def rand_cochain(size, arity, d):
    return np.array([rng.randrange(d) for _ in range(size ** arity)],
                    dtype=np.int64)


def as_i64(table):
    return np.ascontiguousarray(table, dtype=np.int64)


DIH3 = as_i64(affine_op(3, 2, (2,)).table)
DIH5 = as_i64(affine_op(5, 2, (2,)).table)
Z8 = as_i64(affine_op(8, 3, (3, 2)).table)
T1 = as_i64(make_op_table(8, 3, lambda x, y, z: -x + 2 * y).table)
PLUS3 = as_i64(make_op_table(3, 2, lambda x, y: x + y).table)
TRIV3 = as_i64(make_op_table(3, 3, lambda x, y, z: x).table)
PSI3 = as_i64(make_op_table(3, 3, lambda x, y, z: y + z - 2 * x).table)
# compatible affine pair T0 = 3x - 2y, T1 = 4x - 3z over Z5
CA5 = as_i64(affine_op(5, 3, (3, -2)).table)
CB5 = as_i64(affine_op(5, 3, (4, 0)).table)
# first fails self-distributivity at (2, 2, 1), inside the last leading tuple
LAST3 = np.array([0, 0, 0, 0, 0, 0, 0, 1, 2], np.int64)
# mutually distributive Alexander quandles 2x - y and 3x - 2y over Z5
AL2 = as_i64(affine_op(5, 2, (2,)).table)
AL3 = as_i64(affine_op(5, 2, (3,)).table)

# laws that read equal columns at many tails, so the engine scans one tail
# per class: heaps x y0^-1 y1, whose translations by (z0, z1) depend only
# on z0^-1 z1; the compatible pair 2x - y0, 5x - 4y0 over Z6, which ignores
# z1; and a product pair, whose operations each ignore one factor of z
HEAP_S3 = as_i64(heap_op(symmetric_group(3)).table)
HEAP_Z4 = as_i64(heap_op(cyclic_group(4)).table)
FA6 = as_i64(affine_op(6, 3, (2, -1)).table)
FB6 = as_i64(affine_op(6, 3, (5, -4)).table)
PROD0, PROD1 = (as_i64(op.table) for op in product_mutual_pair(
    OpTable(3, 2, DIH3), OpTable(3, 2, DIH3)))


def perturbed(values, modulus, at):
    out = values.copy()
    out[at] = (out[at] + 1) % modulus
    return out


def coboundary(table, size, arity, d):
    """phi(x, t) = f(x) - f(W(x, t)): a cocycle over every SD operation W."""
    f = np.arange(size, dtype=np.int64) % d
    return (np.repeat(f, size ** (arity - 1)) - f[table]) % d


# ---------------------------------------------------------------------------
# reference oracles: plain loops over every tuple in lexicographic order,
# each returning (flat index, lhs, rhs) at the first failure or (-1, None, None).
# They read Python ints, whose sums do not wrap at any modulus.

def ints(*arrays):
    return [np.asarray(a).tolist() for a in arrays]


def exchange_oracle(tm, tn, N, m, n):
    tm, tn = ints(tm, tn)
    Pm = N ** (m - 1)
    Pn = N ** (n - 1)
    for x in range(N):
        for yi in range(Pm):
            ydig = index_to_tuple(yi, N, m - 1)
            a = tm[x * Pm + yi]
            for zi in range(Pn):
                lhs = tn[a * Pn + zi]
                idx = tn[x * Pn + zi]
                for yj in ydig:
                    idx = idx * N + tn[yj * Pn + zi]
                if lhs != tm[idx]:
                    return (x * Pm + yi) * Pn + zi, int(lhs), int(tm[idx])
    return -1, None, None


def translation_oracle(table, N, P):
    for t in range(P):
        seen = [0] * N
        for x in range(N):
            v = table[x * P + t]
            if seen[v] == 1:
                return t
            seen[v] = 1
    return -1


def compat_oracle(A, B, N, which):
    N2 = N * N
    for x in range(N):
        for y0 in range(N):
            for y1 in range(N):
                ay = A[(x * N + y0) * N + y1]
                by = B[(x * N + y0) * N + y1]
                for z0 in range(N):
                    for z1 in range(N):
                        az_y0 = A[(y0 * N + z0) * N + z1]
                        bz_y1 = B[(y1 * N + z0) * N + z1]
                        if which == 1:
                            l = A[(ay * N + z0) * N + z1]
                            r = A[(A[(x * N + z0) * N + z1] * N + az_y0) * N + bz_y1]
                        else:
                            l = B[(by * N + z0) * N + z1]
                            r = B[(B[(x * N + z0) * N + z1] * N + az_y0) * N + bz_y1]
                        if l != r:
                            flat = ((x * N + y0) * N + y1) * N2 + z0 * N + z1
                            return flat, int(l), int(r)
    return -1, None, None


def cocycle_oracle(W, phi, N, k, d):
    W, phi = ints(W, phi)
    P = N ** (k - 1)
    for x in range(N):
        for yi in range(P):
            ydig = index_to_tuple(yi, N, k - 1)
            a = W[x * P + yi]
            pxy = phi[x * P + yi]
            for zi in range(P):
                lhs = pxy + phi[a * P + zi]
                idx = W[x * P + zi]
                for yj in ydig:
                    idx = idx * N + W[yj * P + zi]
                rhs = phi[x * P + zi] + phi[idx]
                if (lhs - rhs) % d != 0:
                    return (x * P + yi) * P + zi, int(lhs) % d, int(rhs) % d
    return -1, None, None


def mutual_cocycle_oracle(t0, t1, p0, p1, N, d, which):
    t0, t1, p0, p1 = ints(t0, t1, p0, p1)
    for x in range(N):
        for y in range(N):
            for z in range(N):
                if which == 1:
                    l = p0[x * N + y] + p1[t0[x * N + y] * N + z]
                    r = p1[x * N + z] + p0[t1[x * N + z] * N + t1[y * N + z]]
                else:
                    l = p1[x * N + y] + p0[t1[x * N + y] * N + z]
                    r = p0[x * N + z] + p1[t0[x * N + z] * N + t0[y * N + z]]
                if (l - r) % d != 0:
                    return (x * N + y) * N + z, int(l) % d, int(r) % d
    return -1, None, None


def compat_cocycle_oracle(A, B, s0, s1, N, d, which):
    A, B, s0, s1 = ints(A, B, s0, s1)
    for x0 in range(N):
        for x1 in range(N):
            for y0 in range(N):
                for y1 in range(N):
                    for z0 in range(N):
                        for z1 in range(N):
                            a_y = A[(y0 * N + z0) * N + z1]
                            b_y = B[(y1 * N + z0) * N + z1]
                            if which == 1:
                                l = s0[(x0 * N + y0) * N + y1] \
                                    + s1[(B[(x1 * N + y0) * N + y1] * N + z0) * N + z1]
                                r = s1[(x1 * N + z0) * N + z1] \
                                    + s0[(A[(x0 * N + z0) * N + z1] * N + a_y) * N + b_y]
                            else:
                                l = s1[(x1 * N + y0) * N + y1] \
                                    + s0[(A[(x0 * N + y0) * N + y1] * N + z0) * N + z1]
                                r = s0[(x0 * N + z0) * N + z1] \
                                    + s1[(B[(x1 * N + z0) * N + z1] * N + a_y) * N + b_y]
                            if (l - r) % d != 0:
                                flat = ((((x0 * N + x1) * N + y0) * N + y1) * N + z0) * N + z1
                                return flat, int(l) % d, int(r) % d
    return -1, None, None


# ---------------------------------------------------------------------------
# every scan with its law builder, oracle and cases, some failing late

def _exchange_cases():
    cases = [(DIH3, DIH3, 3, 2, 2), (PLUS3, PLUS3, 3, 2, 2), (LAST3, LAST3, 3, 2, 2),
             (DIH5, DIH5, 5, 2, 2),
             (perturbed(DIH5, 5, 23), DIH5, 5, 2, 2), (AL2, AL3, 5, 2, 2),
             (Z8, Z8, 8, 3, 3), (Z8, T1, 8, 3, 3), (T1, Z8, 8, 3, 3),
             (perturbed(Z8, 8, 383), Z8, 8, 3, 3),
             (HEAP_S3, HEAP_S3, 6, 3, 3), (HEAP_Z4, HEAP_Z4, 4, 3, 3),
             # one tail leaves its class: (x, z0, z1) = (2, 3, 1)
             (HEAP_S3, perturbed(HEAP_S3, 6, 91), 6, 3, 3),
             (perturbed(HEAP_S3, 6, 91), perturbed(HEAP_S3, 6, 91), 6, 3, 3),
             (perturbed(HEAP_Z4, 4, 38), HEAP_Z4, 4, 3, 3),
             (PROD0, PROD1, 9, 2, 2), (PROD1, PROD0, 9, 2, 2),
             (PROD0, perturbed(PROD1, 9, 67), 9, 2, 2)]
    for m, n in ((2, 2), (3, 3), (2, 3), (3, 2)):
        for size in (2, 3):
            for _ in range(6):
                cases.append((rand_table(size, m), rand_table(size, n),
                              size, m, n))
    return cases


def _compat_cases():
    cases = [(Z8, T1), (T1, Z8), (TRIV3, PSI3), (CA5, CB5),
             (perturbed(CA5, 5, 115), CB5), (CA5, perturbed(CB5, 5, 117)),
             (FA6, FB6), (perturbed(FA6, 6, 200), FB6), (FA6, perturbed(FB6, 6, 133))]
    for _ in range(6):
        cases.append((rand_table(2, 3), rand_table(2, 3)))
        cases.append((rand_table(3, 3), rand_table(3, 3)))
    return [(A, B, round(len(A) ** (1 / 3)), which)
            for A, B in cases for which in (1, 2)]


def _cocycle_cases():
    phi5 = coboundary(DIH5, 5, 2, 3)
    phi8 = coboundary(Z8, 8, 3, 3)
    cases = [(DIH3, np.zeros(9, np.int64), 3, 2, 3), (TRIV3, PSI3 % 3, 3, 3, 3),
             (DIH5, phi5, 5, 2, 3), (DIH5, perturbed(phi5, 3, 17), 5, 2, 3),
             (Z8, phi8, 8, 3, 3), (Z8, perturbed(phi8, 3, 383), 8, 3, 3)]
    for heap, size in ((HEAP_S3, 6), (HEAP_Z4, 4)):
        phi = coboundary(heap, size, 3, 4)
        cases += [(heap, phi, size, 3, 4), (heap, perturbed(phi, 4, 2 * size + 1), size, 3, 4)]
    for size, arity in ((2, 2), (3, 2), (2, 3)):
        for d in (2, 3, 5):
            for _ in range(4):
                cases.append((rand_table(size, arity),
                              rand_cochain(size, arity, d), size, arity, d))
    return cases


def _mutual_cocycle_cases():
    p2, p3 = coboundary(AL2, 5, 2, 4), coboundary(AL3, 5, 2, 4)
    cases = [(AL2, AL3, p2, p3, 5, 4), (AL2, AL3, perturbed(p2, 4, 14), p3, 5, 4),
             (AL2, AL3, p2, perturbed(p3, 4, 21), 5, 4)]
    q0, q1 = coboundary(PROD0, 9, 2, 3), coboundary(PROD1, 9, 2, 3)
    cases += [(PROD0, PROD1, q0, q1, 9, 3), (PROD0, PROD1, q0, perturbed(q1, 3, 71), 9, 3)]
    for _ in range(10):
        size = rng.choice((2, 3))
        d = rng.choice((2, 3, 5))
        cases.append((rand_table(size, 2), rand_table(size, 2),
                      rand_cochain(size, 2, d), rand_cochain(size, 2, d), size, d))
    return [case + (which,) for case in cases for which in (1, 2)]


def _compat_cocycle_cases():
    zero = np.zeros(125, np.int64)
    cases = [(CA5, CB5, zero, zero, 5, 3), (CA5, CB5, perturbed(zero, 3, 98), zero, 5, 3),
             (CA5, CB5, zero, perturbed(zero, 3, 111), 5, 3)]
    zero6 = np.zeros(216, np.int64)
    cases += [(FA6, FB6, zero6, zero6, 6, 2), (FA6, FB6, perturbed(zero6, 2, 150), zero6, 6, 2)]
    for _ in range(8):
        size = rng.choice((2, 3))
        d = rng.choice((2, 3))
        cases.append((rand_table(size, 3), rand_table(size, 3),
                      rand_cochain(size, 3, d), rand_cochain(size, 3, d), size, d))
    return [case + (which,) for case in cases for which in (1, 2)]


SCANS = {
    "exchange": (exchange_scan, kernels.exchange_law, exchange_oracle,
                 _exchange_cases()),
    "compat": (compat_scan, kernels.compat_law, compat_oracle, _compat_cases()),
    "cocycle": (nary_cocycle_scan, kernels.cocycle_law, cocycle_oracle,
                _cocycle_cases()),
    "mutual_cocycle": (mutual_cocycle_scan, kernels.mutual_cocycle_law,
                       mutual_cocycle_oracle, _mutual_cocycle_cases()),
    "compat_cocycle": (compat_cocycle_scan, kernels.compat_cocycle_law,
                       compat_cocycle_oracle, _compat_cocycle_cases()),
}
ORACLE_HITS = {name: [oracle(*case) for case in cases]
               for name, (_, _, oracle, cases) in SCANS.items()}


def assert_matches_oracle(name):
    scan, law, _, cases = SCANS[name]
    for case, (flat, lhs, rhs) in zip(cases, ORACLE_HITS[name]):
        assert scan(*case) == flat, (name, case)
        if flat >= 0:
            args, l, r = kernels.witness(law(*case), flat)
            assert args == index_to_tuple(flat, law(*case).N, len(args))
            assert (l, r) == (lhs, rhs), (name, case)


# ---------------------------------------------------------------------------
# the engine agrees with the loop oracles: first-failure index and witness

def test_exchange_backends_agree():
    assert_matches_oracle("exchange")


def test_translation_backends_agree():
    cases = [(DIH3, 3, 2), (Z8, 8, 3), (np.zeros(9, np.int64), 3, 2)]
    for size, arity in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for _ in range(8):
            cases.append((rand_table(size, arity), size, arity))
    for table, size, arity in cases:
        assert translation_scan(table, size, arity) == translation_oracle(
            table, size, size ** (arity - 1))
    # a stack of same-shape tables, one per row, gets one index per table
    for size, arity in ((3, 2), (2, 3), (3, 3)):
        stack = np.array([t for t, n, k in cases if (n, k) == (size, arity)])
        want = [translation_oracle(t, size, size ** (arity - 1)) for t in stack]
        assert kernels.translation_scan_stack(stack, size, arity).tolist() == want


def test_compat_backends_agree():
    assert_matches_oracle("compat")


def test_cocycle_backends_agree():
    assert_matches_oracle("cocycle")


def test_mutual_cocycle_backends_agree():
    assert_matches_oracle("mutual_cocycle")


def test_compat_cocycle_backends_agree():
    assert_matches_oracle("compat_cocycle")


# ---------------------------------------------------------------------------
# the slab size must not change indices or witnesses

def _mid_x_slab(law):
    """A slab whose blocks of leading tuples end in the middle of an x."""
    per_x = law.N ** (law.lead - 1)
    block = next(b for b in range(2, per_x) if per_x % b)
    return block * law.tail


def _head_slabs(law):
    """Slabs between one row of tails and one x-prefix's heads x tails, so
    that blocks split a prefix's heads: two rows, and N rows."""
    per_x = law.heads * law.tail
    return [s for s in (2 * law.tail, law.N * law.tail) if law.tail < s < per_x]


def assert_batches_match_oracle(monkeypatch):
    """The exchange cases of each shape, stacked into one batched law, get
    one verdict per case: whether the oracle finds no failure."""
    groups = {}
    for (tm, tn, N, m, n), (flat, _, _) in zip(SCANS["exchange"][3],
                                               ORACLE_HITS["exchange"]):
        groups.setdefault((N, m, n), []).append((tm, tn, flat < 0))
    for (N, m, n), group in groups.items():
        tm, tn, want = zip(*group)
        law = kernels.exchange_law(np.concatenate(tm), np.concatenate(tn),
                                   N, m, n, batch=len(group))
        span = N ** law.lead
        # blocks of one leading tuple; blocks that split one candidate's
        # heads; and blocks of one and of three whole candidates
        for slab in (1, *_head_slabs(law), (span + 1) * law.tail,
                     3 * span * law.tail):
            monkeypatch.setattr(kernels, "_SLAB", slab)
            assert kernels.holds(law).tolist() == list(want), (N, m, n, slab)


@pytest.mark.parametrize("name", sorted(SCANS))
def test_slab_invariance(name, monkeypatch):
    _, law, _, cases = SCANS[name]
    big = max(cases, key=lambda case: law(*case).N)
    mid = _mid_x_slab(law(*big))
    # slabs only matter when some first failure lies past the first block,
    # and when some case holds everywhere
    flats = [flat for flat, _, _ in ORACLE_HITS[name]]
    assert -1 in flats and max(flats) > mid
    heads = _head_slabs(law(*big))
    assert heads
    for slab in (1, mid, *heads):
        monkeypatch.setattr(kernels, "_SLAB", slab)
        assert_matches_oracle(name)
    if name == "exchange":
        assert_batches_match_oracle(monkeypatch)


def test_heap_scans_one_tail_per_class(monkeypatch):
    # the heap of a group of order N has N^2 tails but N translations
    tails = []
    scan_range = kernels._scan_range

    def spy(law, lo, hi):
        tails.append(law.tail)
        return scan_range(law, lo, hi)

    monkeypatch.setattr(kernels, "_scan_range", spy)
    for heap, N in ((HEAP_S3, 6), (HEAP_Z4, 4)):
        tails.clear()
        assert kernels._scan(kernels.exchange_law(heap, heap, N, 3, 3)) == -1
        assert tails == [N]
    # one changed entry moves one tail out of its class
    tails.clear()
    bad = perturbed(HEAP_S3, 6, 91)
    assert exchange_scan(bad, bad, 6, 3, 3) == exchange_oracle(bad, bad, 6, 3, 3)[0]
    assert tails == [7]


def test_scan_is_charged_on_its_tail_classes():
    # the heap of C80 has 6400 tails in 80 classes: its scan is admitted on
    # the classes, where a charge on every tail would refuse it
    heap = heap_op(cyclic_group(80))
    assert exchange_scan(heap.table, heap.table, 80, 3, 3) == -1
    # the heap of S5 stays refused on its 120 classes, for the 207M tuples
    # they leave
    heap = heap_op(symmetric_group(5))
    with pytest.raises(InputError, match="refusing a scan of 120 tail classes"):
        exchange_scan(heap.table, heap.table, 120, 3, 3)


def _generating_cases():
    """Exchange laws (name, tm, tn, group) of racks: group says whether the
    translations of tn form a group (heaps, conjugation and its square), or
    never compose into one another (core and Alexander quandles).  The
    single tables are relabeled, so that the identity class is not first."""
    perm = random.Random(32).sample
    S5 = symmetric_group(5)
    conj = conj_quandle(S5)
    ops = {"heap-D20": heap_op(dihedral_group(20)),
           "heap-C6xC6": heap_op(direct_product(cyclic_group(6), cyclic_group(6))),
           "conj-S5": conj, "core-S5": core_quandle(S5),
           "alex-C120": generalized_alexander(cyclic_group(120), 7 * np.arange(120) % 120)}
    cases = []
    for name, op in ops.items():
        op = relabel(op, perm(range(op.size), op.size))
        cases.append((name, op, op, name.startswith(("heap", "conj"))))
    conj_core = product_mutual_pair(conj_quandle(symmetric_group(4)),
                                    core_quandle(dihedral_group(5)))
    # the second operation of the product pair acts by the core quandle
    for name, (a, b), group in (("prod-S4-D5", conj_core, False),
                                ("pow-conj-S5", (conj, power_op(conj, 2)), True)):
        cases += [(name, a, b, group), (name + "-swapped", b, a, True)]
    return cases


def _variants(name, tm, tn):
    """The law as built; with one entry changed at 20 seeded positions, of
    the outer table alone at even ones (the translations stay bijections)
    and of the acting one at odd ones; and with two values swapped inside
    one translation, which keeps every translation a bijection."""
    rng = random.Random(name)
    N, m, n = tm.size, tm.arity, tn.arity
    one = tm is tn
    tm, tn = as_i64(tm.table), as_i64(tn.table)
    yield "built", tm, tn
    for i in range(20):
        if i % 2 == 0:
            at = rng.randrange(len(tm))
            yield f"outer {at}", perturbed(tm, N, at), tn
        else:
            at = rng.randrange(len(tn))
            bad = perturbed(tn, N, at)
            yield f"acting {at}", bad if one else tm, bad
    z = rng.randrange(len(tn) // N)
    x0, x1 = rng.sample(range(N), 2)
    bad = tn.copy()
    P = len(tn) // N
    bad[x0 * P + z], bad[x1 * P + z] = tn[x1 * P + z], tn[x0 * P + z]
    yield "swap", bad if one else tm, bad


def test_generating_classes_match_the_full_scan(monkeypatch):
    closures = []
    generating = kernels._generating_classes

    def spy(law, need):
        closures.append(generating(law, need))
        assert_closure_is_sound(law, closures[-1])
        return closures[-1]

    def full_scan(law, need):
        return None

    fails = 0
    for name, op_m, op_n, group in _generating_cases():
        N, m, n = op_m.size, op_m.arity, op_n.arity
        for variant, tm, tn in _variants(name, op_m, op_n):
            A, B = OpTable(N, m, tm), OpTable(N, n, tn)
            monkeypatch.setattr(kernels, "_generating_classes", full_scan)
            want, verdict = exchange_scan(tm, tn, N, m, n), exchange_holds(A, B)
            monkeypatch.setattr(kernels, "_generating_classes", spy)
            closures.clear()
            assert exchange_scan(tm, tn, N, m, n) == want, (name, variant)
            assert exchange_holds(A, B) == verdict, (name, variant)
            if variant == "built":
                assert want == -1, name
                assert (closures[0] is not None) == group, name
            if variant.startswith("acting"):
                # a changed entry leaves its translation no bijection
                assert closures[0] is None, (name, variant)
            if variant == "swap":
                # the swap passes the gate, and the law fails
                assert want >= 0, name
                assert (closures[0] is not None) == group, name
            fails += want >= 0
    assert fails > 100


def reachable(law, some):
    """The classes of a class-cut exchange law whose translation is the
    identity, or is reached from one of the classes `some` by composing
    with their translations, each step landing on a class: where the law
    holds once it holds at `some`.  Rows as bytes, one composition at a time."""
    N, K = law.N, law.tail
    rows = law.opz.reshape(N, K).T
    index = {row.tobytes(): k for k, row in enumerate(rows)}
    found = {int(k) for k in some}
    ident = index.get(np.arange(N, dtype=rows.dtype).tobytes())
    if ident is not None:
        found.add(ident)
    stack = list(found)
    while stack:
        a = stack.pop()
        for g in some:
            k = index.get(rows[a][rows[g]].tobytes())
            if k is not None and k not in found:
                found.add(k)
                stack.append(k)
    return found


def assert_closure_is_sound(law, some):
    """The classes `_generating_classes` leaves out are all reachable."""
    if some is not None:
        assert reachable(law, some) == set(range(law.tail)), (law.N, law.tail, some)


def test_a_law_that_holds_on_a_subgroup_is_scanned_on_every_class():
    # conjugation by z is an endomorphism of x c y exactly when z commutes
    # with c, so the law holds at the classes of the centralizer of c and
    # fails at the others.  Relabeled so that c, of order 3, is the first
    # class after the identity: the first generator lies in the centralizer,
    # and every class is T_k o T_c for some k, so a closure that composed
    # uncovered classes would cover every class after one scan that holds.
    S5 = symmetric_group(5)
    C = S5.cayley.reshape(120, 120)
    perm = list(range(120))
    perm[1], perm[3] = 3, 1
    tm = as_i64(relabel(OpTable(120, 2, C[C[:, 3][:, None], np.arange(120)].ravel()), perm).table)
    conj = as_i64(relabel(conj_quandle(S5), perm).table)
    law = kernels._tail_classes(kernels.exchange_law(tm, conj, 120, 2, 2))[0]
    some = kernels._generating_classes(law, 1 << 62)
    assert_closure_is_sound(law, some)
    assert some is not None and some[0] == 1
    want = exchange_oracle(tm, conj, 120, 2, 2)
    assert want[0] >= 0
    assert exchange_scan(tm, conj, 120, 2, 2) == want[0]
    assert kernels.witness(kernels.exchange_law(tm, conj, 120, 2, 2), want[0])[1:] == want[1:]


def test_a_racks_law_is_scanned_on_its_generating_classes(tmp_path, monkeypatch, capsys):
    # the heap of D20 has 40 tail classes and conjugation on S5 has 120;
    # each forms a group, so at most log2 K + 1 classes are scanned, once.
    # The core quandle's translations never compose into one another, so
    # it is scanned on all of its 120 classes, as before.
    scanned = []
    scan_range = kernels._scan_range

    def spy(law, lo, hi):
        scanned.append(law.tail)
        return scan_range(law, lo, hi)

    monkeypatch.setattr(kernels, "_scan_range", spy)
    S5 = symmetric_group(5)
    for name, op, K in (("heap-D20", heap_op(dihedral_group(20)), 40),
                        ("conj-S5", conj_quandle(S5), 120), ("core-S5", core_quandle(S5), 120)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(op.as_json()))
        scanned.clear()
        assert cli.main(["check", "axioms", str(path)]) == 0, name
        if name == "core-S5":
            assert scanned == [K]
        else:
            assert len(scanned) == 1 and scanned[0] <= K.bit_length(), (name, scanned)
    capsys.readouterr()


def test_out_of_range_entries_are_refused():
    # the gathers clip indices, so a bad entry would read a wrong row
    bad = DIH3.copy()
    bad[4] = 3
    with pytest.raises(InputError):
        exchange_scan(bad, DIH3, 3, 2, 2)
    bad[4] = -1
    with pytest.raises(InputError):
        compat_scan(TRIV3, np.resize(bad, 27), 3, 1)
    with pytest.raises(InputError):
        nary_cocycle_scan(DIH3, np.full(9, 3), 3, 2, 3)
    with pytest.raises(InputError):
        exchange_scan(DIH3[:8], DIH3, 3, 2, 2)
    # one array passed as both tables is still checked against each arity
    with pytest.raises(InputError, match="acting table has 9 entries"):
        exchange_scan(DIH3, DIH3, 3, 2, 3)


# ---------------------------------------------------------------------------
# frozen spot values and failure positions

def test_exchange_known_values():
    assert exchange_scan(DIH3, DIH3, 3, 2, 2) == -1
    assert exchange_scan(Z8, Z8, 8, 3, 3) == -1
    # x + y fails self-distributivity first at (0, 0, 1), flat index 1
    assert exchange_scan(PLUS3, PLUS3, 3, 2, 2) == 1


def unary_exchange_ref(tm, f, N, m):
    """First tuple (x, y..) with f(tm(x, y..)) != tm(f(x), f(y)..), with both
    sides, or None: the direct formula, one tuple at a time."""
    for args in itertools.product(range(N), repeat=m):
        lhs = int(f[tm[index_of(args, N)]])
        rhs = int(tm[index_of(tuple(f[v] for v in args), N)])
        if lhs != rhs:
            return args, lhs, rhs
    return None


def index_of(args, N):
    flat = 0
    for v in args:
        flat = flat * N + int(v)
    return flat


def test_unary_exchange_law_is_the_endomorphism_law():
    # with n = 1 the acting table is a map f, and the law says that f is an
    # endomorphism of tm; drawn tables against drawn maps mostly fail, and
    # identities, idempotent constants and unit multiples of an affine
    # table hold
    draw = np.random.default_rng(0xE1D0)
    seen = {True: 0, False: 0}
    for N, m in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (4, 3)):
        tables = [draw.integers(0, N, N ** m) for _ in range(6)]
        tables.append(as_i64(affine_op(N, m, [N - 1] + [1] * (m - 2)).table))
        for tm in tables:
            maps = [draw.integers(0, N, N) for _ in range(6)]
            maps.append(np.arange(N))
            maps += [np.full(N, x) for x in range(N) if tm[index_of((x,) * m, N)] == x]
            maps += [np.arange(N) * u % N for u in range(2, N)]
            for f in maps:
                f = as_i64(f)
                want = unary_exchange_ref(tm, f, N, m)
                law = kernels.exchange_law(tm, f, N, m, 1)
                assert bool(kernels.holds(law)[0]) == (want is None)
                flat = exchange_scan(tm, f, N, m, 1)
                if want is None:
                    assert flat == -1
                else:
                    assert flat == index_of(want[0], N)
                    assert kernels.witness(law, flat) == want
                seen[want is None] += 1
    assert seen[True] > 20 and seen[False] > 20
    # a map must have one entry per point
    for bad in (np.arange(2), np.arange(4), np.arange(9)):
        with pytest.raises(InputError, match="acting table has"):
            kernels.exchange_law(DIH3, bad, 3, 2, 1)
        with pytest.raises(InputError, match="acting table has"):
            exchange_scan(DIH3, bad, 3, 2, 1)


def test_translation_known_values():
    assert translation_scan(DIH3, 3, 2) == -1
    assert translation_scan(Z8, 8, 3) == -1
    assert translation_scan(np.zeros(9, np.int64), 3, 2) == 0
    # break only the tail t=2 column of an otherwise bijective table
    broken = DIH3.copy()
    broken[0 * 3 + 2] = broken[1 * 3 + 2]
    assert translation_scan(broken, 3, 2) == 2


def test_cocycle_known_values():
    # over a projection every cochain satisfies the condition identically
    assert nary_cocycle_scan(TRIV3, PSI3 % 3, 3, 3, 3) == -1
    # coboundaries phi(x, t) = eta(x) - eta(W(x, t)) are cocycles of any SD op
    eta = np.array([0, 1, 2], np.int64)
    phi2 = np.array([(eta[x] - eta[DIH3[x * 3 + y]]) % 3
                     for x in range(3) for y in range(3)], np.int64)
    assert nary_cocycle_scan(DIH3, phi2, 3, 2, 3) == -1
    eta8 = np.arange(8, dtype=np.int64) % 3
    phi3 = np.array([(eta8[i // 64] - eta8[Z8[i]]) % 3 for i in range(512)],
                    np.int64)
    assert nary_cocycle_scan(Z8, phi3, 8, 3, 3) == -1
    # bumping phi(0,0) first breaks the condition at (0,0,1): the bump
    # cancels at (0,0,0) but leaves lhs - rhs = 1 once z = 1
    bumped = phi2.copy()
    bumped[0] = (bumped[0] + 1) % 3
    idx = nary_cocycle_scan(DIH3, bumped, 3, 2, 3)
    assert idx == 1
    assert idx == cocycle_oracle(DIH3, bumped, 3, 2, 3)[0]


def test_compat_known_pair():
    assert compat_scan(Z8, T1, 8, 1) == -1
    assert compat_scan(Z8, T1, 8, 2) == -1
    # y vs 3y + 2z over Z4 first breaks identity 2 at (0, 0, 0, 0, 1)
    A = as_i64(affine_op(4, 3, (0, 1)).table)
    B = as_i64(affine_op(4, 3, (0, 3)).table)
    assert compat_scan(A, B, 4, 2) == 1


# ---------------------------------------------------------------------------
# memory stays bounded by the slab, not by N^5

def test_compat_check_memory_is_bounded(run_fresh):
    # the peak is read from VmHWM, which starts afresh at exec; ru_maxrss
    # is carried across fork and exec, so it may report the test run's peak
    code = (
        "from selfdist import affine_op, are_compatible_ternary\n"
        "res = are_compatible_ternary(affine_op(32, 3, [3, -2]),"
        " affine_op(32, 3, [5, 0]))\n"
        "print(bool(res), next(line.split()[1] for line in"
        " open('/proc/self/status') if line.startswith('VmHWM')))\n"
    )
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    holds, peak_kib = proc.stdout.split()
    assert holds == "True"
    assert int(peak_kib) < 200 * 1024, f"peak RSS {int(peak_kib) / 1024:.0f} MiB"


# ---------------------------------------------------------------------------
# narrow values: the blocks hold table entries in uint8 up to N = 256 and
# residue sums in the least unsigned dtype above 2d - 2

# (row, column) of a changed entry whose first failure has both sides at
# least 128, and for N = 257 one whose first failure, (0, 255, 0), lies past
# the first block of 255 leading tuples
CHANGED = {255: [(253, 63)], 256: [(255, 253)], 257: [(255, 63), (255, 0)]}


@pytest.mark.parametrize("N", sorted(CHANGED))
def test_alexander_quandles_at_dtype_boundaries(N):
    # -x + 2y is a quandle on Z/N for every N
    tab = as_i64(affine_op(N, 2, (N - 1,)).table)
    assert exchange_scan(tab, tab, N, 2, 2) == -1
    firsts = []
    for row, col in CHANGED[N]:
        bad = perturbed(tab, N, row * N + col)
        flat, lhs, rhs = exchange_oracle(bad, bad, N, 2, 2)
        law = kernels.exchange_law(bad, bad, N, 2, 2)
        assert kernels._scan(law) == flat
        args, l, r = kernels.witness(law, flat)
        assert args == index_to_tuple(flat, N, 3) and (l, r) == (lhs, rhs)
        firsts.append((min(lhs, rhs) >= 128, flat))
    assert firsts[0][0]
    if N == 257:
        assert firsts[1][1] == 255 * N


def near(d, count):
    """`count` residues mod d, drawn from the ends of 0..d-1 and between."""
    pool = [0, 1, d // 2, d - 2, d - 1]
    return np.array([rng.choice(pool) if rng.random() < 0.7 else rng.randrange(d)
                     for _ in range(count)], np.int64) % d


def big_coboundary(table, size, arity, d):
    """`coboundary` with f(x) = d - 1 - x, whose sides sum past 2^63 at d
    near it."""
    f = [(d - 1 - x) % d for x in range(size)]
    P = size ** (arity - 1)
    return np.array([(f[i // P] - f[int(v)]) % d for i, v in enumerate(table)],
                    np.int64)


MODULI = [127, 128, 255, 256, 32767, 32768, 2 ** 31 + 11, 2 ** 63 - 1]


@pytest.mark.parametrize("d", MODULI)
def test_cocycle_laws_at_dtype_boundaries(d):
    cases = {"cocycle": [], "mutual_cocycle": [], "compat_cocycle": []}
    for W, N, k in ((DIH3, 3, 2), (DIH5, 5, 2), (Z8, 8, 3)):
        phi = big_coboundary(W, N, k, d)
        cases["cocycle"] += [(W, phi, N, k, d), (W, perturbed(phi, d, len(W) - 2), N, k, d)]
    for size, arity in ((2, 2), (3, 2), (2, 3)):
        for _ in range(3):
            cases["cocycle"].append((rand_table(size, arity), near(d, size ** arity),
                                     size, arity, d))
    p2, p3 = big_coboundary(AL2, 5, 2, d), big_coboundary(AL3, 5, 2, d)
    for pair in ((p2, p3), (perturbed(p2, d, 14), p3), (near(d, 25), near(d, 25))):
        cases["mutual_cocycle"] += [(AL2, AL3, *pair, 5, d, w) for w in (1, 2)]
    s = (np.full(125, d - 1, np.int64), np.full(125, d - 1, np.int64))
    for pair in (s, (perturbed(s[0], d, 98), s[1]), (near(d, 125), near(d, 125))):
        cases["compat_cocycle"] += [(CA5, CB5, *pair, 5, d, w) for w in (1, 2)]
    holding = 0
    for name, group in cases.items():
        scan, law, oracle, _ = SCANS[name]
        for case in group:
            flat, lhs, rhs = oracle(*case)
            assert scan(*case) == flat, (name, case)
            holding += flat < 0
            if flat >= 0:
                args, l, r = kernels.witness(law(*case), flat)
                assert (l, r) == (lhs, rhs), (name, case)
    assert holding >= 7
