"""Tests of the benchmark itself: short runs, tracer arithmetic, answer checks.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import random
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import oracle as O  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- short mode of each workload ---------------------------------------------

@pytest.mark.parametrize("workload", ["scan", "homology", "classify", "construct"])
def test_short_run_is_correct_and_reports_every_metric(workload):
    res = _run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", "0", "--short")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = {m["name"] for m in _bench_json()["end_to_end"]}
    assert set(res["metrics"]) == names
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_short_traced_run_reports_every_layer_metric():
    res = _run("--workload", "scan", "--seed", "5", "--seconds", "1",
               "--trace", "1", "--short")
    names = {m["name"] for m in _bench_json()["per_layer"]}
    assert set(res["metrics"]) == names
    assert res["metrics"]["kernels.exchange_scan.calls"]["value"] > 0
    assert res["metrics"]["self_share.kernels"]["value"] > 0


def test_benchmark_json_matches_layer_table():
    bench = _bench_json()
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "worker.py"):
        (tmp_path / "perfbench" / name).write_text(
            open(os.path.join(BENCH, name), encoding="utf-8").read())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


# -- tracer ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tr = Tracer(clock=clock, groups={"both": {"a.outer", "a.inner"}})
    outer = tr.enter("a.outer")            # [0, 10]
    clock.now = 2
    child = tr.enter("a.inner")            # [2, 5]
    clock.now = 5
    tr.exit(child)
    clock.now = 6
    child = tr.enter("b.leaf")             # [6, 9] with a grandchild [7, 8]
    clock.now = 7
    grand = tr.enter("a.inner")
    clock.now = 8
    tr.exit(grand)
    clock.now = 9
    tr.exit(child)
    clock.now = 10
    tr.exit(outer)
    assert tr.self_s["a.outer"] == 4       # 10 - 3 - 3
    assert tr.self_s["b.leaf"] == 2        # 3 - 1
    assert tr.self_s["a.inner"] == 4       # 3 + 1
    assert tr.layer_self() == {"a": 8, "b": 2}
    assert tr.group_s["both"] == 10        # nested members counted once
    assert tr.edge_s[("a.outer", "b.leaf")] == 3
    parents = {s[0]: s[1] for s in tr.spans}
    assert parents[2] == 1 and parents[4] == 3 and parents[1] is None


def test_install_wraps_every_binding_and_reports_missing():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1
    a.f = f
    b.f = f                                # a `from .a import f` copy
    pkg.f = f
    saved = {n: sys.modules.get(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        seen = []
        tr = Tracer()
        tr.install("fakepkg", [("a", "f", "a.f", lambda t, args, r: seen.append(args["x"])),
                               ("a", "gone", "a.gone", None)])
        assert b.f(1) == 2 and pkg.f(2) == 3 and a.f(3) == 4
        assert tr.calls["a.f"] == 3 and seen == [1, 2, 3]
        assert tr.missing == ["a.gone"]
        tr.uninstall()
        assert a.f is f and b.f is f and pkg.f is f
    finally:
        for n, m in saved.items():
            if m is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = m


# -- failed jobs count against failed_frac -----------------------------------

def _cli(rc, body):
    return W.CliOut(rc, json.dumps(body, indent=2), 0, None)


def test_wrong_answers_and_crashes_count_as_failed():
    r3 = {"artifacts": [{"name": "H_3", "content": {"betti": 1, "torsion": [3]}}],
          "verdicts": []}
    wrong = {"artifacts": [{"name": "H_3", "content": {"betti": 1, "torsion": []}}],
             "verdicts": []}
    check = W._homology_check("R3", "homology", 3, None)

    def crash():
        raise RuntimeError("boom")
    jobs = [W.Job("right", lambda: _cli(0, r3), check),
            W.Job("wrong", lambda: _cli(0, wrong), check),
            W.Job("crash", crash, check)]
    runner = Runner(jobs)
    runner.run_pass()
    assert runner.attempted == 3
    assert [name for name, _ in runner.failures] == ["wrong", "crash"]


def test_a_witness_that_does_not_violate_the_identity_is_wrong():
    n = 3
    t = O.affine_ref(n, [2, 2])             # R3, self-distributive
    bad = t.copy()
    bad[1] = (bad[1] + 1) % n
    w = O.find_violation("sd", (bad, n, 2), n, 3, [0, 1], random.Random(0))
    assert w is not None
    holds = {"verdicts": [{"property": "self-distributive", "holds": False,
                           "counterexample": {"witness": [2, 2, 2], "lhs": 0, "rhs": 1},
                           "detail": ""}], "artifacts": []}
    with pytest.raises(O.Wrong):
        W.expect_fails(_cli(1, holds), "sd", (bad, n, 2))
    holds["verdicts"][0]["counterexample"]["witness"] = list(w)
    W.expect_fails(_cli(1, holds), "sd", (bad, n, 2))
    with pytest.raises(O.Wrong):
        W.expect_fails(_cli(0, holds), "sd", (bad, n, 2))


# -- the oracle's own facts ----------------------------------------------------

def test_compatible_affine_pairs_hold_by_brute_force():
    n = 6
    A = O.affine_ref(n, [5, (1 - 5) % n, 0])
    B = O.affine_ref(n, [3, 0, (1 - 3) % n])
    for w in np.ndindex(*(n,) * 5):
        for which in (1, 2):
            lhs, rhs = O.compat_sides(A, B, n, which, w)
            assert lhs == rhs


def test_known_quandles_are_pairwise_non_isomorphic():
    def core(n):
        return O.core_ref(O.cyclic_cayley(n))
    bases = {5: [np.repeat(np.arange(5), 5), core(5), O.affine_ref(5, [2, 4]),
                 O.affine_ref(5, [3, 3])],
             6: [np.repeat(np.arange(6), 6), core(6), O.conj_ref(O.symmetric_cayley(3)),
                 O.core_ref(O.symmetric_cayley(3))]}
    for n, tables in bases.items():
        keys = {O.canonical(t, n, 2) for t in tables}
        assert len(keys) == len(tables)


def test_rack_betti_numbers_are_orbit_powers():
    # Etingof-Grana: the free rank of H_n of a finite rack is |orbits|^n
    orbits = {"R3": 1, "R4": 2, "R5": 1, "R6": 2, "A5t2": 1, "S3": 3}
    for name, k in orbits.items():
        for deg, (betti, _) in W.PINNED[name].items():
            assert betti == k ** deg, (name, deg)


def test_pinned_homology_matches_an_independent_rank_computation():
    # Betti numbers and the count of p-divisible torsion factors (p <= 7) of
    # every pinned group, including the anchors read from the package, from
    # ranks of boundaries the oracle builds entry by entry
    def core(n):
        return O.core_ref(O.cyclic_cayley(n))
    systems = {"R3": ([(core(3), 2)], 3), "R4": ([(core(4), 2)], 4),
               "R5": ([(core(5), 2)], 5), "R6": ([(core(6), 2)], 6),
               "A5t2": ([(O.affine_ref(5, [2, 4]), 2)], 5),
               "S3": ([(O.conj_ref(O.symmetric_cayley(3)), 2)], 6),
               "T3": ([(O.affine_ref(3, [1, 1, 2]), 3)], 3),
               "R3pair": ([(core(3), 2), (core(3), 2)], 3)}
    assert set(systems) == set(W.PINNED)
    for name, (system, n) in systems.items():
        for deg, (betti, tors) in W.PINNED[name].items():
            want = (betti, {p: sum(1 for d in tors if d % p == 0) for p in (2, 3, 5, 7)})
            assert O.homology_ranks(system, n, deg) == want, (name, deg)


def test_ternary_racks_on_three_points_number_129():
    # A ternary rack is an assignment of a permutation R_Y to each of the 9
    # pairs Y with R_Z R_Y = R_(R_Z Y) R_Z for all pairs Y, Z.  Assignments
    # are extended one pair at a time, keeping those whose conditions hold
    # wherever every pair involved is already assigned.
    import itertools
    perms = np.array(list(itertools.permutations(range(3))))
    index = {tuple(p): i for i, p in enumerate(perms)}
    comp = np.array([[index[tuple(a[b])] for b in perms] for a in perms])   # a after b
    pairs = [(y0, y1) for y0 in range(3) for y1 in range(3)]
    frontier = np.zeros((1, 0), dtype=np.int64)
    for j in range(9):
        rows = len(frontier)
        frontier = np.column_stack([np.repeat(frontier, 6, axis=0),
                                    np.tile(np.arange(6), rows)])
        keep = np.ones(len(frontier), dtype=bool)
        for y in range(j + 1):
            for z in range(j + 1):
                Rz, Ry = frontier[:, z], frontier[:, y]
                moved = perms[Rz, pairs[y][0]] * 3 + perms[Rz, pairs[y][1]]
                known = moved <= j
                Rm = frontier[np.arange(len(frontier)), np.minimum(moved, j)]
                keep &= ~known | (comp[Rz, Ry] == comp[Rm, Rz])
        frontier = frontier[keep]
    assert len(frontier) == W.RACKS_3_3 == 129
