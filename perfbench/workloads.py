"""The four workloads: job lists built at set-up, each job with its own check.

A workload function receives a Ctx (seeded random source and a directory for
input files) and the imported selfdist package, writes its inputs, and
returns Jobs.  The seed changes relabelings, perturbation positions,
cochains and job order; it never changes job sizes.  Every job looks the
package up at call time (`sd.cli.main`, `sd.enumeration.f`), so a traced run
sees the wrapped functions.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle as O
from oracle import Wrong, expect


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    heavy: bool = False          # left out of the short mode


@dataclass
class CliOut:
    rc: int
    text: str
    bytes_out: int
    path: str | None


class Ctx:
    def __init__(self, rng, workdir):
        self.rng = rng
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name, obj):
        path = os.path.join(self.dir, name + ".json")
        # json.dumps runs the C encoder; json.dump would stream through the
        # pure-Python one and make set-up time mostly the benchmark's writing
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj))
        return path

    def out(self, name):
        return os.path.join(self.dir, name + ".out.json")

    def perm(self, n):
        p = list(range(n))
        self.rng.shuffle(p)
        return p


def table_json(n, k, table):
    return {"size": int(n), "arity": int(k), "table": [int(v) for v in table]}


# ---------------------------------------------------------------------------
# CLI jobs

def cli_job(sd, name, argv, check, out=None, heavy=False):
    argv = ["--format", "json", "--jobs", "1"] + list(argv)
    if out:
        argv = ["-o", out] + argv

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = sd.cli.main(argv)
        text = buf.getvalue()
        size = len(text) + (os.path.getsize(out) if out else 0)
        return CliOut(rc, text, size, out)

    return Job(name, run, check, heavy)


def report(out):
    try:
        return json.loads(out.text)
    except json.JSONDecodeError as exc:
        raise Wrong(f"output is not JSON: {exc}")


def artifact(out, name=None):
    """Content of the named (or only) artifact, read from -o file or inline."""
    rep = report(out)
    if out.path:
        with open(out.path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return payload[name] if name else payload
    arts = {a["name"]: a["content"] for a in rep["artifacts"]}
    return arts[name] if name else next(iter(arts.values()))


def expect_holds(out, count):
    rep = report(out)
    expect(out.rc == 0, f"exit {out.rc}, expected 0")
    verdicts = rep["verdicts"]
    expect(len(verdicts) == count, f"{len(verdicts)} verdicts, expected {count}")
    expect(all(v["holds"] for v in verdicts), "a property that holds by theorem was refused")


def expect_fails(out, kind, tables, witness_optional=False):
    """Exit 1, and every reported witness must violate the identity."""
    rep = report(out)
    expect(out.rc == 1, f"exit {out.rc}, expected 1")
    failed = [v for v in rep["verdicts"] if not v["holds"]]
    expect(failed, "no failing verdict for an input that violates the identity")
    for v in failed:
        cex = v["counterexample"]
        if cex is None:
            expect(witness_optional, f"{v['property']} failed without a witness")
            continue
        expect(O.violated(kind, tables, cex["witness"]),
               f"witness {cex['witness']} does not violate the identity")


def expect_table(out, want, name=None):
    expect(out.rc == 0, f"exit {out.rc}, expected 0")
    got = np.asarray(artifact(out, name)["table"])
    expect(got.shape == np.shape(want) and bool((got == want).all()),
           "constructed table differs from the reference gather")


def perturbed(ctx, kind, values, modulus, make_tables, n, nargs, lead_len):
    """Seeded one-entry change of `values` that provably violates the identity."""
    for _ in range(64):
        bad, i = O.perturb(values, modulus, ctx.rng)
        tables = make_tables(bad)
        lead = np.unravel_index(i, (n,) * lead_len)
        if O.find_violation(kind, tables, n, nargs, [int(v) for v in lead], ctx.rng):
            return bad, tables
    raise RuntimeError("no violating perturbation found")


# ---------------------------------------------------------------------------
# scan: CLI checks on table files

def scan(ctx, sd):
    """check axioms|mutual|compat|cocycle; about a quarter of jobs are perturbed."""
    jobs = []
    G = {"S4": sd.symmetric_group(4), "D12": sd.dihedral_group(12),
         "D15": sd.dihedral_group(15), "D16": sd.dihedral_group(16),
         "C6xC6": sd.direct_product(sd.cyclic_group(6), sd.cyclic_group(6)),
         "D20": sd.dihedral_group(20), "S5": sd.symmetric_group(5),
         "S4xC5": sd.direct_product(sd.symmetric_group(4), sd.cyclic_group(5)),
         "D60": sd.dihedral_group(60), "C120": sd.cyclic_group(120),
         "D5": sd.dihedral_group(5), "C31": sd.cyclic_group(31)}

    def relabeled(op):
        return sd.relabel(op, ctx.perm(op.size))

    def axioms(name, op, props, heavy=False):
        path = ctx.write(name, op.as_json())
        plist = props.split(",") if props else ["sd", "rack", "quandle"]
        argv = ["check", "axioms", path] + (["--props", props] if props else [])
        jobs.append(cli_job(sd, f"axioms:{name}", argv,
                            lambda out: expect_holds(out, len(plist)), heavy=heavy))
        bad_jobs.append((name, op, props, plist))

    def axioms_bad(name, op, props, plist):
        n, k = op.size, op.arity
        bad, tables = perturbed(ctx, "sd", op.table, n, lambda t: (t, n, k), n,
                                2 * k - 1, k)
        path = ctx.write(name + "-bad", table_json(n, k, bad))
        argv = ["check", "axioms", path] + (["--props", props] if props else [])
        # a changed entry leaves a translation non-bijective, so rack and
        # quandle verdicts may fail without a witness
        jobs.append(cli_job(sd, f"axioms-bad:{name}", argv, lambda out: expect_fails(
            out, "sd", tables, witness_optional=plist != ["sd"])))

    bad_jobs = []
    # ternary heaps of groups of order 24-40: N^5 tuples per scan
    # rank 0.9 of the job times falls inside the block of the S4 and two D15
    # heap jobs (three costlier jobs above it, 45 jobs)
    for name, g, props in (("D20", "D20", None), ("C6xC6", "C6xC6", "sd"),
                           ("D16", "D16", "rack"), ("S4", "S4", None),
                           ("D15", "D15", "quandle"), ("D15b", "D15", "quandle"),
                           ("D12", "D12", "sd")):
        axioms(f"heap-{name}", relabeled(sd.heap_op(G[g])), props, heavy=G[g].size > 24)
    # binary quandles of groups up to order 120
    def alex(g, f):
        return sd.generalized_alexander(G[g], f)
    C = G["S5"].cayley.reshape(120, 120)
    h = ctx.rng.randrange(1, 120)
    inner = C[C[G["S5"].inverse[h], np.arange(120)], h]
    for name, op, props in (
            ("conj-S5", sd.conj_quandle(G["S5"]), None),
            ("core-S5", sd.core_quandle(G["S5"]), None),
            ("conj-S4xC5", sd.conj_quandle(G["S4xC5"]), "quandle"),
            ("core-D60", sd.core_quandle(G["D60"]), None),
            ("alex-C120", alex("C120", (7 * np.arange(120)) % 120), None),
            ("alex-S5", alex("S5", inner), "rack"),
            ("conj-D12", sd.conj_quandle(G["D12"]), None),
            ("core-C31", sd.core_quandle(G["C31"]), "sd"),
            ("conj-S4", sd.conj_quandle(G["S4"]), None),
            ("core-D20", sd.core_quandle(G["D20"]), "rack"),
            ("conj-D15", sd.conj_quandle(G["D15"]), None),
            ("core-S4", sd.core_quandle(G["S4"]), "quandle"),
            ("core-D12", sd.core_quandle(G["D12"]), None),
            ("core-D15", sd.core_quandle(G["D15"]), "sd"),
            ("conj-D60", sd.conj_quandle(G["D60"]), "rack")):
        axioms(name, relabeled(op), props)
    for name, op, props, plist in bad_jobs:
        if name in ("heap-D20", "heap-C6xC6", "heap-S4", "heap-D16",
                    "conj-S5", "core-D60", "alex-C120"):
            axioms_bad(name, op, props, plist)

    # mutually distributive pairs: product pairs act in separate factors, and
    # any two powers of a rack distribute over each other
    conj_s5 = relabeled(sd.conj_quandle(G["S5"]))
    alex_c = relabeled(alex("C120", (7 * np.arange(120)) % 120))
    prod = sd.product_mutual_pair(sd.conj_quandle(G["S4"]), sd.core_quandle(G["D5"]))
    p = ctx.perm(prod[0].size)
    pairs = {"prod-S4-D5": (sd.relabel(prod[0], p), sd.relabel(prod[1], p)),
             "pow-conj-S5": (conj_s5, sd.power_op(conj_s5, 2)),
             "pow-alex-C120": (alex_c, sd.power_op(alex_c, 3))}
    for name, (a, b) in pairs.items():
        pa, pb = ctx.write(name + "-0", a.as_json()), ctx.write(name + "-1", b.as_json())
        jobs.append(cli_job(sd, f"mutual:{name}", ["check", "mutual", pa, pb],
                            lambda out: expect_holds(out, 1)))
    a, b = pairs["prod-S4-D5"]
    n = a.size
    bad, tables = perturbed(ctx, "mutual", a.table, n, lambda t: (t, b.table), n, 3, 2)
    pa = ctx.write("mutual-bad-0", table_json(n, 2, bad))
    pb = ctx.write("mutual-bad-1", b.as_json())
    jobs.append(cli_job(sd, "mutual-bad:prod-S4-D5", ["check", "mutual", pa, pb],
                        lambda out, tables=tables: expect_fails(out, "mutual", tables)))

    # compatible affine ternary pairs: T0 = t x + (1-t) y and T1 = t' x + (1-t') z
    # satisfy both identities, whose residues r(t'-t), r(s'-s), s'(t'-t),
    # s'(s'-s) all vanish with r = 0 and s' = 0
    for n, t, tp in ((16, 3, 5), (18, 5, 7), (20, 3, 9)):
        p = ctx.perm(n)
        A = sd.relabel(sd.affine_op(n, 3, [t, 1 - t]), p)
        B = sd.relabel(sd.affine_op(n, 3, [tp, 0]), p)
        pa, pb = ctx.write(f"compat-{n}-0", A.as_json()), ctx.write(f"compat-{n}-1", B.as_json())
        jobs.append(cli_job(sd, f"compat:Z{n}", ["check", "compat", pa, pb],
                            lambda out: expect_holds(out, 1)))
        if n == 18:
            bad, tables = perturbed(ctx, "compat", A.table, n,
                                    lambda t, B=B, n=n: (t, B.table, n), n, 5, 3)
            pa = ctx.write("compat-bad-0", table_json(n, 3, bad))
            jobs.append(cli_job(sd, "compat-bad:Z18", ["check", "compat", pa, pb],
                                lambda out, tables=tables: expect_fails(out, "compat", tables)))

    # 2-cocycles: coboundaries f(W(x, y..)) - f(x) plus a constant satisfy the
    # cocycle condition over every self-distributive W
    def coboundary(op, d):
        f = np.array([ctx.rng.randrange(d) for _ in range(op.size)])
        c = ctx.rng.randrange(d)
        P = op.size ** (op.arity - 1)
        return (f[op.table] - np.repeat(f, P) + c) % d

    def cochain_json(k, d, values):
        return {"nargs": k, "coeff": [d], "values": [[int(v)] for v in values]}

    for name, op, d, bad in (("conj-S5", conj_s5, 7, True),
                             ("core-D60", relabeled(sd.core_quandle(G["D60"])), 5, False),
                             ("heap-S4", relabeled(sd.heap_op(G["S4"])), 4, True),
                             ("heap-D12", relabeled(sd.heap_op(G["D12"])), 3, False)):
        n, k = op.size, op.arity
        phi = coboundary(op, d)
        po = ctx.write(f"cocycle-{name}-op", op.as_json())
        pc = ctx.write(f"cocycle-{name}", cochain_json(k, d, phi))
        jobs.append(cli_job(sd, f"cocycle:{name}", ["check", "cocycle", po, pc],
                            lambda out: expect_holds(out, 1)))
        if bad:
            wrong, tables = perturbed(ctx, "cocycle", phi, d,
                                      lambda v, op=op, n=n, k=k, d=d: (op.table, v, n, k, d),
                                      n, 2 * k - 1, k)
            pc = ctx.write(f"cocycle-{name}-bad", cochain_json(k, d, wrong))
            jobs.append(cli_job(sd, f"cocycle-bad:{name}", ["check", "cocycle", po, pc],
                                lambda out, tables=tables: expect_fails(out, "cocycle", tables)))

    # abelian extensions by those cocycles: (x, a) * (y.., b..) = (W(x, y..), a + phi(x, y..))
    for name, op, d in (("conj-S4", relabeled(sd.conj_quandle(G["S4"])), 3),
                        ("heap-S3", relabeled(sd.heap_op(sd.symmetric_group(3))), 2)):
        n, k = op.size, op.arity
        phi = coboundary(op, d)
        po = ctx.write(f"extend-{name}-op", op.as_json())
        pc = ctx.write(f"extend-{name}", cochain_json(k, d, phi))
        grid = np.indices((n * d,) * k).reshape(k, -1)
        base = np.zeros(grid.shape[1], dtype=np.int64)
        for row in grid:
            base = base * n + row // d
        want = op.table[base] * d + (grid[0] % d + phi[base]) % d
        jobs.append(cli_job(sd, f"extend:{name}", ["cocycle", "extend", "--op", po,
                                                   "--cochain", pc],
                            lambda out, want=want: expect_table(out, want)))
    return jobs


# ---------------------------------------------------------------------------
# homology: CLI homology / cohomology on relabeled inputs

# Integral groups H_n as (betti, torsion); FACTS.md gives the source of each,
# and the benchmark's tests recompute every row by independent ranks.
PINNED = {
    "R3": {1: (1, ()), 2: (1, ()), 3: (1, (3,)), 4: (1, (3, 3))},
    "R4": {1: (2, ()), 2: (4, (2, 2)), 3: (8, (2,) * 6)},
    "R5": {1: (1, ()), 2: (1, ()), 3: (1, (5,))},
    "R6": {1: (2, ()), 2: (4, ())},
    "A5t2": {1: (1, ()), 2: (1, ()), 3: (1, ())},
    "S3": {1: (3, ()), 2: (9, (3,))},
    "T3": {1: (1, ()), 2: (3, ()), 3: (9, ())},
    "R3pair": {1: (1, ()), 2: (2, ()), 3: (4, (3,))},
}

# Copies are seeded relabelings.  Rank 0.9 of the job times falls inside the
# block of three R3 degree-4 Z/3 jobs (four costlier jobs above it, 55 jobs),
# so p90 does not jump between two job kinds from run to run.
HOMOLOGY_JOBS = [
    # input, command, degree, coefficient (None = Z), copies
    ("T3", "homology", 3, None, 1), ("T3", "homology", 2, None, 1),
    ("T3", "homology", 2, 3, 1),
    ("R3", "homology", 2, None, 3), ("R3", "homology", 3, None, 4),
    ("R3", "homology", 4, None, 1), ("R3", "homology", 3, 3, 1),
    ("R3", "homology", 4, 3, 3), ("R3", "cohomology", 2, 3, 3),
    ("R3", "cohomology", 3, 3, 1),
    ("R4", "homology", 2, None, 4), ("R4", "homology", 3, None, 1),
    ("R4", "homology", 3, 2, 1), ("R4", "cohomology", 2, 2, 3),
    ("R5", "homology", 2, None, 4), ("R5", "homology", 3, None, 1),
    ("R5", "homology", 2, 5, 1), ("R5", "cohomology", 2, 5, 1),
    ("R6", "homology", 2, None, 3), ("R6", "homology", 2, 3, 2),
    ("R6", "cohomology", 2, 2, 1),
    ("A5t2", "homology", 2, None, 4), ("A5t2", "homology", 3, None, 1),
    ("A5t2", "cohomology", 2, 5, 1),
    ("S3", "homology", 2, None, 4), ("S3", "homology", 2, 3, 1),
    ("S3", "cohomology", 2, 3, 1),
    ("R3pair", "homology", 2, None, 1), ("R3pair", "homology", 3, None, 1),
]


def homology(ctx, sd):
    """Boundary assembly and Smith reduction, integral and with Z/p coefficients."""
    core = lambda n: sd.core_quandle(sd.cyclic_group(n))
    bases = {"R3": core(3), "R4": core(4), "R5": core(5), "R6": core(6),
             "A5t2": sd.affine_op(5, 2, [2]),
             "S3": sd.conj_quandle(sd.symmetric_group(3)),
             "T3": sd.affine_op(3, 3, [1, 1])}
    jobs = []
    for idx, (base, cmd, deg, coeff, copies) in enumerate(HOMOLOGY_JOBS):
        for copy in range(copies):
            tag = f"{base}-{idx}-{copy}"
            if base == "R3pair":
                p = ctx.perm(3)
                target = ["--pair", ctx.write(tag + "-0", sd.relabel(bases["R3"], p).as_json()),
                          ctx.write(tag + "-1", sd.relabel(bases["R3"], p).as_json())]
            else:
                op = bases[base]
                target = ["--op", ctx.write(tag, sd.relabel(op, ctx.perm(op.size)).as_json())]
            argv = [cmd] + target + ["--degree", str(deg)]
            if coeff is not None:
                argv += ["--coeff", str(coeff)]
            name = f"{cmd}:{base}:d{deg}:" + ("Z" if coeff is None else f"Z{coeff}")
            jobs.append(cli_job(sd, name, argv, _homology_check(base, cmd, deg, coeff),
                                heavy=(base, deg) in (("T3", 3), ("R5", 3), ("A5t2", 3))))
    return jobs


def _homology_check(base, cmd, deg, coeff):
    pinned = PINNED[base]

    def check(out):
        expect(out.rc == 0, f"exit {out.rc}, expected 0")
        art = artifact(out)
        if cmd == "cohomology":
            got = tuple(art["invariants"])
            want = O.uct_mod_p(pinned, deg, coeff)
        elif coeff is None:
            got = (art["betti"], tuple(art["torsion"]))
            want = pinned[deg]
        else:
            got = (art["betti"], tuple(art["torsion"]))
            want = (0, O.uct_mod_p(pinned, deg, coeff))
        expect(got == want, f"{cmd} of {base} in degree {deg}: {got}, expected {want}")
    return check


# ---------------------------------------------------------------------------
# classify: enumeration and isomorphism classes (library calls)

# Published counts up to isomorphism (Vojtechovsky-Yang, arXiv:1805.05908) and
# Burnside counts; see FACTS.md.
CLASS_COUNTS = {("ops", 3, 2, "rack"): 6, ("ops", 3, 2, "quandle"): 3,
                ("racks", 4, 2, "rack"): 19, ("racks", 4, 2, "quandle"): 7,
                ("ops", 2, 3, "all"): 136}
# labeled count read from the package when the benchmark was defined, and
# recounted independently by the benchmark's tests; each table is also
# checked to be a ternary rack
RACKS_3_3 = 129


class _Lazy:
    """Oracle values computed once, outside any timed region."""

    def __init__(self):
        self.cache = {}

    def get(self, key, fn):
        if key not in self.cache:
            self.cache[key] = fn()
        return self.cache[key]


def _rows(ops):
    return np.stack([np.asarray(o.table) for o in ops]) if ops else np.zeros((0, 0), int)


def _same_rows(ops, want, chunk=2048):
    """Whether the tables of `ops` are the rows of `want`, in order.

    Compared a chunk at a time, so the check's memory stays below the job's.
    """
    if len(ops) != len(want):
        return False
    for lo in range(0, len(ops), chunk):
        got, exp = _rows(ops[lo:lo + chunk]), want[lo:lo + chunk]
        if got.shape != exp.shape or not (got == exp).all():
            return False
    return True


def _own_kind(tables, n, k, kind):
    if kind == "all":
        return tables
    mask = O.sd_rows(tables, n, k)
    if kind in ("rack", "quandle"):
        mask &= O.rack_rows(tables, n, k)
    if kind == "quandle":
        mask &= O.quandle_rows(tables, n, k)
    return tables[mask]


def _own_racks(n, k, kind):
    """Every table whose translations are permutations, filtered by SD.

    Built and filtered one choice of the first translation at a time, so the
    oracle's memory stays below the enumerator's and peak_rss_mb measures the
    program.
    """
    perms = np.array(list(itertools.permutations(range(n))))
    tails = n ** (k - 1)
    rest = np.indices((len(perms),) * (tails - 1)).reshape(tails - 1, -1).T
    kept = []
    for first in range(len(perms)):
        choice = np.column_stack([np.full(len(rest), first), rest])
        tables = perms[choice].transpose(0, 2, 1).reshape(len(choice), n ** k)
        kept.append(_own_kind(tables, n, k, kind))
    tables = np.concatenate(kept)
    return tables[np.lexsort(tables.T[::-1])]


def _own_partition(ops, n, k):
    keys = [O.canonical(o.table, n, k) for o in ops]
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.values())


def classify(ctx, sd):
    """Full and backtracking enumeration, then pairwise isomorphism classes."""
    lazy = _Lazy()
    jobs = []

    def enum_job(name, call, want_rows, heavy=False):
        def check(ops):
            want = lazy.get(name, want_rows)
            expect(_same_rows(ops, want),
                   f"{len(ops)} tables, expected {len(want)} (or a different set)")
        jobs.append(Job(f"enumerate:{name}", call, check, heavy))

    for n, k in ((3, 2), (2, 3)):
        for kind in ("all", "sd", "rack", "quandle"):
            enum_job(f"ops-{n}-{k}-{kind}",
                     lambda n=n, k=k, kind=kind: sd.enumeration.enumerate_operations(n, k, kind),
                     lambda n=n, k=k, kind=kind: _own_kind(O.all_tables(n, k), n, k, kind))
    for n, k, kind in ((4, 2, "rack"), (4, 2, "quandle"), (3, 2, "rack"), (3, 2, "quandle"),
                       (2, 3, "rack"), (2, 2, "rack")):
        enum_job(f"racks-{n}-{k}-{kind}",
                 lambda n=n, k=k, kind=kind: sd.enumeration.enumerate_racks(n, k, kind),
                 lambda n=n, k=k, kind=kind: _own_racks(n, k, kind))

    def racks_3_3_check(ops):
        expect(len(ops) == RACKS_3_3, f"{len(ops)} ternary racks, expected {RACKS_3_3}")
        rows = _rows(ops)
        expect(all(O.is_rack(r, 3, 3) for r in rows), "a table is not a ternary rack")
        expect(len({r.tobytes() for r in rows}) == len(rows), "duplicate tables")
    jobs.append(Job("enumerate:racks-3-3", lambda: sd.enumeration.enumerate_racks(3, 3),
                    racks_3_3_check))

    def own_affine(m, k, kind):
        rows = []
        for head in itertools.product(range(m), repeat=k - 1):
            coeffs = list(head) + [(1 - sum(head)) % m]
            if kind in ("rack", "quandle") and np.gcd(head[0], m) != 1:
                continue
            rows.append(O.affine_ref(m, coeffs))
        rows = np.array(rows)
        return rows[np.lexsort(rows.T[::-1])]

    for m, k, kind in ((5, 2, "quandle"), (7, 2, "rack"), (4, 3, "sd"), (5, 3, "rack"),
                       (3, 4, "quandle"), (9, 2, "rack"), (5, 2, "rack"), (5, 2, "sd"),
                       (7, 2, "quandle"), (7, 2, "sd"), (11, 2, "rack"), (13, 2, "quandle"),
                       (4, 3, "rack"), (4, 3, "quandle"), (3, 3, "sd"), (3, 3, "rack"),
                       (6, 2, "rack"), (8, 2, "rack"), (9, 2, "quandle"), (3, 4, "sd"),
                       (3, 4, "rack")):
        enum_job(f"affine-{m}-{k}-{kind}",
                 lambda m=m, k=k, kind=kind: sd.enumeration.enumerate_affine(m, k, kind),
                 lambda m=m, k=k, kind=kind: own_affine(m, k, kind))

    def own_pairs(n):
        sdt = _own_kind(O.all_tables(n, 2), n, 2, "sd")
        ok = np.ones((len(sdt), len(sdt)), dtype=bool)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    ok &= _exchange_ok(sdt, n, x, y, z)
        return ok

    for n in (2, 3):
        def pairs_check(pairs, n=n):
            ok = lazy.get(f"pairs-{n}", lambda: own_pairs(n))
            sdt = lazy.get(f"sd-{n}", lambda: _own_kind(O.all_tables(n, 2), n, 2, "sd"))
            index = {r.tobytes(): i for i, r in enumerate(sdt)}
            got = sorted((index[np.asarray(a.table).tobytes()],
                          index[np.asarray(b.table).tobytes()]) for a, b in pairs)
            want = sorted(map(tuple, np.argwhere(ok).tolist()))
            expect(got == want, f"{len(got)} pairs, expected {len(want)}")
        jobs.append(Job(f"enumerate:mutual-{n}",
                        lambda n=n: sd.enumeration.enumerate_mutual_pairs(n),
                        pairs_check))

    # isomorphism classes over the enumerated lists (inputs built at set-up)
    lists = {
        "ops-3-2-sd": (sd.enumeration.enumerate_operations(3, 2, "sd"), 3, 2),
        "ops-3-2-rack": (sd.enumeration.enumerate_operations(3, 2, "rack"), 3, 2),
        "ops-3-2-quandle": (sd.enumeration.enumerate_operations(3, 2, "quandle"), 3, 2),
        "ops-2-3-all": (sd.enumeration.enumerate_operations(2, 3, "all"), 2, 3),
        "ops-2-3-sd": (sd.enumeration.enumerate_operations(2, 3, "sd"), 2, 3),
        "racks-4-2-rack": (sd.enumeration.enumerate_racks(4, 2, "rack"), 4, 2),
        "racks-4-2-quandle": (sd.enumeration.enumerate_racks(4, 2, "quandle"), 4, 2),
        "racks-3-3-rack": (sd.enumeration.enumerate_racks(3, 3, "rack"), 3, 3),
        "affine-5-3-rack": (sd.enumeration.enumerate_affine(5, 3, "rack"), 5, 3),
        "affine-4-3-rack": (sd.enumeration.enumerate_affine(4, 3, "rack"), 4, 3),
        "affine-3-4-quandle": (sd.enumeration.enumerate_affine(3, 4, "quandle"), 3, 4),
        "ops-2-3-rack": (sd.enumeration.enumerate_operations(2, 3, "rack"), 2, 3),
        "ops-2-3-quandle": (sd.enumeration.enumerate_operations(2, 3, "quandle"), 2, 3),
        "affine-3-3-sd": (sd.enumeration.enumerate_affine(3, 3, "sd"), 3, 3),
        "affine-3-3-rack": (sd.enumeration.enumerate_affine(3, 3, "rack"), 3, 3),
        "affine-4-3-quandle": (sd.enumeration.enumerate_affine(4, 3, "quandle"), 4, 3),
        "racks-3-2-rack": (sd.enumeration.enumerate_racks(3, 2, "rack"), 3, 2),
        "racks-3-2-quandle": (sd.enumeration.enumerate_racks(3, 2, "quandle"), 3, 2),
    }
    for name, (ops, n, k) in lists.items():
        src, *_ = name.split("-")
        count = CLASS_COUNTS.get((src, n, k, name.rsplit("-", 1)[1]))

        def check(classes, name=name, ops=ops, n=n, k=k, count=count):
            got = sorted(sorted(c) for c in classes)
            if count is not None:
                expect(len(got) == count, f"{len(got)} classes, expected {count}")
            want = lazy.get("iso-" + name, lambda: _own_partition(ops, n, k))
            expect(got == want, "classes differ from the canonical-form partition")
        jobs.append(Job(f"classes:{name}",
                        lambda ops=ops: sd.enumeration.isomorphism_classes(ops), check,
                        len(ops) > 60))

    # seeded shuffles of relabeled copies of pairwise non-isomorphic quandles
    core = lambda n: sd.core_quandle(sd.cyclic_group(n))
    known = {5: [sd.projection_op(5, 2), core(5), sd.affine_op(5, 2, [2]),
                 sd.affine_op(5, 2, [3])],
             6: [sd.projection_op(6, 2), core(6), sd.conj_quandle(sd.symmetric_group(3)),
                 sd.core_quandle(sd.symmetric_group(3))]}
    # rank 0.9 of the job times falls inside the block of three order-6 jobs
    # (five costlier jobs above it, 65 jobs)
    for job_no, (order, copies) in enumerate(((5, 3), (6, 3), (5, 2), (6, 3), (6, 3),
                                              (5, 2), (5, 2), (5, 3), (5, 3))):
        items = [(b, sd.relabel(q, ctx.perm(order)))
                 for b, q in enumerate(known[order]) for _ in range(copies)]
        ctx.rng.shuffle(items)
        ops = [q for _, q in items]
        want = sorted(sorted(i for i, (b, _) in enumerate(items) if b == base)
                      for base in range(len(known[order])))

        def check(classes, want=want):
            expect(sorted(sorted(c) for c in classes) == want,
                   "copies of one quandle split, or two quandles merged")
        jobs.append(Job(f"classes:copies-{order}x{copies}-{job_no}",
                        lambda ops=ops: sd.enumeration.isomorphism_classes(ops), check,
                        order == 6))
    return jobs


def _exchange_ok(sdt, n, x, y, z):
    """Both exchange laws at (x, y, z); entry [i, j] pairs row i (*0) with row j (*1)."""
    xy, xz, yz = sdt[:, x * n + y], sdt[:, x * n + z], sdt[:, y * n + z]
    r = np.arange(len(sdt))
    # (x *0 y) *1 z == (x *1 z) *0 (y *1 z)
    first = sdt[r[None, :], xy[:, None] * n + z] == sdt[r[:, None], xz[None, :] * n + yz[None, :]]
    # (x *1 y) *0 z == (x *0 z) *1 (y *0 z)
    second = sdt[r[:, None], xy[None, :] * n + z] == sdt[r[None, :], xz[:, None] * n + yz[:, None]]
    return first & second


# ---------------------------------------------------------------------------
# construct: CLI construct jobs plus builder, braid and linear library calls

def construct(ctx, sd):
    """Table builders, serialization (-o files and inline JSON), braid and linear."""
    jobs = []
    sym = lambda n: O.symmetric_cayley(n)

    def build(name, argv, want, out=False, heavy=False, pair=False):
        path = ctx.out(name) if out else None

        def check(res, want=want):
            want_v = want() if callable(want) else want
            if pair:
                expect_table(res, want_v[0], "op0")
                expect_table(res, want_v[1], "op1")
            else:
                expect_table(res, want_v)
        jobs.append(cli_job(sd, f"construct:{name}", ["construct"] + argv, check,
                            out=path, heavy=heavy))

    # group-based builders, checked against gathers on Cayley table and inverses
    build("heap-S5", ["heap", "--group", "symmetric:5"],
          lambda: O.heap_ref(sym(5)), out=True, heavy=True)
    build("heap-S4", ["heap", "--group", "symmetric:4"], lambda: O.heap_ref(sym(4)))
    build("heap-D10", ["heap", "--group", "dihedral:10"],
          lambda: O.heap_ref(O.dihedral_cayley(10)), out=True)
    build("heap-C30", ["heap", "--group", "cyclic:30"], lambda: O.heap_ref(O.cyclic_cayley(30)))
    build("conj-S5", ["conj", "--group", "symmetric:5"], lambda: O.conj_ref(sym(5)))
    build("core-S5", ["core", "--group", "symmetric:5"], lambda: O.core_ref(sym(5)), out=True)
    build("conj-D12", ["conj", "--group", "dihedral:12"],
          lambda: O.conj_ref(O.dihedral_cayley(12)))
    build("core-C31", ["core", "--group", "cyclic:31"], lambda: O.core_ref(O.cyclic_cayley(31)))
    unit = (7 * np.arange(120)) % 120
    build("alexander-C120", ["alexander", "--group", "cyclic:120", "--auto",
                             ",".join(map(str, unit))],
          lambda: O.alexander_ref(O.cyclic_cayley(120), unit))
    C4 = sym(4)
    h = ctx.rng.randrange(1, 24)
    inner = C4[C4[O.inverses(C4)[h], np.arange(24)], h]
    build("alexander-S4", ["alexander", "--group", "symmetric:4", "--auto",
                           ",".join(map(str, inner))],
          lambda: O.alexander_ref(C4, inner), out=True)
    S3C4 = O.product_cayley(sym(3), O.cyclic_cayley(4))
    gfile = ctx.write("group-S3xC4", {"size": 24, "cayley": S3C4.ravel().tolist()})
    # automorphism of S3 x C4: conjugation by a seeded element
    g = ctx.rng.randrange(1, 24)
    aut = S3C4[S3C4[O.inverses(S3C4)[g], np.arange(24)], g]
    build("alexander-S3xC4", ["alexander", "--group", gfile, "--auto",
                              ",".join(map(str, aut))],
          lambda: O.alexander_ref(S3C4, aut))

    # builders on table files, with their hypotheses verified
    def write_op(name, op):
        return ctx.write(name, op.as_json())

    def relabeled(op):
        return sd.relabel(op, ctx.perm(op.size))

    conj_s4 = relabeled(sd.conj_quandle(sd.symmetric_group(4)))
    conj_s4_2 = sd.power_op(conj_s4, 2)
    a7 = [sd.affine_op(7, 2, [t]) for t in (3, 5)]
    heap_s3 = relabeled(sd.heap_op(sd.symmetric_group(3)))
    p5 = ctx.perm(5)
    tern = [sd.relabel(sd.affine_op(5, 3, [2, 4]), p5), sd.relabel(sd.affine_op(5, 3, [3, 0]), p5)]
    conj_s5 = relabeled(sd.conj_quandle(sd.symmetric_group(5)))
    r5 = relabeled(sd.core_quandle(sd.cyclic_group(5)))
    files = {name: write_op(name, op) for name, op in (
        ("conj-S4", conj_s4), ("conj-S4-sq", conj_s4_2), ("A7t3", a7[0]), ("A7t5", a7[1]),
        ("heap-S3", heap_s3), ("tern-0", tern[0]), ("tern-1", tern[1]),
        ("conj-S5", conj_s5), ("R5", r5))}

    def grid(n, k):
        return [g.ravel() for g in np.indices((n,) * k)]

    def double_binary_ref(s0, s1, n):
        s0, s1 = np.asarray(s0).reshape(n, n), np.asarray(s1).reshape(n, n)
        x0, x1, y0, y1 = grid(n, 4)
        return s1[s0[x0, y0], y1] * n + s1[s0[x1, y0], y1]

    def double_ternary_ref(A, B, n):
        A, B = np.asarray(A).reshape(n, n, n), np.asarray(B).reshape(n, n, n)
        x0, x1, y0, y1, z0, z1 = grid(n, 6)
        return A[A[x0, y0, y1], z0, z1] * n + B[B[x1, y0, y1], z0, z1]

    def f_ref(s0, s1, n):
        s0, s1 = np.asarray(s0).reshape(n, n), np.asarray(s1).reshape(n, n)
        x, y0, y1 = grid(n, 3)
        return s1[s0[x, y0], y1]

    def g_ref(A, B, n):
        A, B = np.asarray(A).reshape(n, n, n), np.asarray(B).reshape(n, n, n)
        x0, x1, y0, y1 = grid(n, 4)
        return A[x0, y0, y1] * n + B[x1, y0, y1]

    def product_pair_ref(sx, nx, sy, ny):
        sx, sy = np.asarray(sx).reshape(nx, nx), np.asarray(sy).reshape(ny, ny)
        x0, y0, x1, y1 = [v.ravel() for v in np.indices((nx, ny, nx, ny))]
        return sx[x0, x1] * ny + y0, x0 * ny + sy[y0, y1]

    def pair(a, b):
        return ["--op0", files[a], "--op1", files[b]]

    build("double-binary-A7", ["double-binary"] + pair("A7t3", "A7t5"),
          lambda: double_binary_ref(a7[0].table, a7[1].table, 7))
    build("double-binary-S4", ["double-binary"] + pair("conj-S4", "conj-S4-sq"),
          lambda: double_binary_ref(conj_s4.table, conj_s4_2.table, 24), out=True)
    build("double-ternary-Z5", ["double-ternary"] + pair("tern-0", "tern-1"),
          lambda: double_ternary_ref(tern[0].table, tern[1].table, 5))
    build("double-ternary-S3", ["double-ternary"] + pair("heap-S3", "heap-S3"),
          lambda: double_ternary_ref(heap_s3.table, heap_s3.table, 6), out=True)
    build("f-S4", ["f"] + pair("conj-S4", "conj-S4-sq"),
          lambda: f_ref(conj_s4.table, conj_s4_2.table, 24))
    build("g-S3", ["g"] + pair("heap-S3", "heap-S3"),
          lambda: g_ref(heap_s3.table, heap_s3.table, 6))
    build("compose-S4", ["compose"] + pair("conj-S4", "conj-S4-sq"),
          lambda: np.asarray(conj_s4_2.table).reshape(24, 24)[np.asarray(conj_s4.table)].ravel(),
          out=True)
    build("power-S5", ["power", "--op", files["conj-S5"], "--exponent", "3"],
          lambda: O.power_ref(conj_s5.table, 120, 2, 3))
    build("product-pair", ["product-pair"] + pair("conj-S4", "R5"),
          lambda: product_pair_ref(conj_s4.table, 24, r5.table, 5), pair=True)
    for n, word in ((7, (1, 1, -1, 1)), (15, (1, -1, 1))):
        hat = sd.heap_op(sd.cyclic_group(n))
        star = sd.core_quandle(sd.cyclic_group(n))
        ph, ps = write_op(f"twist-hat-{n}", hat), write_op(f"twist-star-{n}", star)

        def twist_ref(hat=hat, star=star, n=n, word=word):
            out = np.empty(n ** 3, dtype=np.int64)
            for x in range(n):
                for t in range(n * n):
                    ys = O.braid_image(star.table, n, word, (t // n, t % n))
                    out[x * n * n + t] = O.at(hat.table, n, x, *ys)
            return out
        build(f"twist-C{n}", ["twist", "--op", ph, "--star", ps,
                              "--word", ",".join(map(str, word))], twist_ref, out=n == 15)

    # library calls: group builders, braid relations, Hopf-algebra instances
    def lib(name, call, check, heavy=False):
        jobs.append(Job(name, call, check, heavy))

    def group_check(want):
        def check(g):
            expect(bool((np.asarray(g.cayley) == want().ravel()).all()),
                   "Cayley table differs from the reference")
        return check

    S4g, C5g = sd.symmetric_group(4), sd.cyclic_group(5)
    D6g, C10g = sd.dihedral_group(6), sd.cyclic_group(10)
    lib("group:symmetric-5", lambda: sd.optable.symmetric_group(5), group_check(lambda: sym(5)))
    lib("group:S4xC5", lambda: sd.optable.direct_product(S4g, C5g),
        group_check(lambda: O.product_cayley(sym(4), O.cyclic_cayley(5))))
    lib("group:D6xC10", lambda: sd.optable.direct_product(D6g, C10g),
        group_check(lambda: O.product_cayley(O.dihedral_cayley(6), O.cyclic_cayley(10))))

    def holds(res):
        expect(bool(res), f"a relation that holds by theorem was refused: {res}")

    for name, op in (("R7", sd.core_quandle(sd.cyclic_group(7))),
                     ("conj-S3", sd.conj_quandle(sd.symmetric_group(3))),
                     ("core-D5", sd.core_quandle(sd.dihedral_group(5)))):
        op = relabeled(op)
        lib(f"braid:{name}:X4", lambda op=op: sd.braid.verify_braid_relations(op, 4), holds)
    # rank 0.9 of the job times falls inside the block of the three order-6
    # adjoint jobs (two costlier jobs above it, 35 jobs)
    for gname, g, p in (("C4", sd.cyclic_group(4), 3), ("S3", sd.symmetric_group(3), 2),
                        ("C6", sd.cyclic_group(6), 5), ("D3", sd.dihedral_group(3), 3)):
        field = sd.linear.Field(p)

        def heap(g=g, field=field):
            lin = sd.linear
            return lin.check_nary_sd(lin.hopf_heap(lin.group_algebra_hopf(g, field)))

        def adjoint(g=g, field=field):
            lin = sd.linear
            return lin.check_nary_sd(lin.hopf_adjoint_ternary(lin.group_algebra_hopf(g, field)))
        if gname != "D3":
            lib(f"hopf-heap:{gname}:F{p}", heap, holds)
        lib(f"hopf-adjoint:{gname}:F{p}", adjoint, holds)
    return jobs


WORKLOADS = {"scan": scan, "homology": homology, "classify": classify,
             "construct": construct}
