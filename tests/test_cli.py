import hashlib
import io
import json
import pathlib
import re
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from selfdist import (Cochain, FiniteGroup, OpTable, affine_op,
                      dihedral_group, doubling_ternary, f_functor, heap_op,
                      is_nary_distributive, is_quandle, is_rack,
                      product_mutual_pair, symmetric_group, twist_op)
from selfdist import cli, enumeration, kernels
from selfdist.braid import BraidWord
from selfdist.cli import SCHEMA, main
from selfdist.cocycles import extend
from formulas import make_cochain, make_op_table


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def dump(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    out = {
        "z8": dump("z8.json", affine_op(8, 3, (3, 2)).as_json()),
        "t1": dump("t1.json",
                   make_op_table(8, 3, lambda x, y, z: -x + 2 * y).as_json()),
        "dih3": dump("dih3.json", affine_op(3, 2, (2,)).as_json()),
        "dih5": dump("dih5.json", affine_op(5, 2, (2,)).as_json()),
        "T5": dump("T5.json", affine_op(5, 3, (2, 1)).as_json()),
        "T3": dump("T3.json", affine_op(3, 3, (1, 1)).as_json()),
        "plus3": dump("plus3.json",
                      make_op_table(3, 2, lambda x, y: x + y).as_json()),
        "triv3": dump("triv3.json",
                      make_op_table(3, 3, lambda x, y, z: x).as_json()),
        "psi": dump("psi.json",
                    make_cochain(3, 3, 3,
                                 lambda x, y, z: (y + z - 2 * x) % 3).as_json()),
        "zero": dump("zero.json",
                     make_cochain(3, 3, 3, lambda x, y, z: 0).as_json()),
        "broken": dump("broken.json", {"size": 2, "arity": 2, "table": [0, 1]}),
        "root": root,
    }
    return out


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code = main(["--format", "json"] + argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


# ---------------------------------------------------------------------------
# check

def test_check_axioms_pass(files, capsys):
    code, out, _ = run(["check", "axioms", files["z8"]], capsys)
    assert code == 0
    assert "ternary rack: yes" in out
    assert "quandle: yes" in out


def test_check_axioms_failure_carries_witness(files, capsys):
    code, rep = run_json(["check", "axioms", files["plus3"]], capsys)
    assert code == 1
    assert rep["schema"] == SCHEMA
    first = rep["verdicts"][0]
    assert first["holds"] is False
    assert first["counterexample"]["witness"] == [0, 0, 1]


def test_check_axioms_scans_once(files, capsys, monkeypatch, tmp_path):
    # a quandle, a rack with a moved diagonal, a self-distributive op with
    # constant translations, and a table that is not self-distributive
    tables = {"dih5": files["dih5"], "plus3": files["plus3"]}
    for name, op in (("shift3", make_op_table(3, 2, lambda x, y: x + 1)),
                     ("second3", make_op_table(3, 2, lambda x, y: y))):
        tables[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(tables[name]).write_text(json.dumps(op.as_json()))
    calls = []
    scan = kernels.exchange_scan

    def spy(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    def verdict(prop, res):
        c = res.counterexample
        cex = c and {"witness": list(c.witness), "lhs": c.lhs, "rhs": c.rhs}
        return {"property": prop, "holds": bool(res), "counterexample": cex,
                "detail": res.detail}

    holds = {}
    for name, path in tables.items():
        op = OpTable.from_json(json.loads(pathlib.Path(path).read_text()))
        want = [verdict("self-distributive", is_nary_distributive(op)),
                verdict("rack", is_rack(op)), verdict("quandle", is_quandle(op))]
        monkeypatch.setattr(kernels, "exchange_scan", spy)
        calls.clear()
        code, rep = run_json(["check", "axioms", path], capsys)
        assert len(calls) == 1, name
        assert rep["verdicts"] == want, name
        assert code == (0 if all(v["holds"] for v in want) else 1)
        code, rep = run_json(["check", "axioms", path, "--props",
                              "quandle,sd,rack,quandle"], capsys)
        assert len(calls) == 2, name
        assert rep["verdicts"] == [want[2], want[0], want[1], want[2]], name
        monkeypatch.setattr(kernels, "exchange_scan", scan)
        holds[name] = [v["holds"] for v in want]
    assert holds == {"dih5": [True] * 3, "plus3": [False] * 3,
                     "shift3": [True, True, False], "second3": [True, False, False]}


def test_check_axioms_malformed_input(files, capsys):
    code, out, err = run(["check", "axioms", files["broken"]], capsys)
    assert code == 2
    assert "error:" in err


def test_check_axioms_missing_file(files, capsys):
    code, _, err = run(["check", "axioms", str(files["root"] / "no.json")],
                       capsys)
    assert code == 2


UNDECODABLE = {
    "not UTF-8": b'{"size": 2, "arity": 2, "table": [0, 1, 1, 0], "x": "\xff"}',
    "5000 digits": (b'{"size": 2, "arity": 2, "table": [0, 1, 1, '
                    + b"1" * 5000 + b"]}"),
    "nested 100000 deep": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_check_axioms_undecodable_input(name, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(UNDECODABLE[name])
    code, out, err = run(["check", "axioms", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not valid JSON" in err and "Traceback" not in err


def test_check_mutual_and_compat(files, capsys):
    code, out, _ = run(["check", "mutual", files["dih3"], files["dih3"]], capsys)
    assert code == 0 and "mutually distributive: yes" in out
    code, out, _ = run(["check", "compat", files["z8"], files["t1"]], capsys)
    assert code == 0 and "compatible ternary pair: yes" in out
    code, rep = run_json(["check", "mutual", files["dih3"], files["plus3"]],
                         capsys)
    assert code == 1
    assert rep["verdicts"][0]["counterexample"] is not None


def test_check_cocycle(files, capsys):
    code, out, _ = run(["check", "cocycle", files["triv3"], files["psi"]],
                       capsys)
    assert code == 0 and "ternary 2-cocycle: yes" in out


def test_check_cocycle_and_cocycle_check_agree(files, capsys):
    # psi is a cocycle over triv3 and fails over T3 at (0, 0, 1, 0, 0)
    for op, status in (("triv3", 0), ("T3", 1)):
        lines = (["check", "cocycle", files[op], files["psi"]],
                 ["cocycle", "check", "--op", files[op], "--cochain", files["psi"]])
        reports = [run_json(argv, capsys) for argv in lines]
        assert [code for code, _ in reports] == [status, status]
        assert reports[0][1]["verdicts"] == reports[1][1]["verdicts"]
        assert reports[0][1]["artifacts"] == reports[1][1]["artifacts"] == []
        # the human text, less its timing line
        human = [run(argv, capsys) for argv in lines]
        assert [code for code, _, _ in human] == [status, status]
        assert human[0][1].splitlines()[:-1] == human[1][1].splitlines()[:-1]
    assert reports[0][1]["verdicts"][0]["counterexample"]["witness"] == \
        [0, 0, 1, 0, 0]


def test_check_cocycle_near_int64_modulus(tmp_path, capsys):
    # phi(0, 1) + phi(W(0, 1), 0) = 3 + (d - 1) = d + 2, which wraps past
    # 2^63 in int64; modulo d it is 2, against phi(0, 0) + phi(0, 0) = 0
    d = 2 ** 63 - 1
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"size": 2, "arity": 2, "table": [0, 1, 0, 1]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"nargs": 2, "coeff": [d],
                               "values": [[0], [3], [d - 1], [0]]}))
    code, out, _ = run(["check", "cocycle", str(op), str(phi)], capsys)
    assert code == 1 and "binary 2-cocycle: no" in out
    code, rep = run_json(["check", "cocycle", str(op), str(phi)], capsys)
    cex = rep["verdicts"][0]["counterexample"]
    assert code == 1 and cex["witness"] == [0, 1, 0]


# ---------------------------------------------------------------------------
# construct

def test_construct_roundtrip_bit_identical(files, capsys, tmp_path):
    out_path = tmp_path / "dt.json"
    code, _, _ = run(["-o", str(out_path), "construct", "double-ternary",
                      "--op0", files["z8"], "--op1", files["t1"]], capsys)
    assert code == 0
    raw = out_path.read_text()
    loaded = OpTable.from_json(json.loads(raw))
    with open(files["z8"]) as f0, open(files["t1"]) as f1:
        t0, t1 = OpTable.from_json(json.load(f0)), OpTable.from_json(json.load(f1))
    assert loaded == doubling_ternary(t0, t1)
    # re-serializing the loaded artifact reproduces the file byte for byte;
    # a mismatch is reported at its first offset, since a diff of the two
    # 262,144-entry texts takes minutes
    want = json.dumps(json.loads(raw), indent=2) + "\n"
    if want != raw:
        at = next((i for i, (a, b) in enumerate(zip(want, raw)) if a != b),
                  min(len(want), len(raw)))
        lo = max(0, at - 40)
        pytest.fail(f"texts differ first at offset {at} (lengths {len(want)},"
                    f" {len(raw)}): expected {want[lo:at + 40]!r},"
                    f" written {raw[lo:at + 40]!r}")


def test_construct_f_inline(files, capsys):
    code, rep = run_json(["construct", "f", "--op0", files["dih3"],
                          "--op1", files["dih3"]], capsys)
    assert code == 0
    table = rep["artifacts"][0]["content"]
    dih = affine_op(3, 2, (2,))
    assert table["table"] == [int(v) for v in f_functor(dih, dih).table]


def test_construct_precondition_failure(files, capsys):
    code, rep = run_json(["construct", "f", "--op0", files["plus3"],
                          "--op1", files["plus3"]], capsys)
    assert code == 1
    v = rep["verdicts"][0]
    assert v["property"] == "construction hypothesis"
    assert v["holds"] is False
    assert v["counterexample"] is not None


def test_construct_missing_flag(files, capsys):
    code, _, err = run(["construct", "f", "--op0", files["dih3"]], capsys)
    assert code == 2


def test_construct_affine_and_heap(files, capsys):
    code, rep = run_json(["construct", "affine", "--modulus", "8",
                          "--arity", "3", "--coeffs", "3,2"], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["table"] == \
        [int(v) for v in affine_op(8, 3, (3, 2)).table]
    code, rep = run_json(["construct", "heap", "--group", "symmetric:3"],
                         capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["size"] == 6


def test_construct_extend_pair_two_artifacts(files, capsys, tmp_path):
    phi = make_cochain(3, 2, 2, lambda x, y: 0)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(phi.as_json()))
    code, rep = run_json(["construct", "extend-pair",
                          "--op0", files["dih3"], "--op1", files["dih3"],
                          "--cochain0", str(p), "--cochain1", str(p)], capsys)
    assert code == 0
    assert [a["name"] for a in rep["artifacts"]] == ["op0", "op1"]
    assert rep["artifacts"][0]["content"]["size"] == 6


# ---------------------------------------------------------------------------
# homology / cocycle

def test_homology_json(files, capsys):
    code, rep = run_json(["homology", "--op", files["dih3"], "--degree", "2",
                          "--coeff", "3"], capsys)
    assert code == 0
    content = rep["artifacts"][0]["content"]
    assert content["torsion"] == [3]
    assert content["group"] == "Z/3"


def test_homology_integral_default(files, capsys):
    code, rep = run_json(["homology", "--op", files["dih3"], "--degree", "2"],
                         capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["betti"] == 1


@pytest.mark.parametrize("coeff", ["-3", "0", "2,-4"])
def test_homology_rejects_bad_coefficients(files, capsys, coeff):
    for cmd in ("homology", "cohomology"):
        code, out, err = run([cmd, "--op", files["dih3"], "--degree", "2",
                              "--coeff", coeff], capsys)
        assert code == 2, (cmd, out, err)


def test_homology_multi_factor_coefficients(files, capsys):
    code, rep = run_json(["homology", "--op", files["T3"], "--degree", "2",
                          "--coeff", "2,4"], capsys)
    assert code == 0
    content = rep["artifacts"][0]["content"]
    assert content["torsion"] == [2, 2, 2, 4, 4, 4]
    assert content["group"] == "Z/2 + Z/2 + Z/2 + Z/4 + Z/4 + Z/4"


def test_homology_huge_prime_coefficient(files, capsys):
    p = 2305843009213693951            # the Mersenne prime 2^61 - 1
    code, rep = run_json(["homology", "--op", files["dih3"], "--degree", "3",
                          "--coeff", str(p)], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["torsion"] == [p]


def test_cocycle_solve(files, capsys):
    code, rep = run_json(["cocycle", "solve", "--op", files["dih3"],
                          "--degree", "2", "--coeff", "3"], capsys)
    assert code == 0
    content = rep["artifacts"][0]["content"]
    assert content["invariants"] == [3]
    assert content["cocycles"] == 3
    assert content["coboundaries"] == 3


def test_cocycle_extend_matches_library(files, capsys):
    code, rep = run_json(["cocycle", "extend", "--op", files["triv3"],
                          "--cochain", files["psi"]], capsys)
    assert code == 0
    triv = make_op_table(3, 3, lambda x, y, z: x)
    psi = make_cochain(3, 3, 3, lambda x, y, z: (y + z - 2 * x) % 3)
    assert rep["artifacts"][0]["content"]["table"] == \
        [int(v) for v in extend(triv, psi).table]


def test_cocycle_cohomologous(files, capsys):
    code, rep = run_json(["cocycle", "cohomologous", "--op", files["triv3"],
                          "--c1", files["psi"], "--c2", files["psi"]], capsys)
    assert code == 0
    assert rep["artifacts"][0]["name"] == "eta"
    code, rep = run_json(["cocycle", "cohomologous", "--op", files["triv3"],
                          "--c1", files["psi"], "--c2", files["zero"]], capsys)
    assert code == 1


def test_cocycle_three_from_ses(files, capsys):
    code, rep = run_json(["cocycle", "three-from-ses", "--op", files["triv3"],
                          "--cochain", files["psi"], "--ses", "cyclic:3,3"],
                         capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["nargs"] == 5


def test_chainmap_verify(files, capsys):
    code, out, _ = run(["chainmap", "verify", "--pair", files["dih3"],
                        files["dih3"]], capsys)
    assert code == 0 and "chain map squares commute: yes" in out


# ---------------------------------------------------------------------------
# braid / linear

def test_braid_act(files, capsys):
    code, rep = run_json(["braid", "act", "--op", files["dih3"],
                          "--word", "1", "--input", "0,1"], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["output"] == [1, 2]


def test_braid_relations_failure(files, capsys):
    code, rep = run_json(["braid", "relations", "--op", files["plus3"],
                          "--strands", "3"], capsys)
    assert code == 1
    assert rep["verdicts"][0]["counterexample"]["witness"] == [0, 0, 1]


def test_braid_twist_output(files, capsys, tmp_path):
    out_path = tmp_path / "tw.json"
    code, _, _ = run(["-o", str(out_path), "braid", "twist",
                      "--op", files["T5"], "--star", files["dih5"],
                      "--word", "1,1"], capsys)
    assert code == 0
    loaded = OpTable.from_json(json.loads(out_path.read_text()))
    direct = twist_op(affine_op(5, 3, (2, 1)), affine_op(5, 2, (2,)),
                      BraidWord(2, (1, 1)))
    assert loaded == direct


def test_braid_bad_word(files, capsys):
    code, _, err = run(["braid", "act", "--op", files["dih3"],
                        "--word", "5", "--input", "0,1"], capsys)
    assert code == 2


def test_linear_heap_and_check_sd(files, capsys, tmp_path):
    code, rep = run_json(["linear", "heap", "--group", "cyclic:2",
                          "--field", "3"], capsys)
    assert code == 0
    assert rep["verdicts"][0]["holds"] is True
    obj_path = tmp_path / "obj.json"
    obj_path.write_text(json.dumps(rep["artifacts"][0]["content"]))
    code, rep2 = run_json(["linear", "check-sd", "--object", str(obj_path)],
                          capsys)
    assert code == 0


def test_linear_adjoint_and_augmented(files, capsys):
    code, rep = run_json(["linear", "adjoint", "--group", "cyclic:2",
                          "--field", "2"], capsys)
    assert code == 0
    code, rep = run_json(["linear", "augmented", "--group", "cyclic:2",
                          "--field", "3"], capsys)
    assert code == 0
    assert rep["verdicts"][0]["property"] == "augmented self-distributivity axiom"


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_quandles(files, capsys):
    code, rep = run_json(["enumerate", "--size", "2", "--arity", "3",
                          "--kind", "quandle"], capsys)
    assert code == 0
    content = rep["artifacts"][0]["content"]
    assert content["count"] == 2
    assert content["tables"][0]["table"] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert content["tables"][1]["table"] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_enumerate_affine_scan(files, capsys):
    code, rep = run_json(["enumerate", "--size", "8", "--arity", "3",
                          "--scan", "affine", "--kind", "rack"], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["count"] == 32


def test_enumerate_pairs(files, capsys):
    code, rep = run_json(["enumerate", "--size", "2", "--pairs"], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["count"] == 43


@pytest.mark.parametrize("argv", [
    ["--size", "3", "--kind", "rack"],
    ["--size", "2", "--arity", "3", "--kind", "all"],
    ["--scan", "affine", "--size", "5", "--arity", "3"],
    ["--scan", "translations", "--size", "3", "--arity", "3", "--kind", "quandle"],
    ["--size", "1", "--kind", "quandle"],
    ["--size", "2", "--pairs"],
    ["--size", "3", "--pairs"],
])
def test_enumerate_writes_the_json_of_table_lists(argv, tmp_path, capsys):
    # the tables are written from the stack's array, as the text
    # json.dumps gives the list of each table's as_json
    size, arity = int(argv[argv.index("--size") + 1]), 2
    if "--arity" in argv:
        arity = int(argv[argv.index("--arity") + 1])
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "sd"
    if "--pairs" in argv:
        pairs = enumeration.enumerate_mutual_pairs(size)
        name, old = "pairs", {"count": len(pairs), "pairs": [
            [a.as_json(), b.as_json()] for a, b in pairs]}
    else:
        scan = {"full": enumeration.enumerate_operations,
                "affine": enumeration.enumerate_affine,
                "translations": enumeration.enumerate_racks}[
            argv[argv.index("--scan") + 1] if "--scan" in argv else "full"]
        ops = list(scan(size, arity, kind))
        name, old = "tables", {"count": len(ops),
                               "tables": [o.as_json() for o in ops]}
    path = tmp_path / "out.json"
    assert run(["-o", str(path), "enumerate"] + argv, capsys)[0] == 0
    assert path.read_text() == json.dumps(old, indent=2) + "\n"
    code, out, _ = run(["--format", "json", "enumerate"] + argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["artifacts"] == [{"name": name, "content": old, "path": None}]
    assert out == json.dumps(report, indent=2) + "\n"


# sha256 of the JSON report with its seconds masked, pinned from the full
# scans that tested every table (or every permutation table), the
# translation scans that filtered racks for quandles, and the mutual pairs
# that scanned every pair of tables for both exchange laws
ENUMERATE_DIGESTS = [
    (["--size", "3", "--kind", "rack"],
     "b30c436643c43499b6e44c0177b46e1dc1b378d817303de574538667a92a4e82"),
    (["--size", "3", "--kind", "quandle"],
     "86fdb1454087275ef78e6c7aa46039478ee2487d5048a55c955db75d192a8ea7"),
    (["--size", "2", "--arity", "3", "--kind", "rack"],
     "f941604ef958c234c76b4301ef012440325688ed4a90e48342c2e752d90a2a69"),
    (["--size", "2", "--arity", "3", "--kind", "quandle"],
     "33dfbfcce6be936121c254fc4231c09c17c8691d26839c79e370f67aa8b9d7a0"),
    (["--size", "3", "--pairs"],
     "7739d5ffb9f5dcaa5431bad107a1896e4800d0c26d8b679a1ff35ec4ea6f433b"),
    (["--size", "3", "--kind", "sd"],
     "5568f0c404a5f8913fa88d09b10089a075660f2cb1fcd412bc84cd37bbb77439"),
    (["--size", "2", "--arity", "4", "--kind", "sd"],
     "f5f0997d80f8458a3d14612fd67d47ba426dab52976f3f29d91c29f628809f3d"),
    (["--size", "4", "--scan", "translations", "--kind", "quandle"],
     "c7f2f6293a44b1d6c645fffe5f00e8b13a03f849980d521920141e1a05d14ff3"),
    (["--size", "3", "--arity", "3", "--scan", "translations", "--kind", "quandle"],
     "632460e28bc41d277bebb952543e1272cea4f9e6552b21f901462f4fea2e6b20"),
]


@pytest.mark.parametrize("argv,digest", ENUMERATE_DIGESTS)
def test_enumerate_reports_keep_their_bytes(argv, digest, capsys):
    code, out, _ = run(["--format", "json", "enumerate"] + argv, capsys)
    assert code == 0
    masked = re.sub(r'"seconds": [^,\n}]+', '"seconds": 0', out)
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec", ["symmetric:-1", "cyclic:-3", "cyclic:0",
                                  "dihedral:-2", "dihedral:0"])
def test_groups_of_impossible_order_exit_2(spec, capsys):
    code, out, err = run(["construct", "conj", "--group", spec], capsys)
    assert (code, out) == (2, "")
    assert "there is no " in err and "Traceback" not in err


def test_enumerate_guardrail(files, capsys):
    code, _, err = run(["enumerate", "--size", "4", "--arity", "2"], capsys)
    assert code == 2


def test_enumerate_translation_budget(capsys):
    code, _, err = run(["enumerate", "--scan", "translations", "--size", "7",
                        "--kind", "rack"], capsys)
    assert code == 2
    assert "consistency checks" in err
    code, _, err = run(["enumerate", "--scan", "translations", "--size", "2",
                        "--arity", "11", "--kind", "rack"], capsys)
    assert code == 2
    assert "consistency checks" in err
    code, rep = run_json(["enumerate", "--scan", "translations", "--size", "4",
                          "--kind", "quandle"], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["count"] == 36


def test_enumerate_translations_refuses_other_kinds(capsys):
    for kind in ("sd", "all"):
        code, _, err = run(["enumerate", "--scan", "translations", "--size",
                            "2", "--kind", kind], capsys)
        assert code == 2, kind
        assert "unknown predicate" in err
    # without --kind a translation scan lists racks, a full scan sd tables
    for scan, kind in (("translations", "rack"), ("full", "sd")):
        base = ["enumerate", "--scan", scan, "--size", "3"]
        code, rep = run_json(base, capsys)
        assert code == 0
        assert rep["artifacts"] == run_json(base + ["--kind", kind],
                                            capsys)[1]["artifacts"]


def test_check_axioms_rejects_non_integer_entries(files, capsys):
    for table in ([0.7, 1.2, 0, 1], [True, False, False, True], [[0, 1], [0]],
                  [0, True, 1, 0]):
        path = files["root"] / "non_integer.json"
        path.write_text(json.dumps({"size": 2, "arity": 2, "table": table}))
        code, _, err = run(["check", "axioms", str(path)], capsys)
        assert code == 2
        assert "integers" in err


def test_non_integer_linear_maps_and_sequences_rejected(files, capsys,
                                                       tmp_path):
    code, rep = run_json(["linear", "heap", "--group", "cyclic:1",
                          "--field", "3"], capsys)
    assert code == 0
    obj = rep["artifacts"][0]["content"]
    for bad in ([[1.5]], [[1e30]]):
        obj["w"]["matrix"] = bad
        path = tmp_path / "obj.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(["linear", "check-sd", "--object", str(path)], capsys)
        assert code == 2
        assert "integers" in err
    path = tmp_path / "ses.json"
    path.write_text(json.dumps({"sub": [3], "total": [9], "quotient": [3],
                                "inclusion": [0, 3, 6.0],
                                "projection": [0, 1, 2] * 3,
                                "section": [0, 1, 2]}))
    code, _, err = run(["cocycle", "three-from-ses", "--op", files["triv3"],
                        "--cochain", files["psi"], "--ses", str(path)], capsys)
    assert code == 2
    assert "integers" in err


def test_non_integer_groups_and_cochains_rejected(files, capsys):
    path = files["root"] / "float_group.json"
    path.write_text(json.dumps({"size": 2, "cayley": [0, 1, 1, 0.2]}))
    code, _, err = run(["construct", "heap", "--group", str(path)], capsys)
    assert code == 2
    assert "integers" in err
    path = files["root"] / "float_cochain.json"
    path.write_text(json.dumps({"nargs": 3, "coeff": [3],
                                "values": [[0.5]] + [[0]] * 26}))
    code, _, err = run(["check", "cocycle", files["T3"], str(path)], capsys)
    assert code == 2
    assert "integers" in err


def test_jobs_below_one_rejected(files, capsys, monkeypatch):
    for argv in (["--jobs", "-3", "check", "axioms", files["z8"]],
                 ["--jobs", "0", "check", "axioms", files["z8"]],
                 ["check", "axioms", files["z8"], "--jobs", "0"]):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert "--jobs must be at least 1" in err
    monkeypatch.setenv("SELFDIST_JOBS", "-3")
    code, rep = run_json(["check", "axioms", files["z8"]], capsys)
    assert code == 2
    assert "--jobs must be at least 1, got -3" in rep["error"]
    monkeypatch.setenv("SELFDIST_JOBS", "many")
    with pytest.raises(SystemExit) as exc:
        main(["check", "axioms", files["z8"]])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# report invariants

def test_reports_deterministic_and_job_independent(files, capsys, monkeypatch):
    code1, rep1 = run_json(["check", "axioms", files["z8"]], capsys)
    code2, rep2 = run_json(["check", "axioms", files["z8"]], capsys)
    assert (code1, rep1["verdicts"], rep1["artifacts"]) == \
        (code2, rep2["verdicts"], rep2["artifacts"])
    code3, rep3 = run_json(["--jobs", "4", "check", "axioms", files["z8"]],
                           capsys)
    assert rep3["verdicts"] == rep1["verdicts"]
    monkeypatch.setenv("SELFDIST_JOBS", "3")
    code4, rep4 = run_json(["check", "axioms", files["z8"]], capsys)
    assert rep4["verdicts"] == rep1["verdicts"]


def test_json_error_shape(files, capsys):
    code, rep = run_json(["check", "axioms", files["broken"]], capsys)
    assert code == 2
    assert rep["schema"] == SCHEMA
    assert "error" in rep


def test_flags_accepted_after_subcommand(files, capsys):
    code = main(["check", "axioms", files["z8"], "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["schema"] == SCHEMA


# ---------------------------------------------------------------------------
# input decoding: large integer arrays as int64 arrays, all else as json


@pytest.mark.parametrize("provenance", ['"core"', "5", '[["a", 1]]', "[]",
                                        "true", "2.5"])
def test_provenance_that_is_not_an_object_exits_2(provenance, tmp_path,
                                                  capsys):
    path = tmp_path / "op.json"
    path.write_text('{"size": 3, "arity": 2, "table": [0, 2, 1, 2, 1, 0, 1, '
                    f'0, 2], "provenance": {provenance}}}')
    code, _, err = run(["check", "axioms", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: provenance must be a JSON object or null")


@pytest.mark.parametrize("provenance", ["null", "{}", '{"construction": "x"}'])
def test_provenance_object_or_null_is_kept(provenance, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"size": 3, "arity": 2, "table": [0, 2, 1, 2, 1, 0, 1, '
                    f'0, 2], "provenance": {provenance}}}')
    code, _, _ = run(["check", "axioms", str(path)], capsys)
    assert code == 0
    op = OpTable.from_json(json.loads(path.read_text()))
    assert op.meta == (json.loads(provenance) or {})


DUMPS = [{}, {"separators": (",", ":")}, {"indent": 2}]


def _scan_cochain(size):
    # the rank-one form the scan benchmark writes: a one-entry row for each
    # argument tuple
    rows = [[(3 * i + 1) % 7] for i in range(size * size)]
    return {"nargs": 2, "coeff": [7], "values": rows}


# (document, member, loader, decoder of json.loads's document)
WRITTEN = [
    (heap_op(dihedral_group(6)).as_json(), "table", cli._load_op,
     OpTable.from_json),
    (_scan_cochain(20), "values", cli._load_cochain, Cochain.from_json),
    (Cochain(16, 2, (2, 3), [[(i * 5) % 2, i % 3] for i in range(256)])
     .as_json(), "values", cli._load_cochain, Cochain.from_json),
    (symmetric_group(4).as_json(), "cayley", cli._load_group,
     FiniteGroup.from_json),
]


@pytest.mark.parametrize("dumps", DUMPS)
@pytest.mark.parametrize("doc, member, load, from_json", WRITTEN)
def test_loaders_read_the_package_writers(doc, member, load, from_json, dumps,
                                          tmp_path):
    text = json.dumps(doc, **dumps)
    assert isinstance(cli._decode(text, (member,))[member], np.ndarray)
    path = tmp_path / "doc.json"
    path.write_text(text)
    got, want = load(str(path)), from_json(json.loads(text))
    assert got == want
    if member == "cayley":      # groups compare by size and identity
        assert np.array_equal(got.cayley, want.cayley)


LAYOUTS = {
    # every layout of DUMPS, broken into lines with CRLF ends (indent 0
    # where the layout has no indent of its own) or indented by tabs
    "crlf": lambda doc, dumps: json.dumps(
        doc, **{"indent": 0, **dumps}).replace("\n", "\r\n"),
    "tabs": lambda doc, dumps: json.dumps(doc, **{**dumps, "indent": "\t"}),
}


@pytest.fixture(scope="module", params=["heap-D20", "cochain-14400"])
def large_doc(request):
    """The heap of D20 (ternary, 64,000 entries) or a 14,400 x 1 cochain."""
    if request.param == "heap-D20":
        return heap_op(dihedral_group(20)).as_json(), "table"
    return _scan_cochain(120), "values"


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dumps", DUMPS)
def test_large_arrays_keep_the_int64_path_in_every_layout(large_doc, dumps,
                                                         layout):
    # a layout that fell back to json would give the same answers, slowly
    doc, member = large_doc
    text = LAYOUTS[layout](doc, dumps)
    assert "\r\n" in text if layout == "crlf" else "\t" in text
    got = cli._decode(text, (member,))[member]
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    want = np.asarray(json.loads(text)[member])
    assert got.shape == want.shape and np.array_equal(got, want)


def test_a_numpy_1_warning_refuses_the_array():
    # numpy < 2 warns and reads a prefix where numpy 2 raises ValueError
    def lax(text, dtype, sep):
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning)
        return np.zeros(text.count(b",") + 1, dtype)
    text = "[" + ", ".join(["1"] * 600) + "]"
    with mock.patch.object(cli.np, "fromstring", lax), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli._int64_array(text, 0) is None
        assert cli._decode('{"table": %s}' % text, ("table",)) == {
            "table": [1] * 600}


def test_short_arrays_and_other_documents_stay_lists():
    short = json.dumps({"size": 3, "arity": 2, "table": [0] * 9})
    assert cli._decode(short, ("table",))["table"] == [0] * 9
    long = [1, 2] * cli._ARRAY_MIN
    # a top-level array, and members not named, keep their lists
    assert cli._decode(json.dumps(long), ("table",)) == long
    doc = cli._decode(json.dumps({"size": long, "table": long}), ("table",))
    assert doc["size"] == long and isinstance(doc["table"], np.ndarray)


def test_long_size_array_is_quoted_as_a_list(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"size": [3, 3], "arity": 2,
                                "table": [0, 1] * cli._ARRAY_MIN}))
    code, _, err = run(["check", "axioms", str(path)], capsys)
    assert code == 2
    assert err == "error: size must be an integer, got [3, 3]\n"


INT_TOKENS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["0", "-0", "7", "-12", str(2 ** 63 - 1), str(-2 ** 63),
                     "999999999999999999", "-99999999999999999"]))
# np.fromstring, which reads the arrays `_int64_array` takes, reads each of
# these as a number, and none is valid JSON
LAX_TOKENS = st.sampled_from([
    "01", "00", "-01", "", " ", "-", "- 1", "+1", "99999999999999999999",
    "-9223372036854775809", "9223372036854775808", "1 2", "1-", "--1"])
NOT_INTEGERS = st.sampled_from(["true", "null", "1.5", "1e3", "-0.0", '"]]"',
                                '"[1]"', '"]"', "[]", "[[1]]"])
# "" runs two numbers together, and two rows into text that is not JSON
SEPARATORS = st.sampled_from([",", ", ", " , ", ",\n  ", " ,", "", ",\r\n",
                              ",\t", "\r\n", "\t"])
BLANKS = st.sampled_from(["", " ", "\n", "\t ", "\r\n", "\t"])


@st.composite
def array_text(draw):
    """A flat, rectangular, ragged or depth-3 array of integer tokens, one
    of which is most often replaced by a lax or non-integer token, or
    followed by an empty field."""
    shape = draw(st.sampled_from(["flat", "rows", "ragged", "deep"]))
    count, width = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    lengths = {"flat": [], "rows": [width] * count, "deep": [1] * count,
               "ragged": draw(st.lists(st.integers(0, 4), min_size=count,
                                       max_size=count))}[shape]
    total = sum(lengths) if lengths else count
    tokens = draw(st.lists(INT_TOKENS, min_size=total, max_size=total))
    if tokens and draw(st.integers(0, 2)):
        at = draw(st.integers(0, total - 1))
        tokens[at] = draw(st.one_of(LAX_TOKENS, NOT_INTEGERS,
                                    st.just(tokens[at] + ",")))
    sep, blank = draw(SEPARATORS), draw(BLANKS)

    def wrap(items):
        return "[" + blank + sep.join(items) + draw(BLANKS) + "]"
    if not lengths:
        return wrap(tokens)
    rows, pos = [], 0
    for n in lengths:
        row = wrap(tokens[pos:pos + n])
        rows.append(wrap([row]) if shape == "deep" else row)
        pos += n
    return wrap(rows)


@st.composite
def documents(draw):
    """A document whose "table" member is an `array_text`, among other
    members, now and then framed badly or cut short."""
    arr = draw(array_text())
    head = draw(st.sampled_from(['{"table": ', '{"size": 3, "table": ',
                                 '{"tables": [1], "table":', ' {"table":',
                                 '[', '']))
    tail = draw(st.sampled_from(["}", ', "arity": 2}', ', "x": "]"}',
                                 ',"table": [1]}', "} ", "}\n", "}}",
                                 ", }", ""]))
    text = head + arr + tail
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@pytest.mark.parametrize("text", [
    "[01, , 0]", "[ , 00]", "[1, -]", "[- 1]", "[1 2]", "[+1]", "[1,]",
    "[1,,2]", "[,1]", "[1-2]", "[--1]", "[99999999999999999999]",
    "[-9223372036854775809]", "[9223372036854775807]", "[[1]2,[3]]",
    "[[1][2,3]]", "[[1,[2],3,4]]", "[[1]1]2]]", "[[1, 2], [3]]",
    "[[1, 2, 3], [4]]", "[[1], 2]", "[1, [2]]", "[[[1]]]", "[]", "[[]]",
    "[1.0]", "[true]", '["1"]', "[1e3]", "[0x10]", "[\uff11]", "[1, \u00e9]",
    "[1, \ud800]", "[1, 2", "[[1], [2]", "[1, -, 2]", "[1, 2, ]", "[0-1]",
    "[1000000000000000000]", "[-1000000000000000000]", "[[01], [2]]",
    "[1, , 2]", "[ ]", "[[1], [ ]]", "[+ 1]", "[1,\v2]", "[1,\f2]"])
def test_int64_path_refuses_all_but_plain_integer_arrays(text):
    # None, never an exception, so json decides these;
    # [9223372036854775807] and [1000000000000000000] are valid, but the
    # int64 path takes no value of 10^18 or more
    with mock.patch.object(cli, "_ARRAY_MIN", 0):
        assert cli._int64_array(text, 0) is None


def loads_or_message(text):
    """json.loads's document, or the message of its JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
@example('{"table": [01, , 0]}')
@example('{"table": [ , 00]}')
@example('{"table": [1, -]}')
@example('{"table": [- 1]}')
@example('{"table": [99999999999999999999]}')
@example('{"table": [-9223372036854775809]}')
@example('{"table": [[1, 2], [3]]}')
@example('{"table": [[1, 2, 3], [4]]}')
@example('{"table": [[[1]]]}')
@example('{"table": [1, true]}')
@example('{"table": [1, 2.5]}')
@example('{"table": ["]]", 1]}')
@example('{"table": [[1, 2], [3, 4]], "size": 2}')
def test_fast_decode_matches_json_loads_then_asarray(text):
    # every array takes the int64 path, however short
    with mock.patch.object(cli, "_ARRAY_MIN", 0), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = cli._decode(text, ("table",))
        except json.JSONDecodeError as exc:
            got = str(exc)
    want = loads_or_message(text)
    if isinstance(got, dict) and isinstance(got.get("table"), np.ndarray):
        table = got.pop("table")
        entries = want.pop("table")
        assert table.dtype == np.int64
        assert np.asarray(entries).shape == table.shape
        # json's text tells true from 1, as == would not
        assert json.dumps(table.tolist()) == json.dumps(entries)
    assert got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# output writer: the same bytes as json.dumps(obj, indent=2)


def written(obj) -> str:
    buf = io.StringIO()
    cli._dump_json(obj, buf)
    return buf.getvalue()


WRITER_CASES = [
    {}, [], 0, -7, 2.5, None, True, "plain",
    {"count": 0, "tables": []},
    {"empty": {}, "nested": [[], [{}], [[1, 2], []]]},
    {"a\"b\\c\n\t": "caf\u00e9 \u2603 \U0001d11e \x00\x1f </",
     "list": ["\u00fc", "\"", "\\", "\ud800"]},
    {"floats": [0.1, -0.0, 1e300, float("inf"), float("-inf"), float("nan")]},
    {"mixed": [1, "two", 3.0, None, False, [4], {"five": 5}, (6, 7)]},
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    (1, (2, 3)),
]


# integer arrays: table entries longer than _LABEL_MIN take the label
# lookup, and so do these under a least length of 0; short, negative, empty
# and 2-d arrays and entries of len(array) or more take the list
WRITER_ARRAYS = [
    np.array([2, 0, 1, 1, 0, 2, 2]), np.array([3, 1, 0, 2, 3], np.uint8),
    np.array([], np.int64), np.array([0]), np.array([0, 1, -1, 2]),
    np.array([0, 1, 9]), np.array([[0, 1], [1, 0]]),
    {"size": 3, "table": np.array([1, 2, 0, 0, 0, 1]), "meta": {"a": 1}},
    [np.array([1, 0]), 3, [np.array([2, 2, 0])]],
]


def plain(value):
    """json.dumps's fallback for the arrays of WRITER_ARRAYS."""
    return value.tolist()


WRITER_CHUNKS = [1, 2, 3, 7, 1 << 16]


@pytest.mark.parametrize("chunk", WRITER_CHUNKS)
@pytest.mark.parametrize("obj", WRITER_CASES + WRITER_ARRAYS)
def test_writer_matches_json_dumps(obj, chunk, monkeypatch):
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    assert written(obj) == json.dumps(obj, indent=2, default=plain) + "\n"


@pytest.mark.parametrize("chunk", WRITER_CHUNKS)
def test_writer_label_lookup_matches_json_dumps(chunk, monkeypatch):
    # every array of WRITER_ARRAYS that qualifies takes the label lookup
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    monkeypatch.setattr(cli, "_LABEL_MIN", 0)
    for obj in WRITER_ARRAYS:
        assert written(obj) == json.dumps(obj, indent=2, default=plain) + "\n"


def writer_rows():
    """(array, whether it takes the row path): heap tables, whose N^2 rows
    of N entries repeat N times each, and arrays near the path's edges."""
    h3, h4 = (heap_op(symmetric_group(n)).table for n in (3, 4))
    changed = h4.copy()
    changed[5000] = (changed[5000] + 1) % 24
    return [
        (h3, True), (h4, True),
        (changed, True),                        # 25 distinct rows of 576
        (np.concatenate([h3, h3[:5]]), True),   # 5 entries after the last row
        (h3[:12 * 6], True),                    # 2M rows, M of them distinct
        (np.tile(h3[:6], 11), False),           # 2M - 1 rows, all equal
        (np.tile(np.arange(24), 48), True),     # one row, repeated
        (np.array([np.roll(np.arange(24), r)[::way]         # 48 distinct rows
                   for way in (1, -1) for r in range(24)]).ravel(), False),
    ]


@pytest.mark.parametrize("chunk", WRITER_CHUNKS)
@pytest.mark.parametrize("zero_weights", [False, True])
def test_writer_row_path_matches_json_dumps(chunk, zero_weights, monkeypatch):
    # with all-zero weights every key collides: each piece holds a row that
    # differs from its key's representative and is written by label lookup.
    # The edges of the row path's shape are tested on small arrays, so the
    # size floor is lifted here; test_writer_row_floor keeps it.
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    monkeypatch.setattr(cli, "_ROWS_MIN", 0)
    if zero_weights:
        monkeypatch.setattr(cli, "_row_weights",
                            lambda width: np.zeros(width, np.int64))
    grouped = []
    group = cli._repeated_rows
    monkeypatch.setattr(cli, "_repeated_rows",
                        lambda rows: grouped.append(group(rows)) or grouped[-1])
    for entries, takes_rows in writer_rows():
        for obj in (entries, {"heap": {"table": entries}, "size": 24}):
            grouped.clear()
            same = written(obj) == json.dumps(obj, indent=2, default=plain) + "\n"
            assert same
            if not zero_weights:
                assert any(g is not None for g in grouped) == takes_rows


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_writer_row_floor(chunk, monkeypatch):
    # a table of repeated rows takes the row path from _ROWS_MIN entries on,
    # and is looked up below; the bytes are json's on both sides of the floor
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    grouped = []
    group = cli._repeated_rows
    monkeypatch.setattr(cli, "_repeated_rows",
                        lambda rows: grouped.append(group(rows)) or grouped[-1])
    row = np.roll(np.arange(20), 3)
    for length in (cli._ROWS_MIN - 1, cli._ROWS_MIN, cli._ROWS_MIN + 1):
        entries = np.resize(row, length)
        grouped.clear()
        obj = {"table": entries}
        same = written(obj) == json.dumps(obj, indent=2, default=plain) + "\n"
        assert same
        assert [g is not None for g in grouped] == ([True] if length >= cli._ROWS_MIN else [])


def test_writer_row_path_keeps_the_label_path_peak(monkeypatch):
    # the row path holds each distinct row's text once and otherwise works a
    # piece at a time, as the label lookup does; a gather of every row's
    # representative at once would add the table's 13.8 MB
    class Sink:
        def write(self, text):
            pass

        def writelines(self, pieces):
            for _ in pieces:
                pass

    fields = heap_op(symmetric_group(5)).json_fields()

    def peak():
        tracemalloc.start()
        try:
            cli._dump_json(fields, Sink())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = peak()
    monkeypatch.setattr(cli, "_repeated_rows", lambda rows: None)
    labels = peak()
    texts = sum(sys.getsizeof("".join(",\n    " + str(v) for v in row))
                for row in np.unique(fields["table"].reshape(-1, 120), axis=0).tolist())
    assert texts < 200_000
    assert rows <= labels + texts, (rows, labels, texts)


def test_cli_import_leaves_numpy_random_out(run_fresh):
    proc = run_fresh(["-c", "import sys, selfdist, selfdist.cli; "
                            "print(sorted(m for m in sys.modules "
                            "if m.startswith('numpy.random')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_the_deferred_modules_out(run_fresh):
    # the package and the CLI load linear, cocycles, enumeration and braid
    # on first use, and kernels its thread pool only for --jobs above 1
    proc = run_fresh(["-c", "import sys\n"
                            "before = set(sys.modules)\n"
                            "import selfdist, selfdist.cli\n"
                            "print(sorted(m for m in set(sys.modules) - before if m in ("
                            "'selfdist.linear', 'selfdist.cocycles', 'selfdist.enumeration', "
                            "'selfdist.braid', 'concurrent.futures')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# one command of each family, and each construct branch that imports a
# deferred module, with the exit status each has today
FRESH_COMMANDS = [
    (0, ["check", "axioms", "dih5"]),
    (1, ["check", "axioms", "plus3"]),
    (2, ["check", "axioms", "broken"]),
    (0, ["check", "cocycle", "triv3", "psi"]),
    (0, ["construct", "heap", "--group", "cyclic:6"]),
    (0, ["construct", "extend", "--op", "triv3", "--cochain", "zero"]),
    (0, ["construct", "twist", "--op", "T5", "--star", "dih5", "--word", "1,1"]),
    (0, ["homology", "--op", "dih5", "--degree", "2"]),
    (0, ["cohomology", "--op", "dih3", "--degree", "2", "--coeff", "3"]),
    (0, ["cocycle", "three-from-ses", "--op", "triv3", "--cochain", "psi",
         "--ses", "cyclic:3,3"]),
    (0, ["chainmap", "verify", "--pair", "dih3", "dih3"]),
    (1, ["braid", "relations", "--op", "plus3", "--strands", "3"]),
    (0, ["linear", "heap", "--group", "cyclic:3", "--field", "5"]),
    (0, ["enumerate", "--size", "3", "--kind", "quandle"]),
]


@pytest.mark.parametrize("code,argv", FRESH_COMMANDS,
                         ids=[f"{' '.join(argv[:2])}-{code}" for code, argv in FRESH_COMMANDS])
def test_command_in_a_fresh_process(code, argv, files, run_fresh, capsys):
    # a fresh process loads only what the command imports, so a handler
    # that misses an import fails here and nowhere else
    argv = ["--format", "json"] + [files.get(a, a) for a in argv]
    assert main(argv) == code
    here = capsys.readouterr().out
    proc = run_fresh(["-m", "selfdist.cli"] + argv)
    assert proc.returncode == code, proc.stderr
    seconds = re.compile(r'"seconds": [0-9.e+-]+')
    assert seconds.sub("", proc.stdout) == seconds.sub("", here)


@pytest.mark.parametrize("argv", [
    ["construct", "heap", "--group", "cyclic:6"],
    ["homology", "--op", "dih5", "--degree", "2"],
])
def test_command_leaves_numpy_ma_unloaded(argv, files, run_fresh):
    # numpy 1.x loads numpy.ma on import, so compare with import numpy alone
    argv = [files.get(a, a) for a in argv]
    proc = run_fresh(["-c", "import contextlib, io, json, sys\n"
                            "import numpy\n"
                            "before = 'numpy.ma' in sys.modules\n"
                            "from selfdist.cli import main\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            "    code = main(%r)\n"
                            "print(json.dumps([code, before, 'numpy.ma' in sys.modules]))"
                            % (argv,)])
    assert proc.returncode == 0, proc.stderr
    code, before, after = json.loads(proc.stdout)
    assert code == 0 and after == before


def test_cli_leaves_fractions_unloaded(files, run_fresh):
    # fractions, and the decimal it loads, come only with linear; compared
    # with import numpy alone
    proc = run_fresh(["-c", "import contextlib, io, json, sys\n"
                            "import numpy\n"
                            "def loaded():\n"
                            "    return sorted({'fractions', 'decimal'} & set(sys.modules))\n"
                            "before = loaded()\n"
                            "import selfdist, selfdist.cli\n"
                            "imported = loaded()\n"
                            "with contextlib.redirect_stdout(io.StringIO()):\n"
                            "    code = selfdist.cli.main(['check', 'axioms', %r])\n"
                            "print(json.dumps([code, before, imported, loaded()]))"
                            % files["dih5"]])
    assert proc.returncode == 0, proc.stderr
    code, before, imported, ran = json.loads(proc.stdout)
    assert code == 0 and before == imported == ran


def test_writer_long_list_spans_chunks():
    table = list(range(300)) * (cli.JSON_CHUNK // 150 + 1)
    assert len(table) > 2 * cli.JSON_CHUNK
    for entries in (table, np.array(table)):
        obj = {"size": 300, "arity": 2, "table": entries, "tail": [table[:5]]}
        # a plain bool: pytest's diff of two long strings would take minutes
        same = written(obj) == json.dumps(obj, indent=2, default=plain) + "\n"
        assert same


def test_parser_keeps_no_state_between_calls(files, capsys, tmp_path, monkeypatch):
    # the parser is built once per process; each call parses afresh
    out_path = tmp_path / "heap.json"
    argv = ["construct", "heap", "--group", "cyclic:3"]
    assert run(["-o", str(out_path)] + argv, capsys)[0] == 0
    written_once = out_path.read_text()
    code, out, _ = run(argv, capsys)
    assert code == 0 and out.startswith("table: size 3 arity 3 ")
    assert out_path.read_text() == written_once
    code, out, _ = run(["--format", "json"] + argv, capsys)
    assert json.loads(out)["artifacts"][0]["path"] is None
    code, out, _ = run(argv, capsys)
    assert out.startswith("table: ")
    seen = []
    monkeypatch.setattr(cli, "HANDLERS", dict(
        cli.HANDLERS, check=lambda args, report, jobs: seen.append(jobs)))
    for env, flag, want in (("2", [], 2), ("3", [], 3), ("3", ["--jobs", "5"], 5),
                            ("4", [], 4)):
        monkeypatch.setenv("SELFDIST_JOBS", env)
        assert run(flag + ["check", "axioms", files["z8"]], capsys)[0] == 0
        assert seen[-1] == want
    monkeypatch.delenv("SELFDIST_JOBS")
    run(["check", "axioms", files["z8"]], capsys)
    assert seen[-1] == 1
    assert cli._build_parser() is cli._build_parser()


def test_writer_converts_numpy_values_only():
    obj = {"i": np.int64(3), "u": np.uint8(200), "f": np.float32(0.5),
           "b": np.bool_(True), "a": np.arange(6).reshape(2, 3),
           "list": [np.int32(1), np.arange(2)], "e": np.zeros((0, 4))}
    plain = {"i": 3, "u": 200, "f": 0.5, "b": True, "a": [[0, 1, 2], [3, 4, 5]],
             "list": [1, [0, 1]], "e": []}
    assert written(obj) == json.dumps(plain, indent=2) + "\n"
    with pytest.raises(TypeError):
        written({"bad": object()})
    with pytest.raises(TypeError):
        written({(1, 2): "tuple key"})


def test_output_file_bytes_one_and_two_artifacts(files, capsys, tmp_path):
    out_path = tmp_path / "heap.json"
    code, _, _ = run(["-o", str(out_path), "construct", "heap", "--group",
                      "symmetric:3"], capsys)
    assert code == 0
    assert out_path.read_text() == \
        json.dumps(heap_op(symmetric_group(3)).as_json(), indent=2) + "\n"
    out_path = tmp_path / "pair.json"
    code, _, _ = run(["-o", str(out_path), "construct", "product-pair",
                      "--op0", files["dih3"], "--op1", files["dih5"]], capsys)
    assert code == 0
    a, b = product_mutual_pair(affine_op(3, 2, (2,)), affine_op(5, 2, (2,)))
    assert out_path.read_text() == \
        json.dumps({"op0": a.as_json(), "op1": b.as_json()}, indent=2) + "\n"


def test_unwritable_output_exits_2(capsys, tmp_path):
    # a bad --output path is the user's error, not an internal one
    bad = tmp_path / "no" / "such" / "dir" / "heap.json"
    code, rep = run_json(["-o", str(bad), "construct", "heap", "--group",
                          "cyclic:3"], capsys)
    assert code == 2
    assert rep["error"].startswith(f"cannot write {bad}:")
    assert "traceback" not in rep


@pytest.mark.parametrize("chunk", [5, 1 << 16])
def test_inline_report_bytes(files, capsys, chunk, monkeypatch):
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    for argv in (["construct", "heap", "--group", "symmetric:3"],
                 ["cohomology", "--op", files["dih3"], "--degree", "2",
                  "--coeff", "3", "--generators"],
                 ["check", "axioms", files["plus3"]],
                 ["check", "axioms", files["broken"]]):
        code, out, _ = run(["--format", "json"] + argv, capsys)
        assert code in (0, 1, 2)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    code, out, _ = run(["--format", "json", "construct", "heap", "--group",
                        "symmetric:3"], capsys)
    content = json.loads(out)["artifacts"][0]["content"]
    assert content == heap_op(symmetric_group(3)).as_json()


def test_report_bytes_escape_paths(files, capsys, tmp_path):
    path = tmp_path / "gr\u00fcppe \"S3\" \u2603.json"
    path.write_text(json.dumps(symmetric_group(3).as_json()))
    code, out, _ = run(["--format", "json", "construct", "heap", "--group",
                        str(path)], capsys)
    assert code == 0
    assert str(path) in json.loads(out)["command"]
    assert "\\u00fc" in out and "\\\"S3\\\"" in out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_human_summaries_unchanged(files, capsys, monkeypatch):
    code, out, _ = run(["construct", "heap", "--group", "cyclic:3"], capsys)
    assert out.splitlines()[0] == \
        "table: size 3 arity 3 012201120120012201201120012"
    code, out, _ = run(["braid", "act", "--op", files["dih3"], "--word",
                        "1,-2", "--input", "0,1,2"], capsys)
    assert out.splitlines()[0] == \
        'action: {"input": [0, 1, 2], "word": [1, -2], "output": [1, 2, 2]}'
    assert cli._summary({"gens": np.arange(3), "n": np.int64(2)}) == \
        '{"gens": [0, 1, 2], "n": 2}'

    # long artifacts: the first 400 characters of their compact JSON text
    def cut(content):
        text = json.dumps(content, default=cli._json_default)
        return text if len(text) <= 400 else text[:400] + "..."

    contents = []
    artifact = cli.Report.artifact

    def record(self, name, content):
        contents.append((name, content))
        artifact(self, name, content)

    # compact texts of 399, 400 and 401 characters
    for n in (390, 391, 392):
        assert cli._summary({"s": "x" * n}) == cut({"s": "x" * n})
    monkeypatch.setattr(cli.Report, "artifact", record)
    for argv in (["enumerate", "--size", "3", "--kind", "all"],
                 ["enumerate", "--size", "3", "--pairs"],
                 ["linear", "heap", "--group", "cyclic:3", "--field", "3"]):
        contents.clear()
        _, out, _ = run(argv, capsys)
        (name, content), = contents
        assert len(json.dumps(content, default=cli._json_default)) > 400
        assert f"{name}: {cut(content)}" in out.splitlines()


# ---------------------------------------------------------------------------
# resource budgets

# one command line per line; A200 stands for a JSON file holding
# affine_op(200, 2, [2]).  The CI workflow runs the same list.
OVERSIZED = (pathlib.Path(__file__).with_name("oversized.txt")
             .read_text().splitlines())


def test_oversized_requests_are_refused(run_fresh, tmp_path):
    # each in well under a second, in one process under a 2 GiB cap
    a200 = tmp_path / "a200.json"
    a200.write_text(json.dumps(affine_op(200, 2, [2]).as_json()))
    # one point at arity 2^22: one table entry, millions of coordinates
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"size": 1, "arity": 1 << 22, "table": [0]}))
    batch = [argv.replace("A200", str(a200)).replace("ONE", str(one)).split()
             for argv in OVERSIZED]
    code = ("import contextlib, io, json, sys, time\n"
            "from selfdist.cli import main\n"
            "for argv in json.loads(sys.stdin.read()):\n"
            "    err = io.StringIO()\n"
            "    start = time.perf_counter()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        status = main(argv)\n"
            "    print(json.dumps([status, time.perf_counter() - start,"
            " err.getvalue()]))\n")
    proc = run_fresh(["-c", code], cap_bytes=2 << 30, input=json.dumps(batch))
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == len(batch)
    for argv, (status, seconds, err) in zip(OVERSIZED, runs):
        assert status == 2, (argv, err)
        assert err.startswith("error: refusing ") and ", budget " in err, err
        assert seconds < 1, (argv, seconds)


def test_rational_linear_check_within_budget_is_fast(capsys):
    # over Q each multiply-add of the distributivity check is charged as a
    # Fraction operation: order 4 is the largest group algebra whose heap
    # the budget admits, and it runs in about half a second; the heap of
    # the order-8 dihedral group (65 s when it was charged per block
    # entry) is refused in oversized.txt
    start = time.perf_counter()
    code, out, _ = run(["linear", "heap", "--group", "cyclic:4", "--field", "0"],
                       capsys)
    assert code == 0
    assert out.startswith("linear self-distributivity: yes")
    assert time.perf_counter() - start < 5
    code, _, err = run(["linear", "heap", "--group", "cyclic:5", "--field", "0"],
                       capsys)
    assert code == 2 and "refusing a distributivity check" in err


def test_huge_exponent_is_fast(tmp_path, capsys):
    a200 = tmp_path / "a200.json"
    a200.write_text(json.dumps(affine_op(200, 2, [2]).as_json()))
    code, rep = run_json(["construct", "power", "--op", str(a200),
                          "--exponent", "10000000"], capsys)
    assert code == 0
    assert rep["artifacts"][0]["content"]["table"] == \
        affine_op(200, 2, [pow(2, 10 ** 7, 200)]).table.tolist()


def test_prime_beyond_int64_exits_2(capsys):
    code, _, err = run(["linear", "heap", "--group", "cyclic:2", "--field",
                        "4611686018427387847"], capsys)
    assert code == 2 and "int64" in err


def test_augmented_input_is_checked(tmp_path, capsys):
    def argv(action):
        path = tmp_path / "action.json"
        path.write_text(json.dumps(action))
        pairing = tmp_path / "pairing.json"
        pairing.write_text(json.dumps([[0, 1], [1, 0]]))
        return ["construct", "augmented", "--size", "2", "--group", "cyclic:2",
                "--action", str(path), "--pairing", str(pairing)]
    code, _, _ = run(argv([[0, 1], [1, 0]]), capsys)
    assert code == 0
    # a float table was truncated, and a short one failed to reshape
    for action, message in (([[0.7, 1.2], [1, 0]], "integers"),
                            ([0, 1, 1], "shape")):
        code, out, err = run(argv(action), capsys)
        assert code == 2 and out == "" and message in err


# ---------------------------------------------------------------------------
# internal errors and memory caps

def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args, report, jobs):
        raise RuntimeError("handler bug")
    monkeypatch.setitem(cli.HANDLERS, "construct", broken)
    code, rep = run_json(["construct", "heap", "--group", "cyclic:3"], capsys)
    assert code == 3
    assert rep["error"] == "internal error: RuntimeError: handler bug"
    assert "Traceback" in rep["traceback"] and "handler bug" in rep["traceback"]
    code, out, err = run(["construct", "heap", "--group", "cyclic:3"], capsys)
    assert code == 3 and out == ""
    assert err == "error: internal error: RuntimeError: handler bug\n"


def test_failed_allocation_exits_3(run_fresh):
    # with the byte budget lifted, a 74.5 GiB table fails to allocate, which
    # is not a verdict
    argv = ["--format", "json", "construct", "affine", "--modulus", "100000",
            "--arity", "2", "--coeffs", "2"]
    code = ("import sys\nfrom selfdist import cli, limits\n"
            f"limits.BYTES = 1 << 62\nsys.exit(cli.main({argv!r}))\n")
    proc = run_fresh(["-c", code], cap_bytes=2 << 30)
    assert proc.returncode == 3, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["error"].startswith("internal error: MemoryError")
    assert "MemoryError" in rep["traceback"]


def test_symmetric_6_fits_in_1gb(run_fresh):
    code = ("from selfdist import symmetric_group; "
            "assert symmetric_group(6).size == 720")
    proc = run_fresh(["-c", code], cap_bytes=1 << 30)
    assert proc.returncode == 0, proc.stderr
    proc = run_fresh(["-m", "selfdist.cli", "construct", "conj", "--group",
                      "symmetric:6"], cap_bytes=1 << 30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("table: size 720 arity 2")


def test_rational_counterexample_is_reported(files, capsys, tmp_path):
    # a perturbed object over Q: its witness values are fractions, written
    # as text like the map entries
    code, rep = run_json(["linear", "heap", "--group", "cyclic:2",
                          "--field", "0"], capsys)
    assert code == 0
    obj = rep["artifacts"][0]["content"]
    obj["w"]["matrix"][0][0] = "1/3"
    path = tmp_path / "q.json"
    path.write_text(json.dumps(obj))
    code, rep = run_json(["linear", "check-sd", "--object", str(path)], capsys)
    assert code == 1
    cex = rep["verdicts"][0]["counterexample"]
    assert cex == {"witness": [0, [0, 0, 0, 0, 0]], "lhs": "1/9",
                   "rhs": "1/81"}
