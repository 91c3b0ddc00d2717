import io
import json
import pathlib

import numpy as np
import pytest

from selfdist import (OpTable, affine_op, doubling_ternary, f_functor,
                      heap_op, is_nary_distributive, is_quandle, is_rack,
                      make_op_table, product_mutual_pair, symmetric_group,
                      twist_op)
from selfdist import cli, enumeration, kernels
from selfdist.braid import BraidWord
from selfdist.cli import SCHEMA, main
from selfdist.cocycles import extend, make_cochain


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


# integer arrays: the table entries of a command's artifacts take the
# label lookup; negative entries, entries of len(array) or more, empty and
# 2-d arrays take the list
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


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 16])
@pytest.mark.parametrize("obj", WRITER_CASES + WRITER_ARRAYS)
def test_writer_matches_json_dumps(obj, chunk, monkeypatch):
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    assert written(obj) == json.dumps(obj, indent=2, default=plain) + "\n"


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


def test_human_summaries_unchanged(files, capsys):
    code, out, _ = run(["construct", "heap", "--group", "cyclic:3"], capsys)
    assert out.splitlines()[0] == \
        "table: size 3 arity 3 012201120120012201201120012"
    code, out, _ = run(["braid", "act", "--op", files["dih3"], "--word",
                        "1,-2", "--input", "0,1,2"], capsys)
    assert out.splitlines()[0] == \
        'action: {"input": [0, 1, 2], "word": [1, -2], "output": [1, 2, 2]}'
    assert cli._summary({"gens": np.arange(3), "n": np.int64(2)}) == \
        '{"gens": [0, 1, 2], "n": 2}'


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
