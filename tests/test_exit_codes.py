"""Every command line ends in exit 0, 1 or 2, whatever its input.

Hypothesis draws argument vectors over the construct, check, homology,
cohomology, cocycle, chainmap, enumerate, braid and linear subcommands:
random shapes, huge moduli and exponents, group specs, fields, short exact
sequences, and JSON inputs that are well formed, malformed (floats, bools,
ragged lists, integers beyond int64, a provenance that is not an object) or
not JSON at all.  A batch of them runs in one fresh process under a 2 GiB
address-space cap, so an allocation that escaped the budgets of `limits`
shows up as a failure, and a run that misses its deadline fails the test.
"""
import json

from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from selfdist import (Field, LieAlgebraObject, LinMap, affine_op,
                      conj_quandle, core_quandle, cyclic_group,
                      group_algebra_hopf, heap_op, hopf_heap, split_ses,
                      symmetric_group)

# exit status and stderr of each invocation, one JSON line each; files are
# written into a temporary directory, and {"file": text} in an argument
# vector becomes that file's path
BATCH_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
from selfdist.cli import main

batch = json.loads(sys.stdin.read())
with tempfile.TemporaryDirectory() as root:
    for i, argv in enumerate(batch):
        args = []
        for j, item in enumerate(argv):
            if isinstance(item, dict):
                path = os.path.join(root, f"{i}-{j}.json")
                with open(path, "w") as fh:
                    fh.write(item["file"])
                item = path
            args.append(item)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:      # argparse usage errors
                code = exc.code
        print(json.dumps({"argv": args, "code": code,
                          "stderr": err.getvalue()[-2000:]}))
"""

SMALL = st.sampled_from([-2, 0, 1, 2, 3, 4])
HUGE = st.sampled_from([40, 300, 60000, 10 ** 6, 10 ** 9, 10 ** 12,
                        2 ** 63, 10 ** 30])
INTS = st.one_of(SMALL, HUGE)


def _text(obj) -> str:
    return json.dumps(obj)


GOOD_TABLES = [_text(op.as_json()) for op in (
    affine_op(3, 2, [2]), affine_op(3, 3, [1, 1]), affine_op(4, 2, [3]),
    heap_op(cyclic_group(3)), conj_quandle(symmetric_group(3)),
    core_quandle(cyclic_group(4)))]


@st.composite
def random_table(draw):
    size = draw(st.integers(1, 3))
    arity = draw(st.integers(2, 3))
    entries = draw(st.lists(st.integers(0, size - 1), min_size=size ** arity,
                            max_size=size ** arity))
    return _text({"size": size, "arity": arity, "table": entries})


BAD_ENTRIES = st.sampled_from([
    [0.5, 1, 1, 0], [True, False, False, True], [[0, 1], [1]], [0, 1, 1, 2 ** 64],
    [0, 1, 1, -1], ["0", "1", "1", "0"], None, 7, [[[0]]], []])

MALFORMED_TABLES = st.one_of(
    st.builds(lambda size, arity, table: _text(
        {"size": size, "arity": arity, "table": table}),
        st.one_of(SMALL, HUGE, st.sampled_from(["2", 2.5, True, None])),
        st.one_of(SMALL, HUGE, st.sampled_from(["2", 2.0, False])),
        BAD_ENTRIES),
    st.sampled_from(["not json {", "[1, 2]", "3", "{}", '{"size": 2}',
                     '{"size": 10, "arity": 1000000000, "table": [0]}',
                     '{"size": 1, "arity": 100000000000, "table": [0]}']),
    # a provenance that is not an object is refused, null is kept
    st.builds(lambda prov: _text({"size": 3, "arity": 2,
                                  "table": [0, 2, 1, 2, 1, 0, 1, 0, 2],
                                  "provenance": prov}),
              st.sampled_from(["core", 5, [["a", 1]], [], True, 2.5, None])))

TABLE = st.one_of(st.sampled_from(GOOD_TABLES), random_table(), MALFORMED_TABLES)

COCHAIN = st.one_of(
    st.builds(lambda nargs, coeff, values: _text(
        {"nargs": nargs, "coeff": coeff, "values": values}),
        st.one_of(st.sampled_from([2, 3]), SMALL, HUGE, st.just("x")),
        st.sampled_from([[3], [2, 2], [0], [-1], [1], [2 ** 70], "3", [2.5]]),
        st.one_of(st.lists(st.lists(st.integers(-3, 9), min_size=1, max_size=2),
                           min_size=1, max_size=27),
                  BAD_ENTRIES)),
    st.sampled_from(["[]", "null", "{"]))

GROUP = st.one_of(
    st.builds(lambda kind, n: f"{kind}:{n}",
              st.sampled_from(["cyclic", "dihedral", "symmetric", "bogus"]),
              st.one_of(INTS, st.sampled_from(["x", "", "3.5", "-1"]))),
    st.builds(lambda cayley: {"file": _text({"size": 2, "cayley": cayley})},
              st.one_of(st.just([0, 1, 1, 0]), st.just([1, 0, 0, 1]),
                        BAD_ENTRIES)),
    st.just({"file": "{"}))


def file_(strategy):
    return strategy.map(lambda text: {"file": text})


def opt(flag, strategy):
    """[flag, value] or nothing."""
    return st.one_of(st.just([]), strategy.map(lambda v: [flag, str(v)]))


def ints_text(count=st.integers(0, 3)):
    return count.flatmap(lambda n: st.lists(INTS, min_size=n, max_size=n)).map(
        lambda vals: ",".join(map(str, vals)))


NO_VERIFY = st.sampled_from([[], ["--no-verify"]])


def joined(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


CONSTRUCT = st.one_of(
    joined(st.just(["construct", "affine"]), opt("--modulus", INTS),
           opt("--arity", INTS), opt("--coeffs", ints_text())),
    joined(st.just(["construct", "projection"]), opt("--size", INTS),
           opt("--arity", INTS)),
    joined(st.sampled_from([["construct", "conj"], ["construct", "core"],
                            ["construct", "heap"]]),
           st.tuples(st.just("--group"), GROUP).map(list)),
    joined(st.just(["construct", "alexander"]),
           st.tuples(st.just("--group"), GROUP).map(list),
           opt("--auto", ints_text(st.integers(0, 4)))),
    joined(st.just(["construct", "power", "--op"]), file_(TABLE).map(lambda f: [f]),
           opt("--exponent", INTS), NO_VERIFY),
    joined(st.sampled_from([["construct", name] for name in (
               "double-binary", "double-ternary", "f", "g", "compose",
               "monoid-product", "product-pair")]),
           st.tuples(st.just("--op0"), file_(TABLE), st.just("--op1"),
                     file_(TABLE)).map(list), NO_VERIFY),
    joined(st.just(["construct", "augmented"]), opt("--size", INTS),
           st.tuples(st.just("--group"), GROUP).map(list),
           st.tuples(st.just("--action"), file_(st.one_of(
               st.just("[[0, 1], [1, 0]]"), st.just("[[0.7, 1.2], [1, 0]]"),
               st.just("[0, 1, 1]"), BAD_ENTRIES.map(_text)))).map(list),
           st.tuples(st.just("--pairing"), file_(st.one_of(
               st.just("[[0, 1], [1, 0]]"), BAD_ENTRIES.map(_text)))).map(list),
           NO_VERIFY),
    joined(st.just(["construct", "extend", "--op"]), file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--cochain"), file_(COCHAIN)).map(list), NO_VERIFY),
    joined(st.just(["construct", "twist", "--op"]), file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--star"), file_(TABLE)).map(list),
           opt("--word", ints_text()), NO_VERIFY),
)

CHECK = st.one_of(
    joined(st.just(["check", "axioms"]), file_(TABLE).map(lambda f: [f]),
           opt("--props", st.sampled_from(["sd", "rack,quandle", "bogus"]))),
    joined(st.sampled_from([["check", "mutual"], ["check", "compat"]]),
           st.tuples(file_(TABLE), file_(TABLE)).map(list)),
    joined(st.just(["check", "cocycle"]),
           st.tuples(file_(TABLE), file_(COCHAIN)).map(list)),
)

COEFF = st.sampled_from(["Z", "0", "2", "3,5", "-2", str(2 ** 70), "x", "2,4"])
# cohomology requires --coeff, so its lines always carry one
HOMOLOGY = joined(
    st.one_of(joined(st.just(["homology"]), opt("--coeff", COEFF)),
              joined(st.just(["cohomology", "--coeff"]), COEFF.map(lambda c: [c]))),
    st.one_of(file_(TABLE).map(lambda f: ["--op", f]),
              st.tuples(st.just("--pair"), file_(TABLE), file_(TABLE)).map(list)),
    st.tuples(st.just("--degree"), st.one_of(
        st.sampled_from([-1, 0, 1, 2, 3]), HUGE).map(str)).map(list))

ENUMERATE = joined(
    st.just(["enumerate"]),
    st.tuples(st.just("--size"), INTS.map(str)).map(list),
    opt("--arity", st.one_of(st.sampled_from([1, 2, 3, 12]), HUGE)),
    opt("--scan", st.sampled_from(["full", "affine", "translations"])),
    opt("--kind", st.sampled_from(["all", "sd", "rack", "quandle"])),
    st.sampled_from([[], ["--pairs"]]))

def small_text(values, min_size=0):
    return st.lists(values, min_size=min_size, max_size=5).map(
        lambda v: ",".join(map(str, v)))


# braid words and tuples, often valid for a small binary table
LETTERS = st.one_of(ints_text(st.integers(0, 5)),
                    small_text(st.sampled_from([1, -1, 2, -2, 0, 3])))
ENTRIES = st.one_of(ints_text(st.integers(0, 5)),
                    small_text(st.integers(-1, 3), min_size=2))

BRAID = st.one_of(
    joined(st.just(["braid", "relations", "--op"]), file_(TABLE).map(lambda f: [f]),
           opt("--strands", INTS)),
    joined(st.just(["braid", "act", "--op"]), file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--word"), LETTERS, st.just("--input"), ENTRIES).map(list)),
    joined(st.just(["braid", "twist", "--op"]), file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--star"), file_(TABLE), st.just("--word"), LETTERS).map(list),
           NO_VERIFY),
)

SES = st.one_of(
    st.builds(lambda kind, parts: f"{kind}:{parts}",
              st.sampled_from(["cyclic", "split", "bogus"]),
              st.one_of(ints_text(), st.sampled_from(["3,3", "2,3", "x"]))),
    file_(st.one_of(st.just(_text(split_ses(3, 3).as_json())),
                    st.sampled_from(["{", "[]", '{"sub": [3]}']),
                    BAD_ENTRIES.map(_text))))

COCYCLE = st.one_of(
    joined(st.just(["cocycle", "check", "--op"]), file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--cochain"), file_(COCHAIN)).map(list)),
    joined(st.just(["cocycle", "solve", "--coeff"]), COEFF.map(lambda c: [c]),
           st.one_of(file_(TABLE).map(lambda f: ["--op", f]),
                     st.tuples(st.just("--pair"), file_(TABLE),
                               file_(TABLE)).map(list)),
           st.tuples(st.just("--degree"), st.one_of(
               st.sampled_from([-1, 0, 1, 2]), HUGE).map(str)).map(list),
           st.sampled_from([[], ["--generators"]])),
    joined(st.just(["cocycle", "extend", "--op"]), file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--cochain"), file_(COCHAIN)).map(list), NO_VERIFY),
    joined(st.just(["cocycle", "three-from-ses", "--op"]),
           file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--cochain"), file_(COCHAIN), st.just("--ses"),
                     SES).map(list), NO_VERIFY),
    joined(st.just(["cocycle", "cohomologous", "--op"]),
           file_(TABLE).map(lambda f: [f]),
           st.tuples(st.just("--c1"), file_(COCHAIN), st.just("--c2"),
                     file_(COCHAIN)).map(list)),
)

CHAINMAP = st.tuples(st.just("chainmap"), st.just("verify"), st.just("--pair"),
                     file_(TABLE), file_(TABLE)).map(list)


def _lie_bracket(field):
    # the two-dimensional nonabelian algebra: [e0, e1] = e1
    matrix = [[0] * 4, [0, 1, field - 1, 0]]
    return LinMap(Field(field), 2, 2, 1, matrix)


GOOD_OBJECTS = [_text(hopf_heap(group_algebra_hopf(cyclic_group(2), Field(p)))
                      .as_json()) for p in (2, 3)]
GOOD_LIE = [_text(LieAlgebraObject(2, _lie_bracket(p)).as_json()) for p in (3, 5)]
GOOD_MAPS = [_text(LinMap(Field(p), 2, 2, 1, [[1, 0, 0, 1], [0, 1, 1, 0]]).as_json())
             for p in (2, 3)]


def _break_map(obj, key, value):
    """A linear map JSON (or an object's nested map) with one field replaced."""
    obj = json.loads(obj)
    target = obj
    for k in ("w", "bracket"):
        if k in target:
            target = target[k]
    target[key] = value
    return _text(obj)


MAP_FIELDS = st.tuples(
    st.sampled_from(["field", "dim", "src_power", "dst_power", "matrix"]),
    st.one_of(SMALL, HUGE, BAD_ENTRIES, st.sampled_from(["1/0", "x", 2.5])))


def linear_json(good, junk):
    """A well-formed JSON text, one with a map field replaced, or junk."""
    return st.one_of(
        st.sampled_from(good),
        st.builds(lambda obj, kv: _break_map(obj, *kv), st.sampled_from(good),
                  MAP_FIELDS),
        st.sampled_from(junk))


OBJECT = linear_json(GOOD_OBJECTS, ["{", "[]", "{}", '{"arity": 2}'])
LIE = linear_json(GOOD_LIE, ["{", "[]", "{}", '{"dim": 2}'])
PAIRING = linear_json(GOOD_MAPS, ["{", "[]", "{}"])
FIELD = st.one_of(st.sampled_from([0, 2, 3, 4, -1, 1, 2 ** 61 - 1, "x"]), HUGE)

LINEAR = st.one_of(
    st.tuples(st.just("linear"), st.just("check-sd"), st.just("--object"),
              file_(OBJECT)).map(list),
    st.tuples(st.just("linear"), st.just("lie"), st.just("--object"),
              file_(LIE)).map(list),
    joined(st.sampled_from([["linear", "heap"], ["linear", "adjoint"]]),
           st.tuples(st.just("--group"), GROUP, st.just("--field"),
                     FIELD.map(str)).map(list)),
    joined(st.just(["linear", "augmented"]),
           st.tuples(st.just("--group"), GROUP, st.just("--field"),
                     FIELD.map(str)).map(list),
           st.one_of(st.just([]), file_(PAIRING).map(lambda f: ["--pairing", f]))),
)

INVOCATION = joined(
    st.sampled_from([[], ["--format", "json"]]),
    st.one_of(CONSTRUCT, CHECK, HOMOLOGY, COCYCLE, CHAINMAP, ENUMERATE, BRAID,
              LINEAR))


# no shrinking: the assertion already names the failing command line, and
# shrinking a batch that runs into its deadline would retry it for minutes
@settings(derandomize=True, max_examples=15, deadline=None, database=None,
          phases=[Phase.generate],
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.lists(INVOCATION, min_size=25, max_size=25))
def test_every_command_line_exits_0_1_or_2(run_fresh, batch):
    proc = run_fresh(["-c", BATCH_SCRIPT], cap_bytes=2 << 30, timeout=60,
                     input=json.dumps(batch))
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "Traceback" not in proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) == len(batch)
    for run in runs:
        assert run["code"] in (0, 1, 2), run
        assert "Traceback" not in run["stderr"], run
