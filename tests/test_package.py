import json

import pytest

import selfdist


def test_every_exported_name_resolves():
    names = selfdist.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(selfdist, n)]
    assert not missing
    assert "shuffle_perm" not in names and "shuffle_positions" not in names
    # the chain-map pullback duplicated `ternary_cocycle_from_pair`
    assert "pullback_labeled_2cocycle" not in names
    assert not hasattr(selfdist, "pullback_labeled_2cocycle")


# Within one pytest process every submodule is loaded by the time most
# tests run, so the checks of lazy loading below each start a fresh
# interpreter.

def fresh_json(run_fresh, code):
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("imports", [
    ["selfdist.cocycles"], ["selfdist.homology"],
    ["selfdist.cocycles", "selfdist.homology"],
    ["selfdist.homology", "selfdist.cocycles"],
    ["selfdist.linear", "selfdist.braid", "selfdist.enumeration"],
])
def test_homology_stays_the_function(run_fresh, imports):
    # the package binds the function over its submodule; no later import of
    # a submodule may rebind it
    seen = fresh_json(run_fresh, (
        "import importlib, json\n"
        "import selfdist\n"
        "seen = [type(selfdist.homology).__name__]\n"
        "for name in %r:\n"
        "    importlib.import_module(name)\n"
        "    seen.append(type(selfdist.homology).__name__)\n"
        "print(json.dumps(seen))" % (imports,)))
    assert seen == ["function"] * (len(imports) + 1)


def test_every_exported_name_resolves_fresh(run_fresh):
    out = fresh_json(run_fresh, (
        "import json\n"
        "import selfdist\n"
        "listed = set(dir(selfdist)) >= set(selfdist.__all__)\n"
        "missing = [n for n in selfdist.__all__ if not hasattr(selfdist, n)]\n"
        "space = {}\n"
        "exec('from selfdist import *', space)\n"
        "print(json.dumps([listed, missing, sorted(set(selfdist.__all__) - set(space))]))"))
    assert out == [True, [], []]


def test_unknown_name_is_an_attribute_error(run_fresh):
    proc = run_fresh(["-c", "import selfdist; selfdist.no_such_name"])
    assert proc.returncode == 1
    assert "AttributeError: module 'selfdist' has no attribute 'no_such_name'" in proc.stderr
