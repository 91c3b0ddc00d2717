import selfdist


def test_every_exported_name_resolves():
    names = selfdist.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(selfdist, n)]
    assert not missing
    assert "shuffle_perm" not in names and "shuffle_positions" not in names
