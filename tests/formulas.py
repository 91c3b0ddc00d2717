"""Formula builders for the tests: tables and cochains from callables.

Each builder calls its callable once per argument tuple, in lexicographic
order, and hands the flat result to the library's own constructor.  This
per-entry loop is the slow, obviously correct way to write a table down
from a formula; the package builds its tables with array arithmetic and
is checked against tables written this way.
"""
import itertools

import numpy as np

from selfdist import limits
from selfdist.cocycles import Cochain, coeff_group
from selfdist.optable import OpTable, check_shape, table_bytes


def make_op_table(size: int, arity: int, entries) -> OpTable:
    """Build a validated table from a flat sequence or a callable on tuples.

    A callable receives one argument tuple per carrier point and must return a
    carrier element; values are reduced mod size so formula lambdas can return
    raw integers.
    """
    if callable(entries):
        check_shape(size, arity)
        what = f"a size {size} arity {arity} table from a callable"
        limits.charge_bytes(table_bytes(size, arity), what)
        limits.charge_steps(limits.power(size, arity), what)
        flat = np.fromiter(
            (entries(*args) % size
             for args in itertools.product(range(size), repeat=arity)),
            dtype=np.int64, count=size ** arity)
        return OpTable(size, arity, flat)
    return OpTable(size, arity, entries)


def make_cochain(size: int, nargs: int, coeff, entries, base=None) -> Cochain:
    """Build a cochain from a flat sequence or a callable on argument tuples.

    A callable must return one group element (residue sequence, or a bare
    integer when the group has a single factor)."""
    coeff = coeff_group(coeff)
    if callable(entries):
        what = f"a size {size} cochain on {nargs} arguments from a callable"
        limits.charge_steps(limits.power(size, nargs), what)
        limits.charge_bytes(8 * limits.power(size, nargs) * coeff.rank, what)
        rows = []
        for args in itertools.product(range(size), repeat=nargs):
            v = entries(*args)
            rows.append([v] if np.isscalar(v) else list(v))
        return Cochain(size, nargs, coeff, rows, base=base)
    return Cochain(size, nargs, coeff, entries, base=base)
