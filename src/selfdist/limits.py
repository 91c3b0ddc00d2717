"""Resource budgets: the one place that decides how large a request may be.

The paper's constructions grow carriers fast (a binary doubling has N^4
entries, a ternary one N^6, an extension on X x A has (N |A|)^k), so a
small argument can ask for many GiB or for hours of looping.  Two budgets
bound every such request, and each is charged before the work it measures
starts: before the allocation, before the loop, and before any hypothesis
of a construction is verified.  The estimates are Python integers, so
computing them cannot overflow, and `power` saturates so that a huge
exponent costs nothing to estimate.  An over-budget request raises
InputError, which the command line reports with exit status 2:

    refusing <what>: needs <n> bytes, budget <BYTES>
    refusing <what>: needs <n> steps, budget <STEPS>

BYTES counts the arrays one step builds whose size comes from the input:
the int64 entries of a table, a boundary matrix or a digit grid, the
values a cocycle passage sums and reduces with its base table, the terms a
sparse linear map is built from (64 bytes a term), the tables of a full
scan, the lookup tables of a translation search and each of its levels
(the partial tables it grows and 48 bytes for each condition it checks),
the narrow copies and the largest block of a batched scan, the Python
lists of a dense Smith reduction (8 bytes an entry), the int64 columns of
the braid action and of its images, and the tables, permutations, word
codes, tied pairs and largest block of an isomorphism search.  Its value
is the 20M int64 entries of the boundary matrix cap it replaced, so every
homology verdict stands; it admits a table of 20M entries.  A step holds a
few temporaries of about the charged size besides (operands, gathers, the
JSON list of a result): the largest affine table that fits peaks at 0.9
GiB resident and is built and written as JSON under a 2 GB `ulimit -v`.

STEPS counts the iterations of a loop whose trip count comes from the
input: the one translation search behind the rack scans and the sd, rack
and quandle full scans, charged the entries of its lookup tables and one
step for each condition its levels check, 3j + 1 a partial table at
level j (the racks on 5 points take 7.9M steps in 0.3 s on a 2-core Xeon,
40 ns a step), and its tables' verdict from the scan engine (an affine
scan checks no table: its kinds follow from the affine form), and the
Python-level loops of powers, cochain builders and boundary assembly, and
the dense Smith reduction of an elimination's rows x cols residual,
charged half a step per entry of the matrix it reduces times
min(rows, cols), as measured on the residuals of H5 of R4 and H4 of
conj(S3).  That matrix is the residual bordered by the
transforms the reduction carries: rows more columns for U, cols more rows
for V, so (rows + cols) * (cols + rows) entries with both.  The linear
distributivity check, now a chain of
sparse gathers over blocks of its inputs, keeps the bound of the dense
contraction it replaced: term combinations times block entries, and
over Q 40 steps for each Fraction multiply-add; each of its gathers is
charged to BYTES before it runs.  Numpy work is charged at its measured
cost in steps.  The scan engine charges 75 steps for each
lead coordinate of each block and one step per 12 tuples it evaluates,
counted on the classes of equal tails once `_scan` has grouped them (4
steps a tail for the grouping); a law's builder first charges the least
any scan of it can cost, one class, so a huge arity is refused before the
law is built.  The braid action charges 150 steps for each relation it
checks and 25 for each letter of a twist, plus one step per tuple or tail
each one gathers and, for a relation, one per strand.  An isomorphism
search relabels tables a word at a time, a word being as many entries as
one int64 holds as a base-N number (19 on 9 points).  It charges one step
per 12 entries it relabels and 3 a table: word 0 along all N!
permutations of every table, before any permutation is listed, then each
later word only on the (table, permutation) pairs still tied for the
least (a stack that fits one block takes all its words at once).
Listing the N! permutations, once a size, is charged 19 steps each.
Four ternary tables on 8 points take 0.28M steps, where relabeling every
entry took 7.6M.  One binary table on 9 points takes 0.57M for word 0,
and 2.4M if every permutation ties in every word, as for a projection,
besides 6.9M to list 9!; on 10 points the codes and tied pairs of word 0
alone pass BYTES.  At 40 ns a step the translation search spends all of
STEPS in about a third of a second, so every refusal and every accepted
run stays short."""
from __future__ import annotations

BYTES = 160_000_000
STEPS = 1 << 23


class InputError(ValueError):
    """Malformed input: wrong shapes, out-of-range entries, bad arguments,
    or a request over a resource budget."""


def power(base: int, exponent: int) -> int:
    """base ** exponent, saturated at 2 ** 64; negative arguments count as 0.

    Both budgets are far below 2 ** 64, so a saturated estimate refuses
    exactly when the true one would, without computing a huge power.
    """
    base, exponent = max(int(base), 0), max(int(exponent), 0)
    if base <= 1 or exponent == 0:
        return base ** exponent
    if exponent >= 64 or exponent * (base.bit_length() - 1) >= 64:
        return 1 << 64
    return min(base ** exponent, 1 << 64)


def _refuse(what: str, need: int, unit: str, budget: int):
    # a need built from saturated powers is only known to pass 2^64
    shown = need if need < 1 << 64 else "over 2^64"
    raise InputError(f"refusing {what}: needs {shown} {unit}, budget {budget}")


def charge_bytes(need: int, what: str) -> None:
    """Refuse `what` when the arrays it builds need more than BYTES bytes."""
    if need > BYTES:
        _refuse(what, need, "bytes", BYTES)


def charge_steps(need: int, what: str) -> None:
    """Refuse `what` when its loops need more than STEPS steps."""
    if need > STEPS:
        _refuse(what, need, "steps", STEPS)
