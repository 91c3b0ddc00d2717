"""Resource budgets: the one place that decides how large a request may be.

The paper's constructions grow carriers fast (a binary doubling has N^4
entries, a ternary one N^6, an extension on X x A has (N |A|)^k), so a
small argument can ask for many GiB or for hours of looping.  Two budgets
bound every such request:

- BYTES, the arrays one step builds whose size comes from the input;
- STEPS, the iterations of a loop, Python or numpy, whose trip count
  comes from the input, numpy work at its measured cost in steps.

Each is charged before the work it measures starts: before the
allocation, before the loop, and before any hypothesis of a construction
is verified.  What each charge counts, and the cost it was measured at,
is written beside the charge.  The estimates are Python integers, so
computing them cannot overflow, and `power` saturates so that a huge
exponent costs nothing to estimate.  An over-budget request raises
InputError, which the command line reports with exit status 2:

    refusing <what>: needs <n> bytes, budget <BYTES>
    refusing <what>: needs <n> steps, budget <STEPS>

BYTES is the 20M int64 entries of the boundary matrix cap it replaced, so
every homology verdict stands; it admits a table of 20M entries.  A step
holds a few temporaries of about the charged size besides (operands,
gathers, the JSON list of a result): the largest affine table that fits
peaks at 0.9 GiB resident and is built and written as JSON under a 2 GB
`ulimit -v`.  STEPS is spent in about a third of a second by the
translation search at 40 ns a step, so every refusal and every accepted
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
