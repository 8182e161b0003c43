"""The builtin ``sum``'s two float rules, transcribed.

CPython up to 3.11 adds floats left to right; from 3.12 it adds them with
Neumaier compensation.  :func:`plain_sum` and :func:`neumaier_sum` are the
two loops in Python.  ``src/`` sums every float total that reaches an
output in order, and the references here call :func:`plain_sum`, so
neither depends on the builtin.  :func:`summing_as` swaps the builtin
itself for one of the rules, emulating "this interpreter's ``sum``", so
tests can check that outputs are the same whichever rule it has.
"""

from __future__ import annotations

import builtins
import math
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

#: The interpreter's own ``sum``, kept for :func:`neumaier_sum`'s non-float
#: fallback while :func:`summing_as` has replaced the builtin.
_builtin_sum = builtins.sum


def plain_sum(values, start=0):
    """``sum`` before CPython 3.12: left-to-right addition."""
    total = start
    for value in values:
        total = total + value
    return total


def neumaier_sum(values, start=0):
    """``sum`` from CPython 3.12 on: an int start, then exact floats
    added with Neumaier compensation; anything else as the builtin."""
    values = list(values)
    if start != 0 or type(start) is not int or not values or not all(
        type(value) is float for value in values
    ):
        return _builtin_sum(values, start)
    total = 0 + values[0]
    error = 0.0
    for value in values[1:]:
        t = total + value
        if abs(total) >= abs(value):
            error += (total - t) + value
        else:
            error += (value - t) + total
        total = t
    if error and math.isfinite(error):
        total += error
    return total


@contextmanager
def summing_as(compensated: bool) -> Iterator[None]:
    """Inside the block the builtin ``sum`` adds floats by one rule:
    compensated (CPython 3.12) or plain."""
    with mock.patch.object(builtins, "sum", neumaier_sum if compensated else plain_sum):
        yield
