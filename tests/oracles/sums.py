"""The builtin ``sum``'s two float rules, transcribed.

CPython up to 3.11 adds floats left to right; from 3.12 it adds them with
Neumaier compensation.  :func:`plain_sum` and :func:`neumaier_sum` are the
two loops in Python; :func:`summing_as` makes the aggregation modules and
their references in this package sum by one of them, so both rules are
tested whichever one the running interpreter has.
"""

from __future__ import annotations

import builtins
import math
from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock


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
        return builtins.sum(values, start)
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
    """Inside the block the array passes and the per-group references
    sum floats by one rule: compensated (CPython 3.12) or plain."""
    from repro.aggregation import autofocus, patterns
    from repro.util import arrays
    from tests.oracles import autofocus as oracle_autofocus
    from tests.oracles import patterns as oracle_patterns

    rule = neumaier_sum if compensated else plain_sum
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(arrays, "COMPENSATED_SUM", compensated))
        for module in (arrays, autofocus, patterns, oracle_autofocus, oracle_patterns):
            stack.enter_context(mock.patch.object(module, "sum", rule, create=True))
        yield
