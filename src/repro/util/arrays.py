"""Array helpers that keep column passes equal to the dict loops they replace.

Two invariants let an array pass reproduce per-item Python code float for
float:

* **First-occurrence codes.**  :func:`first_codes` numbers the distinct
  rows of some int columns in the order they first appear, which is the
  insertion order of the dict the per-item code filled.
* **One float rule.**  Every float total that reaches a verdict, a
  relation score or a pattern is plain left-to-right addition in the
  order the code visits its addends: ``x += w`` in a loop, ``np.bincount``
  and ``np.cumsum`` over arrays, and :func:`sum_in_order` over a Python
  sequence.  Not the builtin ``sum``, whose float rule depends on the
  interpreter (compensated from CPython 3.12), nor pairwise ``np.sum``.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable, Tuple

import numpy as np


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right, from ``0.0``."""
    return reduce(operator.add, values, 0.0)


def first_codes(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense codes for the rows of int ``columns``, numbered in first-
    occurrence order, and each code's first row."""
    n = len(columns[0])
    key = np.zeros(n, dtype=np.int64)
    radix = 1
    for column in columns:
        if not n:
            break
        low = int(column.min())
        span = int(column.max()) - low + 1
        if radix * span >= 1 << 62:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            radix = int(key.max()) + 1
        key = key * span + (column - low)
        radix *= span
    _unique, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]

