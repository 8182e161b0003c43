"""Array helpers that keep column passes equal to the dict loops they replace.

Two invariants let an array pass reproduce per-item Python code float for
float:

* **First-occurrence codes.**  :func:`first_codes` numbers the distinct
  rows of some int columns in the order they first appear, which is the
  insertion order of the dict the per-item code filled.
* **The interpreter's own float sums.**  ``x += w`` in a loop is plain
  left-to-right addition, which ``np.bincount`` and ``np.cumsum``
  reproduce.  The builtin ``sum`` is not always: from CPython 3.12 it
  adds floats with Neumaier compensation.  :func:`segment_sums` calls the
  builtin itself, and :func:`add_in_order` applies the same rule to many
  running sums at once, compensated exactly when :data:`COMPENSATED_SUM`
  says the builtin is.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Whether this interpreter's builtin ``sum`` of floats is compensated
#: (Neumaier, as CPython 3.12 and later add) rather than plain left-to-
#: right addition.  Probed, not read off the version: plain addition
#: loses the 1.0 to 1e16, compensation keeps it.
COMPENSATED_SUM = sum([1e16, 1.0, -1e16]) == 1.0


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


def segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Builtin ``sum`` of each run of consecutive ``values``, ``sizes[i]``
    values in run ``i``, added in row order."""
    flat = np.asarray(values, dtype=np.float64).tolist()
    ends = np.cumsum(sizes).tolist()
    return np.array(
        [sum(flat[start:end]) for start, end in zip([0] + ends, ends)],
        dtype=np.float64,
    )


def add_in_order(
    total: np.ndarray, error: np.ndarray, where: np.ndarray, x: np.ndarray
) -> None:
    """Add ``x`` to the running sums ``total[where]``, one more addend of
    each, in place; both arrays start at zero, and :func:`running_sums`
    reads the sums.  ``error`` is the compensation and stays zero when the
    builtin adds plainly."""
    s = total[where]
    t = s + x
    if COMPENSATED_SUM:
        error[where] += np.where(np.abs(s) >= np.abs(x), (s - t) + x, (x - t) + s)
    total[where] = t


def running_sums(total: np.ndarray, error: np.ndarray) -> np.ndarray:
    """Each entry's builtin ``sum`` of the addends :func:`add_in_order`
    gave it, in the order given (the builtin adds a nonzero, finite
    compensation at the end)."""
    return np.where((error != 0) & np.isfinite(error), total + error, total)
