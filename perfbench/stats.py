"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import re
from typing import Sequence, Tuple

import numpy as np

__all__ = ["NAME_RE", "MIN_BEYOND", "median", "steady_tail", "tail_percentile", "valid_name"]

#: Metric names use only letters, digits, ``_``, ``.`` and ``-``, start
#: with a letter or digit and stay within 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: The highest percentile reported.
TOP_PERCENTILE = 99.0
#: ``steady_tail`` splits a run into at most this many slices ...
MAX_SLICES = 5
#: ... of at least this many samples each.
SLICE_MIN = 1000


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name."""
    return bool(NAME_RE.match(name))


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (0.0 when empty)."""
    return float(np.median(values)) if len(values) else 0.0


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the latency tail.

    p99 when at least ``MIN_BEYOND`` samples lie beyond it, otherwise the
    highest percentile that still has that many, ``100 * (1 - 10 / n)``;
    it moves smoothly with the sample count, so runs whose counts differ
    a little report nearly the same percentile.  With ``MIN_BEYOND`` or
    fewer samples, the maximum (percentile 100).
    """
    n = len(values)
    if n == 0:
        return 100.0, 0.0
    if n <= MIN_BEYOND:
        return 100.0, float(np.max(values))
    pct = min(TOP_PERCENTILE, 100.0 * (1.0 - MIN_BEYOND / n))
    return pct, float(np.percentile(values, pct))


def steady_tail(values: Sequence[float]) -> Tuple[float, float]:
    """Median over consecutive slices of each slice's :func:`tail_percentile`.

    ``values`` are in the order they were measured.  Runs with at least
    ``2 * SLICE_MIN`` samples are cut into up to ``MAX_SLICES`` slices of
    at least ``SLICE_MIN``; a stall on the shared machine then moves one
    slice's tail instead of the whole run's.  Shorter runs are one slice.
    """
    slices = max(1, min(MAX_SLICES, len(values) // SLICE_MIN))
    tails = [tail_percentile(part) for part in np.array_split(np.asarray(values), slices)]
    return median([p for p, _ in tails]), median([v for _, v in tails])
