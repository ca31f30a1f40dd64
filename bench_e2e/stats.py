"""Summaries of timing samples: median, tail percentile, sample count."""

from __future__ import annotations

import math
import statistics

#: Percentiles a summary may report, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)

#: A percentile is reported only with at least this many samples
#: beyond it (choosing-metrics §1).
MIN_BEYOND = 10


def tail_percentile(n: int):
    """Highest of :data:`PERCENTILES` that leaves at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if n * (100 - p) >= MIN_BEYOND * 100:
            best = p
    return best


def percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def summarize(samples: list[float]) -> dict:
    """``{median, n, tail}``; ``tail`` is ``{p, value}`` for the
    percentile :func:`tail_percentile` allows, else None."""
    p = tail_percentile(len(samples))
    return {
        "median": statistics.median(samples),
        "n": len(samples),
        "tail": ({"p": p, "value": percentile(samples, p)}
                 if p is not None else None),
    }
