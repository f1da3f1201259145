"""Order statistics for the benchmark: run.py, instrument.py and sweep.py.

Timings are summarized by their median.  A tail percentile is reported only
where at least ``MIN_BEYOND`` samples lie beyond it, because a p90 of nine
samples is just the largest sample.  Run-to-run spread is the distance
between the first and third quartile as a share of the median, with the
quartiles exactly as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def median(values) -> float:
    """Median of the values, 0.0 when there are none (a stage that never ran)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values, pct: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``pct``-th percentile, or None when fewer than
    ``min_beyond`` samples lie strictly above its rank."""
    n = len(values)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers: 0.9 * 100 is not 90 in floats
    if rank < 1 or n - rank < min_beyond:
        return None
    return float(sorted(values)[rank - 1])


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / |median|) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return q1, med, q3, 0.0 if q3 == q1 else float("inf")
    return q1, med, q3, (q3 - q1) / abs(med)
