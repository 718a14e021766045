"""Order statistics for a noisy shared host.

A noisy neighbour spoils a stretch of wall time, not a run: the
measured phase is cut into windows, each statistic is taken per window,
and the reported number is the median over windows.
"""

from __future__ import annotations

import statistics

import numpy as np

NUM_WINDOWS = 5
# Below this many operations in a window a per-window p90 rests on too
# few samples beyond it; the p90 is then taken over the whole phase.
MIN_OPS_FOR_WINDOW_P90 = 100


def percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100], as a float."""
    return float(np.percentile(values, q))


def window_index(when, start, seconds):
    """Which of the ``NUM_WINDOWS`` windows of ``[start, start+seconds)``
    the instant ``when`` falls in, or ``None`` outside the phase."""
    if not start <= when < start + seconds:
        return None
    return min(int((when - start) / seconds * NUM_WINDOWS), NUM_WINDOWS - 1)


def median_over_windows(per_window):
    """Median of the per-window statistics; empty windows are skipped."""
    present = [value for value in per_window if value is not None]
    if not present:
        raise ValueError("no window holds a sample")
    return statistics.median(present)


def iqr_over_median(values):
    """The spread the driver judges a metric by: distance between the
    first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else float("inf")
