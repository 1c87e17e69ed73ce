"""Shared numerics: log-log slope fits and extrapolated tail budgets."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def loglog_slope(series: Sequence[Tuple[float, float]], window=None) -> float:
    """Least-squares slope of log(value) against log(n).

    series: (n, value) pairs with n and value strictly positive.
    window: optional inclusive (lo, hi) filter on n.
    """
    pts = [(n, v) for n, v in series if window is None or window[0] <= n <= window[1]]
    if len(pts) < 2:
        raise ValueError("slope fit needs at least two points")
    if any(n <= 0 or v <= 0 for n, v in pts):
        raise ValueError("slope fit needs positive coordinates")
    xs = np.log([float(n) for n, _ in pts])
    ys = np.log([float(v) for _, v in pts])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def tail_budget(last_band_norms: Sequence[float], fitted_slope: float) -> float:
    """Bound on the dropped remainder of a power-law series.

    With values following ~ C n**slope and N = len(last_band_norms) the last
    included index, the integral bound on sum_{n>N} is
    last_value * N / (-1 - slope).  Slopes >= -1 are not summable: +inf.
    """
    if not last_band_norms:
        return 0.0
    if fitted_slope >= -1:
        return math.inf
    last = float(last_band_norms[-1])
    n = len(last_band_norms)
    return last * n / (-1.0 - fitted_slope)
