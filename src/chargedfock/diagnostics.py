"""Shared numerics: log-log slope fits and extrapolated tail budgets."""

from __future__ import annotations

import math
import warnings
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
    # np.polyfit(xs, ys, 1)'s own solve, bit for bit, without its argument checks
    lhs = np.vander(xs, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    c, _, rank, _ = np.linalg.lstsq(lhs, ys, len(xs) * np.finfo(xs.dtype).eps)
    if rank != 2:  # every n equal
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning)
    return float(c[0] / scale[0])


def tail_budget(last_band_norms: Sequence[float], fitted_slope: float) -> float:
    """Estimate of the dropped remainder of a power-law series: with values
    ~ C n**slope and N = len(last_band_norms) the last included index,
    sum_{n>N} <= last_value * N / (-1 - slope), a bound only once the series
    decays at the fitted slope, which a fit need not show.  Slopes >= -1: +inf."""
    if not last_band_norms:
        return 0.0
    if fitted_slope >= -1:
        return math.inf
    last = float(last_band_norms[-1])
    n = len(last_band_norms)
    return last * n / (-1.0 - fitted_slope)
