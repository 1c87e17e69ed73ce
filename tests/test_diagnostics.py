import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chargedfock.diagnostics import loglog_slope, tail_budget

POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


def test_loglog_slope_recovers_power_law():
    series = [(n, 3.0 * n ** -1.5) for n in range(1, 50)]
    assert loglog_slope(series) == pytest.approx(-1.5, abs=1e-9)
    assert loglog_slope(series, window=(10, 40)) == pytest.approx(-1.5, abs=1e-9)


def test_loglog_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        loglog_slope([(1, 1.0)])
    with pytest.raises(ValueError):
        loglog_slope([(1, 1.0), (2, 0.0)])
    with pytest.raises(ValueError):
        loglog_slope([(n, 1.0) for n in range(1, 5)], window=(10, 20))


def _outcome(fit):
    """(slope's hex, warning categories) of a fit, or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            slope = fit()
        except (ValueError, np.linalg.LinAlgError) as exc:
            return type(exc)
    return float(slope).hex(), [w.category for w in caught]


def _polyfit_outcome(series, window):
    """np.polyfit's on the points loglog_slope keeps; its refusal of fewer than two."""
    pts = [(n, v) for n, v in series if window is None or window[0] <= n <= window[1]]
    if len(pts) < 2:
        return ValueError
    xs, ys = np.log([float(n) for n, _ in pts]), np.log([v for _, v in pts])
    return _outcome(lambda: np.polyfit(xs, ys, 1)[0])


@given(
    st.lists(st.tuples(st.integers(1, 10**6) | st.floats(min_value=1e-3, max_value=1e6), POSITIVE),
             min_size=2, max_size=64),
    st.none() | st.tuples(st.integers(1, 1000), st.integers(1, 10**6)),
)
@example([(1, 1.0), (1, 2.0)], None)
@example([(1, 2.0), (5, 1.0), (7, 3.0)], (4, 6))
def test_loglog_slope_is_polyfits_slope_bit_for_bit(series, window):
    # n all equal is rank-deficient: a RankWarning, or at n = 1 a zero column
    # that both solves refuse with LinAlgError
    assert _outcome(lambda: loglog_slope(series, window)) == _polyfit_outcome(series, window)


def test_a_fit_with_every_n_equal_warns_as_polyfit_does():
    # the one rank-deficient fit: the columns log n and 1 are proportional
    series = [(3, 1.0), (3, 2.0), (3, 5.0)]
    with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
        loglog_slope(series)
    outcome = _outcome(lambda: loglog_slope(series))
    assert outcome == _polyfit_outcome(series, None)
    assert outcome[1] == [np.exceptions.RankWarning]


def test_tail_budget_pinned_example():
    values = [1e-6] * 100  # only the last value and the length matter
    assert tail_budget(values, -1.5) == pytest.approx(2e-4)


def test_tail_budget_divergent_flag():
    assert tail_budget([1.0, 0.5], -1.0) == math.inf
    assert tail_budget([1.0, 0.5], -0.3) == math.inf
    assert tail_budget([], -2.0) == 0.0


def test_tail_budget_shrinks_with_more_bands():
    slope = -1.5
    budgets = []
    for N in (50, 100, 200):
        vals = [n ** slope for n in range(1, N + 1)]
        budgets.append(tail_budget(vals, slope))
    assert budgets[0] > budgets[1] > budgets[2]
