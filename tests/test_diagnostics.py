import math

import pytest

from chargedfock.diagnostics import loglog_slope, tail_budget


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
