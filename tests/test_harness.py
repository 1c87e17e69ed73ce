import inspect
import logging
import math
import re
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

import chargedfock.harness as harness
import chargedfock.heisenberg as heisenberg
import chargedfock.twodim as twodim
import chargedfock.vertex as vertex
import chargedfock.virasoro as virasoro
from chargedfock.desitter import PerturbedGenerator, apply_l_part
from chargedfock.fock import (
    SectorState,
    Space,
    TensorState,
    Truncation,
    charge_key,
    inner_product,
    partitions_of,
    residual,
    states_equal,
)
from chargedfock.harness import (
    algebra_report,
    commutativity_report,
    current_bracket_suite,
    current_covariance_suite,
    decay_report,
    divergence_series,
    lorentz_closure_suite,
    mode_adjoint_suite,
    mode_oracle_suite,
    primary_covariance_suite,
    virasoro_bracket_suite,
)
from chargedfock.scalar import make_context
from chargedfock.twodim import partial_sum_norm_series, vacuum_norm_series
from chargedfock.vertex import charge_multiplier, conformal_weight, vacuum_mode_norm_sq, y_matrices
from chargedfock.virasoro import central_term
from fraction_reference import reference_failing, reference_residual
from state_reference import mode_index

EXACT = make_context("exact-rational")
A0 = HALF = Fraction(1, 2)


def space(L, window=(-2, 2)):
    return Space(EXACT, A0, Truncation(L, *window))


def test_identity_suites_pass_on_small_window():
    sp = space(6)
    for suite in (
        current_bracket_suite(sp),
        virasoro_bracket_suite(sp),
        lorentz_closure_suite(sp),
        current_covariance_suite(sp, HALF),
        primary_covariance_suite(sp, HALF),
        mode_oracle_suite(sp, HALF),
        mode_adjoint_suite(sp, HALF),
    ):
        assert suite["status"] == "pass", suite
        assert suite["first_failure"] is None
        assert suite["states_checked"] > 0


def test_fault_injection_is_pinpointed():
    sp = space(6)
    virasoro.FAULT_SUGAWARA = True
    try:
        suite = virasoro_bracket_suite(sp)
    finally:
        virasoro.FAULT_SUGAWARA = False
    assert suite["status"] == "fail"
    failure = suite["first_failure"]
    # the corrupted quadratic-current coefficient sits in the m=2 generator
    assert failure["n"] == 2 or failure["m"] == 2
    assert failure == {"m": -4, "n": 2, "sector": -2, "basis": [1]}
    # a clean rerun must not inherit the corrupt generator
    assert virasoro_bracket_suite(sp)["status"] == "pass"


def test_degenerate_cutoff_warns_vacuous_interior():
    rep = algebra_report(space(0), HALF)
    assert rep["verdict"] == "pass"
    assert [s["states_checked"] for s in rep["suites"]] == [245, 125, 0, 64, 64, 2, 4]
    assert rep["warnings"] == [
        "current_bracket: vacuous interior for 120 of 169 cells at this cutoff",
        "virasoro_bracket: vacuous interior for 56 of 81 cells at this cutoff",
        "lorentz_closure: vacuous interior for 9 of 9 cells at this cutoff",
        "lorentz_closure: vacuous interior, no states checked",
        "current_covariance: vacuous interior for 33 of 49 cells at this cutoff",
        "primary_covariance: vacuous interior for 33 of 49 cells at this cutoff",
        "mode_adjoint: vacuous interior for 8 of 9 cells at this cutoff",
    ]


# mode -> (module, row-table factory): the apply_* kernels and the level
# matrices the suites check both read their rows through these
ROW_TABLES = {"J": (heisenberg, "_j_table"), "L": (virasoro, "_l_table"), "Y": (vertex, "_y_table")}


def _doubled_rows(monkeypatch, mode, hit, target=None, shift=0):
    """Double, in the rows of the mode's tables whose factory arguments `hit`,
    every coefficient, or only the one on the output (sector, partition)
    `target` (the sector raised by `shift`)."""
    module, name = ROW_TABLES[mode]
    make = getattr(module, name)

    def faulty(*args):
        rows = make(*args)
        if not hit(*args):
            return rows

        def row(j, lam):
            den, level, mus, nums = rows(j, lam)
            doubled = [target is None or (j + shift, mu) == target for mu in mus]
            return den, level, mus, tuple(2 * n if d else n for n, d in zip(nums, doubled))

        return row

    monkeypatch.setattr(module, name, faulty)


def _sugawara_fault(monkeypatch):
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", True)


# suite -> (fault, run, (states checked, cells, vacuous cells, first failure)), the
# figures each suite reported before the sweep engine replaced its own loop,
# at its fixed ranges.  Each fault sits in the rows that both the state
# kernels and the level matrices read.
FAULT_CASES = {
    "current_bracket": (
        lambda mp: _doubled_rows(mp, "J", lambda m, alpha0: m == 1),
        current_bracket_suite,
        (336, 73, 44, {"m": -1, "n": 1, "sector": -2, "basis": []}),
    ),
    "virasoro_bracket": (
        _sugawara_fault,
        virasoro_bracket_suite,
        (52, 16, 7, {"m": -3, "n": 2, "sector": -2, "basis": [1]}),
    ),
    # doubling L_1 doubles G_1's left and G_-1's right factor, where the
    # state-based suite doubled all of G_1: the same cell fails first
    "lorentz_closure": (
        lambda mp: _doubled_rows(mp, "L", lambda n, alpha0, fault: n == 1),
        lorentz_closure_suite,
        (162, 3, 0, {"m": -1, "n": 1, "sector": -2, "basis": [[], [1]]}),
    ),
    "current_covariance": (
        lambda mp: _doubled_rows(mp, "Y", lambda alpha, delta: delta == 1),
        lambda sp: current_covariance_suite(sp, HALF),
        (9, 2, 0, {"m": -3, "delta": -2, "sector": -2, "basis": []}),
    ),
    "primary_covariance": (
        _sugawara_fault,
        lambda sp: primary_covariance_suite(sp, HALF),
        (796, 37, 3, {"m": 2, "delta": -2, "sector": -2, "basis": [4]}),
    ),
    "mode_oracle_equivalence": (
        lambda mp: _doubled_rows(mp, "Y", lambda alpha, delta: delta == 1),
        lambda sp: mode_oracle_suite(sp, HALF),
        (47, 6, 0, {"delta": 1, "sector": 0, "basis": []}),
    ),
    # the failing cell's states count, although the cell never finishes
    "mode_adjoint": (
        lambda mp: _doubled_rows(mp, "Y", lambda alpha, delta: delta == 1),
        lambda sp: mode_adjoint_suite(sp, HALF),
        (113, 4, 0, {"delta": -1, "sector": -2, "basis": [1], "target": []}),
    ),
}


@pytest.mark.parametrize("name", list(FAULT_CASES))
def test_suite_failure_bookkeeping(monkeypatch, name):
    inject, run, (checked, cells, vacuous, failure) = FAULT_CASES[name]
    inject(monkeypatch)
    warning = f"{name}: vacuous interior for {vacuous} of {cells} cells at this cutoff"
    assert run(space(4)) == {
        "suite": name,
        "states_checked": checked,
        "cells": cells,
        "vacuous_cells": vacuous,
        "warnings": [warning] if vacuous else [],
        "first_failure": failure,
        "status": "fail",
    }


def test_each_suite_logs_its_counts(caplog):
    # one INFO line per suite of algebra_report, then one per family, on
    # stderr only: the report itself carries no timing or residual count
    with caplog.at_level(logging.INFO, logger="chargedfock.harness"):
        rep = algebra_report(space(2), HALF)
    *lines, current, vertex = [r.getMessage() for r in caplog.records if r.name == "chargedfock.harness"]
    assert current.startswith("current family (current_bracket, virasoro_bracket, lorentz_closure): pid ")
    assert vertex.startswith(
        "vertex family (current_covariance, primary_covariance, mode_oracle_equivalence, mode_adjoint): pid "
    )
    assert [line.split(":")[0] for line in lines] == [s["suite"] for s in rep["suites"]]
    for line, suite in zip(lines, rep["suites"]):
        assert f": {suite['states_checked']} states checked, " in line
    pattern = (
        r"current_bracket: \d+ states checked, (\d+) batched residuals, 0 needed primes \(at most 0\),"
        r" (\d+) reused from mirrored cells, [\d.]+ s"
    )
    computed, mirrored = map(int, re.fullmatch(pattern, lines[0]).groups())
    assert 0 < mirrored < computed
    # only the two bracket suites have mirrored cells
    for line in lines[2:]:
        assert ", 0 reused from mirrored cells, " in line
    # at alpha0 = 2/7 some covariance residuals pass 2**64 and take a prime, not all
    caplog.clear()
    sp = Space(EXACT, Fraction(2, 7), Truncation(8, -2, 2))
    with caplog.at_level(logging.INFO, logger="chargedfock.harness"):
        primary_covariance_suite(sp, Fraction(2, 7))
    (line,) = [r.getMessage() for r in caplog.records if r.name == "chargedfock.harness"]
    pattern = r"(\d+) batched residuals, (\d+) needed primes \(at most (\d+)\)"
    batched, wide, most = map(int, re.search(pattern, line).groups())
    assert 0 < wide < batched and most >= 1


def _bracket_cells(monkeypatch, suite, sp):
    """(m, n) -> the Python-int or float64 residual sum of each interior
    level of that cell of a bracket suite, every cell computed in full, none
    reused from its mirror; each fails the entries that the suite's fails.
    A level is None where it computed no residual: its output level, below
    0, has no states."""
    computed = []

    def recorded(ctx, terms):
        computed.append(reference_residual(ctx, terms))
        bad, primes = residual(ctx, terms)
        assert (bad == reference_failing(ctx, terms)).all()
        return bad, primes

    commutator = harness._commutator
    sweeps = []
    monkeypatch.setattr(harness, "residual", recorded)
    monkeypatch.setattr(harness, "_commutator", lambda space, a, b, rhs, mirrors=None: commutator(space, a, b, rhs))
    monkeypatch.setattr(harness, "_bracket_sweep", lambda *args, **labels: sweeps.append((args, labels)))
    suite(sp)
    ((_, _, bracket, sectors), labels), = sweeps
    rows = harness._positions(sp, sectors)
    out = {}
    for m, n in product(*labels.values()):
        headroom, checks = bracket(m, n)
        out[m, n] = []
        for level in range(sp.trunc.level_cutoff - headroom + 1):
            before = len(computed)
            list(checks(rows, [level]))
            assert (len(computed) == before) == (level - m - n < 0), (m, n, level)
            out[m, n].append(computed[-1] if len(computed) > before else None)
    return out


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("mode", ["exact-rational", "float"])
@pytest.mark.parametrize("suite", [current_bracket_suite, virasoro_bracket_suite])
def test_mirrored_cells_have_negated_residuals(monkeypatch, suite, mode, fault):
    # cell (n, m) reuses the failing columns of (m, n): its residual must be
    # the other's times -1, entry by entry, on every level, in both modes
    ctx = make_context(mode, 1e-9 if mode == "float" else 0.0)
    sp = Space(ctx, ctx.parse("1/2"), Truncation(5, -2, 2))
    monkeypatch.setattr(virasoro, "FAULT_SUGAWARA", fault)
    cells = _bracket_cells(monkeypatch, suite, sp)
    for (m, n), levels in cells.items():
        assert len(cells[n, m]) == len(levels)
        for x, y in zip(levels, cells[n, m]):
            if x is None:
                assert y is None, (m, n)
                continue
            assert x.dtype == y.dtype
            assert np.array_equal(y, -x), (m, n)
            if mode == "float":
                # bit for bit, up to the sign of a zero
                assert (y + 0.0).tobytes() == (-x + 0.0).tobytes(), (m, n)
    failing = any(x is not None and x.any() for levels in cells.values() for x in levels)
    assert failing == (fault and suite is virasoro_bracket_suite)


def test_a_right_hand_side_that_is_not_the_mirrors_negation_is_computed(monkeypatch):
    # a central term doubled only for m > 0 breaks the bracket at (2, -2) but
    # not at its mirror (-2, 2), which runs first: reusing the mirror's
    # passing columns would hide the fault
    monkeypatch.setattr(harness, "central_term", lambda m, n: central_term(m, n) * (2 if m > 0 else 1))
    suite = virasoro_bracket_suite(space(6))
    assert suite["status"] == "fail"
    assert (suite["first_failure"]["m"], suite["first_failure"]["n"]) == (2, -2)


def test_mode_oracle_fails_a_fault_of_one_sector_in_that_sector(monkeypatch):
    # both sectors compare with one oracle stack, each with its own plane of
    # the mode's stack: Y rows doubled for source sector 1 alone fail there
    make = vertex._y_table

    def faulty(key, delta):
        rows = make(key, delta)

        def row(j, lam):
            den, level, mus, nums = rows(j, lam)
            return den, level, mus, tuple(2 * n for n in nums) if j == 1 else nums

        return row

    monkeypatch.setattr(vertex, "_y_table", faulty)
    suite = mode_oracle_suite(space(4), HALF)
    assert suite["status"] == "fail"
    assert suite["first_failure"]["sector"] == 1
    # every cell of sector 0 ran and passed first
    assert suite["first_failure"]["delta"] == -4


def test_headroom_keeps_identities_truncation_free():
    # the same suite at a deeper cutoff checks strictly more states, and both
    # pass: interior selection never trades exactness for coverage
    small = current_bracket_suite(space(4))
    big = current_bracket_suite(space(6))
    assert small["status"] == big["status"] == "pass"
    assert big["states_checked"] > small["states_checked"]


def test_float_norm_series_matches_exact_closed_form():
    series = vacuum_norm_series(float(HALF * HALF), 24)
    for n in range(25):
        exact = float(vacuum_mode_norm_sq(HALF, n))
        assert series[n] == pytest.approx(exact, rel=1e-12)


def test_float_partial_rows_track_exact_series():
    exact_rows = partial_sum_norm_series(HALF * HALF, 1, 12)
    float_rows = partial_sum_norm_series(0.25, 1, 12)
    assert [r[0] for r in float_rows] == [r[0] for r in exact_rows]
    for (_, fv, ft), (_, ev, et) in zip(float_rows, exact_rows):
        assert fv == pytest.approx(float(ev), rel=1e-12)
        assert ft == pytest.approx(float(et), rel=1e-12)


def test_decay_report_shape_and_verdict():
    rep = decay_report(space(10), HALF, n_max=512)
    assert rep["verdict"] == "pass"
    assert rep["exact_table"][1] == {"n": 1, "computed": "1/4", "closed_form": "1/4", "equal": True}
    assert len(rep["exact_table"]) == 11  # n = 0..min(L, 30)
    assert abs(rep["slope"]["fitted"] - (-0.75)) < 0.05
    assert rep["block_norms"]["ok"]
    assert all(r["norm"] <= 1 + 1e-9 for r in rep["block_norms"]["rows"])
    deltas = {r["delta"] for r in rep["block_norms"]["rows"]}
    assert deltas == set(range(-6, 7))
    charges = {r["alpha"] for r in rep["block_norms"]["rows"]}
    assert charges == {"1/2", "1"}


def test_decay_report_without_slope_window():
    rep = decay_report(space(6), HALF, n_max=16)
    assert rep["slope"]["fitted"] is None
    assert rep["verdict"] == "budget_exceeded"
    assert any("slope window" in w for w in rep["warnings"])


def test_commutativity_vacuum_cells_vanish_exactly():
    rep = commutativity_report(space(8), HALF, m_range=1, samples=0, low_cutoff=6)
    assert rep["verdict"] == "pass"
    vac = rep["vacuum"]
    assert vac["all_exact_zero"]
    assert vac["max_abs_residual"] == 0.0
    assert all(row["exact_zero"] for row in vac["rows"])


def test_commutativity_excited_residuals_shrink():
    rep = commutativity_report(space(9), HALF, m_range=2, samples=1, low_cutoff=6)
    exc = rep["excited"]
    assert exc["cutoffs"] == [6, 9]
    assert exc["nonincreasing"]
    assert exc["strictly_shrank"]
    nonzero = [r for r in exc["rows"] if r["residual_abs"] > 0]
    assert nonzero, "excited probes must exercise a nonzero bilinear residual"


def test_commutativity_report_builds_each_distinct_image_once(monkeypatch):
    # the commutativity benchmark's config: cutoffs 6 and 7, seed 0
    calls = {"requests": 0, "images": 0}
    apply, build = twodim.PsiCache.apply, twodim.time_zero_image

    def counted_apply(cache, *args):
        calls["requests"] += 1
        return apply(cache, *args)

    def counted_build(*args):
        calls["images"] += 1
        return build(*args)

    monkeypatch.setattr(twodim.PsiCache, "apply", counted_apply)
    monkeypatch.setattr(twodim, "time_zero_image", counted_build)
    twodim.IMAGES._store.clear()
    rep = commutativity_report(space(7), HALF, seed=0, low_cutoff=6)
    assert rep["verdict"] == "pass"
    assert calls == {"requests": 220, "images": 63}


def test_commutativity_report_logs_its_images_and_grams(caplog):
    # README quotes this line at the commutativity benchmark's config, with
    # the memos cold; warm, the report builds no image and computes no Gram again
    twodim._chiral_gram.cache_clear()
    twodim.IMAGES._store.clear()
    for images, grams in ((63, 96), (0, 0)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="chargedfock.harness"):
            rep = commutativity_report(space(7), HALF, seed=0, low_cutoff=6)
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("commutativity: ")]
        assert line.startswith(
            f"commutativity: 25 vacuum and 30 excited rows, {images} of 220 time-zero images built,"
            f" {grams} chiral Grams computed, "
        )
        assert (len(rep["vacuum"]["rows"]), len(rep["excited"]["rows"])) == (25, 30)


def test_commutativity_probes_sit_one_charge_step_inside_the_window():
    # alpha = 2 alpha0 moves a state two sectors, so a probe in sector +-1
    # of the window (-2, 2) would have its image clipped
    sp = Space(EXACT, Fraction(1, 4), Truncation(7, -2, 2))
    rep = commutativity_report(sp, HALF, seed=0, samples=8, low_cutoff=6)
    assert rep["verdict"] == "pass"
    assert {row["probe"] for row in rep["excited"]["rows"]} == {"level-one", "split"} | {
        f"sampled-{k}" for k in range(8)
    }
    narrow = Space(EXACT, HALF, Truncation(7, 0, 0))
    with pytest.raises(ValueError, match="left the charge window"):
        commutativity_report(narrow, HALF)


def test_divergence_series_increments_settle():
    rows = divergence_series(512)
    assert [r[0] for r in rows] == [2, 4, 8, 16, 32, 64, 128, 256, 512]
    increments = [inc for n, _, inc in rows if n >= 64]
    assert max(increments) / min(increments) < 1.1
    assert increments[-1] == pytest.approx(math.log(2) / math.pi, rel=0.02)
    # partial sums keep growing: no convergence at the critical charge
    sums = [total for _, total, _ in rows]
    assert all(b > a for a, b in zip(sums, sums[1:]))


def _reference_bracket(name, sp, ranges, bracket, sectors, sides, cap=None):
    """Suite dict of a bracket suite, one basis vector at a time: each cell
    checks a(b v) - b(a v) == rhs(j, v) on every interior basis state."""
    checked = cells = vacuous = 0
    failure = None
    (x_label, rx), (y_label, ry) = ranges
    for x, y in product(range(-rx, rx + 1), range(-ry, ry + 1)):
        cells += 1
        headroom, a, b, rhs = bracket(x, y)
        top = sp.trunc.level_cutoff - headroom
        top = top if cap is None else min(top, cap)
        chiral = [lam for level in range(top + 1) for lam in partitions_of(level)]
        seen = 0
        for j in sectors:
            for lams in product(chiral, repeat=sides):
                v = (SectorState if sides == 1 else TensorState).basis(j, *lams)
                seen += 1
                if not states_equal(EXACT, a(b(v)).sub(b(a(v))), rhs(j, v)):
                    basis = list(lams[0]) if sides == 1 else [list(lam) for lam in lams]
                    failure = {x_label: x, y_label: y, "sector": j, "basis": basis}
                    break
            if failure:
                break
        checked += seen
        if failure:
            break
        vacuous += seen == 0
    warning = f"{name}: vacuous interior for {vacuous} of {cells} cells at this cutoff"
    return {
        "suite": name,
        "states_checked": checked,
        "cells": cells,
        "vacuous_cells": vacuous,
        "warnings": [warning] if vacuous else [],
        "first_failure": failure,
        "status": "fail" if failure else "pass",
    }


def _reference_cases(sp):
    """suite -> (run, reference) at the default ranges; the reference applies
    the state kernels, which read the same row tables as the suites."""
    window = list(range(sp.trunc.j_min, sp.trunc.j_max + 1))
    charged = [j for j in window if sp.trunc.admits_sector(j + 1)]  # alpha = alpha0
    J = lambda m: lambda v: heisenberg.apply_J(sp, m, v)  # noqa: E731
    L = lambda m: lambda v: virasoro.apply_L(sp, m, v)  # noqa: E731
    Y = lambda delta: lambda v: vertex.apply_Y_mode(sp, HALF, delta, v)  # noqa: E731
    base = PerturbedGenerator("lorentz", 0, EXACT.zero(), A0)
    G = lambda m: lambda v: apply_l_part(sp, base.at(m), v)  # noqa: E731
    chiral = lambda m, n: max(0, -m, -n, -m - n)  # noqa: E731
    covariant = lambda m, delta: max(0, delta, -m, delta - m)  # noqa: E731
    d = conformal_weight(HALF)

    def current(m, n):
        return chiral(m, n), J(m), J(n), lambda j, v: v.scale(m if m + n == 0 else 0)

    def virasoro_(m, n):
        rhs = lambda j, v: L(m + n)(v).scale(m - n).add(v.scale(central_term(m, n)))  # noqa: E731
        return chiral(m, n), L(m), L(n), rhs

    def lorentz(m, n):
        rhs = lambda j, v: TensorState.zero() if m == n else G(m + n)(v).scale(m - n)  # noqa: E731
        return 2, G(m), G(n), rhs

    def current_cov(m, delta):
        return covariant(m, delta), J(m), Y(delta), lambda j, v: Y(delta - m)(v).scale(HALF)

    def primary_cov(m, delta):
        def rhs(j, v):
            s = mode_index(sp, HALF, j, delta)
            return Y(delta - m)(v).scale((d - 1) * m - s)

        return covariant(m, delta), L(m), Y(delta), rhs

    # suite -> (suite run, label ranges, cell bracket, sectors, sides[, level cap])
    covariance = [("m", 3), ("delta", 3)]
    cases = {
        "current_bracket": (current_bracket_suite, [("m", 6), ("n", 6)], current, window, 1),
        "virasoro_bracket": (virasoro_bracket_suite, [("m", 4), ("n", 4)], virasoro_, window, 1),
        "lorentz_closure": (lorentz_closure_suite, [("m", 1), ("n", 1)], lorentz, window, 2, 3),
        "current_covariance": (partial(current_covariance_suite, alpha=HALF), covariance, current_cov, charged, 1),
        "primary_covariance": (partial(primary_covariance_suite, alpha=HALF), covariance, primary_cov, charged, 1),
    }
    out = {
        name: (partial(run, sp), partial(_reference_bracket, name, sp, *rest))
        for name, (run, *rest) in cases.items()
    }
    out["mode_adjoint"] = (partial(mode_adjoint_suite, sp, HALF), partial(_reference_adjoint, sp))
    return out


def _reference_adjoint(sp, delta_range=4, max_level=4):
    """mode_adjoint's suite dict, one basis pair at a time: each cell checks
    <Y_delta v, w> = <v, Y'_{-delta} w>, with Y' of the opposite charge, by
    state application and inner product."""
    checked = cells = vacuous = 0
    failure = None
    top = min(max_level, sp.trunc.level_cutoff)
    sectors = [j for j in range(sp.trunc.j_min, sp.trunc.j_max + 1) if sp.trunc.admits_sector(j + 1)]
    for delta in range(-delta_range, delta_range + 1):
        cells += 1
        seen = 0
        for j, level in product(sectors, range(max(0, -delta), top + 1)):
            if not sp.trunc.admits_level(level + delta):
                continue
            for lam, mu in product(partitions_of(level), partitions_of(level + delta)):
                v, w = SectorState.basis(j, lam), SectorState.basis(j + 1, mu)
                seen += 1
                forward = inner_product(EXACT, vertex.apply_Y_mode(sp, HALF, delta, v), w)
                if forward != inner_product(EXACT, v, vertex.apply_Y_mode(sp, -HALF, -delta, w)):
                    failure = {"delta": delta, "sector": j, "basis": list(lam), "target": list(mu)}
                    break
            if failure:
                break
        checked += seen
        if failure:
            break
        vacuous += seen == 0
    warning = f"mode_adjoint: vacuous interior for {vacuous} of {cells} cells at this cutoff"
    return {
        "suite": "mode_adjoint",
        "states_checked": checked,
        "cells": cells,
        "vacuous_cells": vacuous,
        "warnings": [warning] if vacuous else [],
        "first_failure": failure,
        "status": "fail" if failure else "pass",
    }


# case -> (suite, mode, factory arguments where doubled, doubled output
# component[, sector shift]); the "last sector" cases fault the window's last
# sector, the last slice of each stack
COLUMN_FAULTS = {
    "current_bracket": ("current_bracket", "J", lambda m, key: m == -1, (1, (1, 1, 1))),
    "current_bracket_last_sector": ("current_bracket", "J", lambda m, key: m == -1, (2, (1, 1, 1))),
    "virasoro_bracket": ("virasoro_bracket", "L", lambda n, key, fault: n == 1, (0, (1,))),
    # L_-1 is G_1's right factor and G_-1's left one
    "lorentz_closure": ("lorentz_closure", "L", lambda n, key, fault: n == -1, (0, (2,))),
    "current_covariance": ("current_covariance", "Y", lambda key, delta: delta == 1, (1, (3,)), 1),
    "primary_covariance": ("primary_covariance", "L", lambda n, key, fault: n == -1, (0, (2, 1))),
    # Y_{alpha, 1} on sector 1, the last source sector at alpha = alpha0 = p / q, p > 0
    "mode_adjoint": ("mode_adjoint", "Y", lambda key, delta: delta == 1 and key[0] > 0, (2, (2, 1)), 1),
}


@pytest.mark.parametrize("name", list(COLUMN_FAULTS))
def test_block_sweep_isolates_columns(monkeypatch, name):
    # a matrix identity over a whole level, batched over the sectors, must
    # fail exactly the basis vectors a one-at-a-time sweep over states fails:
    # the same first failure, after the same states
    suite, mode, hit, target, *shift = COLUMN_FAULTS[name]
    _doubled_rows(monkeypatch, mode, hit, target, *shift)
    sp = space(4)
    run, reference = _reference_cases(sp)[suite]
    want = reference()
    assert want["status"] == "fail"
    assert want["first_failure"]["basis"] not in ([], [[], []])  # not a level's first column
    if name.endswith("last_sector") or suite == "mode_adjoint":
        assert want["first_failure"]["sector"] == sp.trunc.j_max - int(suite == "mode_adjoint")
    assert run() == want


def _suite_masks(monkeypatch, run):
    """(m, delta, level) -> the failing (sector, column) mask the suite
    computes there, for every cell: the sweep is replaced by one that keeps
    every block and stops at no failure."""
    masks = {}

    def every_block(name, cell, **labels):
        for values in product(*labels.values()):
            sectors, blocks = cell(*values)
            for where, bad in blocks:
                masks[values + where.args] = np.broadcast_to(bad, (len(sectors), bad.shape[-1]))

    with monkeypatch.context() as mp:
        mp.setattr(harness, "_sweep", every_block)
        run()
    return masks


def _per_sector_masks(sp, alpha, op_matrices, coefficient):
    """The masks of :func:`_suite_masks` from the per-sector form: on each
    source sector j its own slices, and the scalar coefficient(m, s) with s
    the mode index of Y_delta out of j."""
    mult = charge_multiplier(sp, alpha)
    sectors = [j for j in range(sp.trunc.j_min, sp.trunc.j_max + 1) if sp.trunc.admits_sector(j + mult)]
    at = lambda stack, s: stack.sectors(s, s + 1)  # noqa: E731
    masks = {}
    for m, delta in product(range(-3, 4), repeat=2):
        op, Y, Y_rhs = op_matrices(sp, m), y_matrices(sp, alpha, delta), y_matrices(sp, alpha, delta - m)
        for level in range(sp.trunc.level_cutoff - max(0, delta, -m, delta - m) + 1):
            rows = []
            for j in sectors:
                s = j - sp.trunc.j_min
                c = coefficient(m, mode_index(sp, alpha, j, delta))
                terms = [
                    (1, ((at(op(level + delta), s + mult), at(Y(level), s)),)),
                    (-1, ((at(Y(level - m), s), at(op(level), s)),)),
                    (-c, ((at(Y_rhs(level), s),),)),
                ]
                rows.append(residual(EXACT, terms)[0].any(axis=-2)[0])
            if sectors:
                masks[m, delta, level] = np.array(rows)
    return masks


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("alpha0", [HALF, Fraction(2, 7), Fraction(-1, 3)], ids=str)
@pytest.mark.parametrize("mult", [1, 2])
def test_covariance_suites_fail_the_per_sector_columns(monkeypatch, mult, alpha0, fault):
    # the suites state a sector's charge as the chain Y J_0; the per-sector
    # form scales each sector's slice by its own coefficient (d-1)m - s
    sp = Space(EXACT, alpha0, Truncation(6, -2, 2))
    alpha, d = mult * alpha0, conformal_weight(mult * alpha0)
    if fault:  # the coefficient of (2,) in Y_1 on the partition (1,) of sector 0 only
        hit = lambda key, delta: key == charge_key(alpha) and delta == 1  # noqa: E731
        _doubled_rows(monkeypatch, "Y", hit, (mult, (2,)), mult)
    cases = [
        (current_covariance_suite, heisenberg.j_matrices, lambda m, s: alpha),
        (primary_covariance_suite, virasoro.l_matrices, lambda m, s: (d - 1) * m - s),
    ]
    for suite, op_matrices, coefficient in cases:
        got = _suite_masks(monkeypatch, partial(suite, sp, alpha))
        want = _per_sector_masks(sp, alpha, op_matrices, coefficient)
        assert got.keys() == want.keys()
        assert all((got[key] == want[key]).all() for key in want), suite.__name__
        assert any(mask.any() for mask in want.values()) == fault, suite.__name__


def test_suites_take_no_ranges():
    # every range and level cap is fixed in the suite itself
    suites = [current_bracket_suite, virasoro_bracket_suite, lorentz_closure_suite]
    charged = [current_covariance_suite, primary_covariance_suite, mode_oracle_suite, mode_adjoint_suite]
    for suite in suites:
        assert list(inspect.signature(suite).parameters) == ["space"], suite.__name__
    for suite in charged:
        assert list(inspect.signature(suite).parameters) == ["space", "alpha"], suite.__name__
