"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion pins its own parameters and tolerances; nothing here depends
on the defaults of the functions under test, so a default drifting cannot
silently weaken the gate.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from chargedfock.desitter import (
    closure_table,
    mixed_gap_coefficients,
    verify_lorentz,
    verify_virasoro_c0,
)
from chargedfock.diagnostics import loglog_slope
from chargedfock.fock import SectorState, Space, Truncation, norm_sq
from chargedfock.harness import (
    commutativity_report,
    current_bracket_suite,
    current_covariance_suite,
    divergence_series,
    mode_oracle_suite,
    primary_covariance_suite,
    virasoro_bracket_suite,
)
from chargedfock.scalar import make_context
from chargedfock.twodim import partial_sum_norm_series, vacuum_norm_series
from chargedfock.vertex import apply_Y_mode, truncated_mode_norm

EXACT = make_context("exact-rational")
GAUSS = make_context("exact-gaussian")
HALF = Fraction(1, 2)

# pinned tolerances and runtime ceilings
DECAY_SLOPE_TOL = 0.05
SUM_SLOPE_TOL = 0.1
INCREMENT_RATIO = 1.1
VACUUM_TOL = 1e-10
BLOCK_SLACK = 1e-9
CURRENT_SECONDS = 10.0
VIRASORO_SECONDS = 60.0
LORENTZ_SECONDS = 600.0


def space(L, window=(-2, 2), ctx=EXACT):
    return Space(ctx, HALF, Truncation(L, *window))


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_current_relations():
    t0 = time.perf_counter()
    suite = current_bracket_suite(space(10))
    elapsed = time.perf_counter() - t0
    ok = suite["status"] == "pass" and elapsed < CURRENT_SECONDS
    _line(
        1,
        ok,
        f"current bracket exact on {suite['states_checked']} states, "
        f"|m|,|n|<=6, L=10, |j|<=2 in {elapsed:.2f} s",
    )


def test_criterion_02_virasoro_unit_central_charge():
    t0 = time.perf_counter()
    suite = virasoro_bracket_suite(space(10))
    elapsed = time.perf_counter() - t0
    ok = suite["status"] == "pass" and elapsed < VIRASORO_SECONDS
    _line(
        2,
        ok,
        f"Virasoro bracket with c=1 exact on {suite['states_checked']} states, "
        f"|m|,|n|<=4, L=10 in {elapsed:.2f} s",
    )


def test_criterion_03_vacuum_norm_formula_and_decay():
    sp = space(20)
    vac = SectorState.basis(0, ())
    two_d = HALF * HALF
    exact_ok = True
    for n in range(21):
        computed = norm_sq(EXACT, apply_Y_mode(sp, HALF, n, vac))
        binom = Fraction(1)
        for k in range(n):
            binom *= (two_d + k) / (k + 1)
        exact_ok = exact_ok and computed == binom
    series = vacuum_norm_series(float(two_d), 512)
    fitted = loglog_slope([(n, series[n]) for n in range(1, 513)], (64, 512))
    slope_ok = abs(fitted - (-0.75)) <= DECAY_SLOPE_TOL
    _line(
        3,
        exact_ok and slope_ok,
        f"vacuum norms match the binomial exactly for n<=20; "
        f"closed-form slope {fitted:.4f} within {DECAY_SLOPE_TOL} of -0.75 on [64,512]",
    )


def test_criterion_04_primary_and_current_covariance():
    current = current_covariance_suite(space(10), HALF)
    primary = primary_covariance_suite(space(10), HALF)
    ok = current["status"] == "pass" and primary["status"] == "pass"
    _line(
        4,
        ok,
        f"current/primary covariance exact on {current['states_checked']}"
        f"/{primary['states_checked']} states, |m|<=3, L=10",
    )


def test_criterion_05_truncated_mode_block_bound():
    sp = space(8)
    worst = 0.0
    for alpha in (HALF, Fraction(1)):
        for delta in range(-6, 7):
            worst = max(worst, truncated_mode_norm(sp, alpha, delta))
    ok = worst <= 1.0 + BLOCK_SLACK
    _line(
        5,
        ok,
        f"truncated block norms <= 1+{BLOCK_SLACK} for alpha in {{1/2, 1}}, "
        f"delta in [-6,6], L=8 (worst {worst:.12f})",
    )


def test_criterion_06_mode_oracle_equivalence():
    suite = mode_oracle_suite(space(8), HALF)
    ok = suite["status"] == "pass" and suite["states_checked"] > 0
    _line(
        6,
        ok,
        f"expansion and recursion mode routes agree exactly on "
        f"{suite['states_checked']} sector-0/1 states, levels <= 8",
    )


def test_criterion_07_convergence_threshold():
    rows = partial_sum_norm_series(HALF * HALF, 0, 513)
    sums = [float(total) for _, _, total in rows]
    points = [(N, sums[2 * N] - sums[N]) for N in (32, 64, 128, 256)]
    fitted = loglog_slope(points, (32, 256))
    sub_ok = abs(fitted - (-0.5)) <= SUM_SLOPE_TOL
    increments = [inc for n, _, inc in divergence_series(512) if n >= 64]
    ratio = max(increments) / min(increments)
    crit_ok = ratio <= INCREMENT_RATIO
    _line(
        7,
        sub_ok and crit_ok,
        f"S_2N - S_N decays with exponent {fitted:.3f} (within {SUM_SLOPE_TOL} of -0.5) "
        f"at alpha=1/2; stays constant within {(ratio - 1) * 100:.1f}% at the critical charge",
    )


def test_criterion_08_weak_commutativity():
    rep = commutativity_report(space(12), HALF, m_range=2, seed=0, samples=2, low_cutoff=8)
    vac = rep["vacuum"]
    exc = rep["excited"]
    vac_ok = vac["max_abs_residual"] <= VACUUM_TOL and vac["ok"]
    exact_flag_reported = isinstance(vac["all_exact_zero"], bool)
    exc_ok = exc["cutoffs"] == [8, 12] and exc["nonincreasing"] and exc["strictly_shrank"]
    ok = vac_ok and exact_flag_reported and exc_ok
    _line(
        8,
        ok,
        f"vacuum weak commutators <= {VACUUM_TOL} at L=12 "
        f"(exactly zero: {vac['all_exact_zero']}); excited residuals shrink from L=8 to L=12",
    )


def test_criterion_09_weak_boost_relations():
    sp = space(12)
    t0 = time.perf_counter()
    summaries = {}
    for lam in (Fraction(0), Fraction(1, 4), Fraction(1)):
        rep = verify_lorentz(sp, HALF, lam, interior_buffer=6, seed=0, samples=2)
        mixed_exact = all(r["mixed_exact"] and r["ll_exact"] for r in rep["records"])
        summaries[lam] = (rep["summary"], mixed_exact)
    elapsed = time.perf_counter() - t0
    all_pass = all(s["verdict"] == "pass" for s, _ in summaries.values())
    all_mixed = all(mixed for _, mixed in summaries.values())
    unperturbed_exact = summaries[Fraction(0)][0]["max_abs_residual"] == 0.0
    ok = all_pass and all_mixed and unperturbed_exact and elapsed < LORENTZ_SECONDS
    worst = max(s["max_abs_residual"] for s, _ in summaries.values())
    _line(
        9,
        ok,
        f"boost relations at lambda in {{0, 1/4, 1}}, L=12, buffer 6: cross terms cancel "
        f"exactly, residuals <= budget (worst {worst:.2e}), lambda=0 exact, {elapsed:.1f} s",
    )


def test_criterion_10_weak_centerless_virasoro():
    sp = space(12, ctx=GAUSS)
    perturbed = verify_virasoro_c0(sp, HALF, Fraction(1, 4), m_range=2, interior_buffer=6)
    free = verify_virasoro_c0(sp, HALF, Fraction(0), m_range=2, interior_buffer=6)
    central_rows = [r for r in free["records"] if (r["m"], r["n"]) == (2, -2)]
    central_absent = central_rows and all(
        r["central_offset_re"] == 0.0 and r["central_offset_im"] == 0.0 for r in central_rows
    )
    coeff_ok = all(row["equal"] for row in perturbed["coefficient_identity"])
    ok = (
        perturbed["summary"]["verdict"] == "pass"
        and free["summary"]["verdict"] == "pass"
        and bool(central_absent)
        and coeff_ok
    )
    _line(
        10,
        ok,
        f"centerless chiral-difference Virasoro passes for |m|,|n|<=2 (gaussian scalars); "
        f"central term absent at (2,-2) on {len(central_rows)} unperturbed probes",
    )


def test_criterion_11_closure_only_at_weight_half():
    rows = closure_table()
    identity_ok = all(row["identity_2d"] for row in rows)
    at_half = [row for row in rows if row["d"] == "1/2"]
    at_eighth = [row for row in rows if row["d"] == "1/8" and row["m"] != row["n"]]
    closes_ok = all(row["closes"] for row in at_half) and not any(
        row["closes"] for row in at_eighth
    )
    spot = mixed_gap_coefficients(Fraction(1, 8), 1, -1)
    spot_ok = spot["lhs"] == Fraction(1, 2) and spot["ladder"] == 2
    ok = identity_ok and closes_ok and spot_ok
    _line(
        11,
        ok,
        "cross-term coefficient equals 2d(m-n) symbolically for |m|,|n|<=3; "
        "ladder closure holds at d=1/2 and fails at d=1/8",
    )


def test_criterion_12_byte_identical_reports():
    # the child imports the package from src/, as pytest's own pythonpath does
    src = str(Path(__file__).resolve().parent.parent / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited] if inherited else [src])}

    def run_twice(args):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "chargedfock.cli", *args],
                capture_output=True,
                check=False,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        return outs

    rational = run_twice(["verify-lorentz", "--level_cutoff", "6", "--seed", "3"])
    gaussian = run_twice(
        [
            "verify-virasoro-c0",
            "--level_cutoff",
            "6",
            "--seed",
            "3",
            "--arithmetic",
            "exact-gaussian",
        ]
    )
    ok = rational[0] == rational[1] and gaussian[0] == gaussian[1] and len(rational[0]) > 0
    _line(
        12,
        ok,
        "two identical runs emit byte-identical JSON in both exact scalar modes",
    )
