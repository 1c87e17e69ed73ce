"""Reports at small configs, byte for byte against the files in tests/golden.

Each file was written by the program before a change it guards: the algebra,
decay and Lorentz reports before the integer-numerator row kernel replaced the
per-operator Fraction loops; the commutativity, Virasoro c = 0 and d = 1/2
reports before the sweep engine and the removal of ``BandReport.clipped``;
the ``converge`` and ``diverge-demo`` series (CSV) before the level-matrix
kernel; the float Lorentz and Virasoro c = 0 reports and the Gaussian Lorentz
report, which pin float, complex and Gaussian state coefficients, before
states went from integer numerators over a shared denominator to plain
values.  Every report must keep every byte; a change that moves one on
purpose updates the file and says why.  The commands run in one process, so
the float-mode reports also show that no memo hands float coefficients to the
exact runs, or the reverse.
"""

from pathlib import Path

import pytest

from chargedfock.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "algebra_exact_rational": (0, ["verify-algebra", "--level_cutoff", "4"]),
    "algebra_float": (
        0,
        ["verify-algebra", "--level_cutoff", "4", "--arithmetic", "float", "--tolerance", "1e-9"],
    ),
    "algebra_exact_gaussian": (
        0,
        ["verify-algebra", "--level_cutoff", "4", "--arithmetic", "exact-gaussian"],
    ),
    # the fault canary: a doubled Sugawara coefficient must be pinpointed
    "algebra_fault_sugawara": (
        2,
        ["verify-algebra", "--level_cutoff", "5", "--inject-fault", "sugawara"],
    ),
    # exact table through apply_Y_mode and norm_sq
    "decay": (0, ["verify-decay"]),
    # chiral parts through apply_l_part and inner_product
    "lorentz": (0, ["verify-lorentz", "--level_cutoff", "8", "--lambda", "1/4"]),
    # factorized time-zero pairing and band reports
    "commutativity": (0, ["verify-commutativity", "--level_cutoff", "8"]),
    # budgets of an empty tail against an unfittable one, written "unbounded"
    "commutativity_unbounded": (0, ["verify-commutativity", "--level_cutoff", "1"]),
    "lorentz_float": (
        0,
        ["verify-lorentz", "--level_cutoff", "8", "--arithmetic", "float", "--tolerance", "1e-9"],
    ),
    "lorentz_gaussian": (
        0,
        ["verify-lorentz", "--level_cutoff", "8", "--arithmetic", "exact-gaussian", "--lambda", "1"],
    ),
    "virasoro_c0_float": (
        0,
        ["verify-virasoro-c0", "--level_cutoff", "8", "--arithmetic", "float", "--tolerance", "1e-9"],
    ),
    "virasoro_c0_gaussian": (
        0,
        ["verify-virasoro-c0", "--level_cutoff", "8", "--arithmetic", "exact-gaussian"],
    ),
    "explore_d_half": (0, ["explore-d-half", "--level_cutoff", "8"]),
    # exact partial sums of two modes, and the float divergence series
    "converge": (0, ["converge", "--m-list", "0,1"]),
    "diverge_demo": (0, ["diverge-demo"]),
}

# golden files that are not JSON reports
SUFFIX = {"converge": ".csv", "diverge_demo": ".csv"}


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(capsys, name):
    code, argv = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / (name + SUFFIX.get(name, ".json"))).read_text(encoding="utf-8")
