"""Reports at small configs, byte for byte against the files in tests/golden.

Each file was written by the program before the integer-numerator row kernel
replaced the per-operator Fraction loops.  Exact modes must keep every byte;
a change that moves one on purpose updates the file and says why.  The
commands run in one process, so the float-mode report also shows that no
memo hands float coefficients to the exact runs, or the reverse.
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
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(capsys, name):
    code, argv = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
