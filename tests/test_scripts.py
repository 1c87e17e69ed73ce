"""The scripts under scripts/ run end to end on small inputs.

They call the library the way a user does, so a changed signature in the
package shows up here and not first in a user's run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("lorentz_sweep.py", ["--cutoffs", "6"]),
        ("convergence_study.py", ["--n-max", "16"]),
        ("export_mode_block.py", []),
    ],
)
def test_script_exits_zero(script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_report_digests_prints_one_line_per_run():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPTS / "report_digests.py")
    report_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_digests)
    checkout = SCRIPTS.parent
    assert "diverge-demo" in report_digests.subcommands(checkout / "src")
    name, mode, cutoff, code, digest = report_digests.digest_line(checkout, "diverge-demo", "float", "4").split()
    assert (name, mode, cutoff, code) == ("diverge-demo", "float", "4", "0")
    assert len(digest) == 64
    # the fixed runs name their flags: the fault run fails its identity
    # (exit 2), and the series of two modes passes
    for (name, *flags), code in zip(report_digests.FIXED_RUNS, ("2", "0"), strict=True):
        line = report_digests.digest_line(checkout, name, "float", "4", flags)
        assert line.split()[:-1] == [name, *flags, "float", "4", code]
