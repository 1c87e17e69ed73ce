"""The scripts under scripts/ run end to end on small inputs.

They call the library the way a user does, so a changed signature in the
package shows up here and not first in a user's run.
"""

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
