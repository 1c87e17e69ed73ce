#!/usr/bin/env python3
"""One line per CLI run: subcommand and its fixed flags, arithmetic mode,
cutoff, exit code, a sha256 of stdout and a sha256 of stderr with its
seconds, pids and peak RSS masked.

Runs every subcommand of ``chargedfock.cli``, ``verify-algebra
--inject-fault sugawara`` for a failing verdict and ``converge --m-list 0,1``
for a series per mode, in each arithmetic mode (float at ``--tolerance
1e-9``) and at each cutoff, one fresh ``python -m chargedfock.cli`` process
per run, on the source tree of a checkout.  Two checkouts behave the same on
these runs when their outputs are equal:

    python scripts/report_digests.py OLD_CHECKOUT > old.txt
    python scripts/report_digests.py NEW_CHECKOUT > new.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

MODES = {"exact-rational": [], "exact-gaussian": [], "float": ["--tolerance", "1e-9"]}
# runs with fixed flags after those of the bare subcommands
FIXED_RUNS = [("verify-algebra", "--inject-fault", "sugawara"), ("converge", "--m-list", "0,1")]
# what differs between two runs of the same code on stderr -> its mask
STDERR_MASKS = [
    (re.compile(rb"\d+\.\d+ s\b"), b"# s"),
    (re.compile(rb"\bpid \d+"), b"pid #"),
    (re.compile(rb"peak RSS \d+(\.\d+)? MB"), b"peak RSS # MB"),
]


def masked_stderr(err: bytes) -> bytes:
    for pattern, mask in STDERR_MASKS:
        err = pattern.sub(mask, err)
    return err


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def subcommands(src: Path) -> list:
    """The subcommand names of the checkout's CLI, in its order."""
    code = "from chargedfock.cli import _SUBCOMMANDS; print(' '.join(s[0] for s in _SUBCOMMANDS))"
    out = subprocess.run([sys.executable, "-c", code], env=_env(src), capture_output=True, text=True, check=True)
    return out.stdout.split()


def digest_line(checkout: Path, name: str, mode: str, cutoff: str, flags=()) -> str:
    """One fresh CLI run of subcommand `name` with `flags` on the checkout's
    src/, as ``subcommand [flags] mode cutoff exit sha256(stdout)
    sha256(masked stderr)``."""
    argv = [name, *flags, "--arithmetic", mode, *MODES[mode]]
    if cutoff != "default":
        argv += ["--level_cutoff", cutoff]
    proc = subprocess.run([sys.executable, "-m", "chargedfock.cli", *argv], cwd=checkout,
                          env=_env(checkout / "src"), capture_output=True)
    digests = [hashlib.sha256(out).hexdigest() for out in (proc.stdout, masked_stderr(proc.stderr))]
    return " ".join([name, *flags, mode, cutoff, str(proc.returncode), *digests])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parent.parent),
                    help="repository checkout whose src/ is run (default: this one)")
    ap.add_argument("--cutoffs", default="default,8", help="comma-separated level cutoffs; 'default' sets none")
    args = ap.parse_args()

    checkout = Path(args.checkout).resolve()
    for name, *flags in [(name,) for name in subcommands(checkout / "src")] + FIXED_RUNS:
        for mode in MODES:
            for cutoff in args.cutoffs.split(","):
                print(digest_line(checkout, name, mode, cutoff, flags), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
