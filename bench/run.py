"""chargedfock benchmark: time to verdict on three verification workloads.

    python3 bench/run.py --workload {algebra,commutativity,lorentz-sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every sample is a fresh process (``bench/child.py``), one at a
time, because a user pays cold caches on every command-line invocation.

A run starts, on ``algebra``, with the fault canary (``verify-algebra
--inject-fault sugawara`` at cutoff 5, which must exit 2).  With ``--trace 0``
it then runs verification samples back to back while at least half of the
next one is expected to fit in S seconds (always at least one), so a run
lasts S seconds give or take half a sample.

The host this runs on is shared, and its speed swings by up to half again
over tens of seconds.  So a fixed reference computation
(``bench/reference.py``) runs before the first sample and after every
sample, and each sample's times are scaled by ``REFERENCE_S`` over the mean
of the two reference times around it: the reported seconds are what the
sample would take on a host that runs the reference in ``REFERENCE_S``.
The end-to-end metrics are medians over the run's samples:

* ``setup_s``     -- process start until the verification call can be made
  (interpreter, package import, config and space), scaled;
* ``verdict_s``   -- the verification call until its report or verdict,
  scaled;
* ``peak_rss_mb`` -- peak resident memory of a sample's process (``wait4``);
* ``pass_share``  -- processes whose exit code and output check passed,
  over processes started.

The unscaled medians and the reference's median go to stderr.

With ``--trace 1`` it runs one untraced and one traced sample and prints the
per-layer metrics of the traced one (see ``bench/tracer.py``), with
``trace.overhead_s`` the difference of their scaled verdict times; the
aggregated span table goes to stderr.

Each process's output is checked against fixed facts (``bench/workloads.py``).
The last stdout line is the JSON result.  Exit code 0 when a result was
printed, 2 when the checkout has no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import REFERENCE_S, reference_s  # noqa: E402

# a child still running this long after the run started is killed, so that
# the run ends within three minutes whatever the program does
RUN_DEADLINE_S = 170.0


class Sample:
    """One finished child process: its own report, exit code and rusage."""

    def __init__(self, kind: str, report, code: int, rusage):
        self.kind = kind
        self.report = report
        self.code = code
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.wall_s = 0.0
        self.ok = False
        # REFERENCE_S over the reference time around this sample
        self.scale = 1.0

    def scaled(self, key: str) -> float:
        return self.report[key] * self.scale


def spawn(workload: str, kind: str, seed: int, trace: bool, deadline: float) -> Sample:
    """Start one child, read its report and reap it with ``wait4``, which
    gives this child's own peak RSS (RUSAGE_CHILDREN would give the maximum
    over every child reaped so far)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, kind, str(seed), "1" if trace else "0", repr(t0)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _pid, status, rusage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    sample = Sample(kind, report, proc.returncode, rusage)
    sample.wall_s = time.monotonic() - t0
    sample.ok = check(workload, sample)
    return sample


def check(workload: str, sample: Sample) -> bool:
    """Exit code and fixed output facts against what a correct program gives."""
    if sample.report is None:
        print(f"bench: {sample.kind} process exited {sample.code} without a report", file=sys.stderr)
        return False
    expected_code, expected_facts = workloads.EXPECTED[
        "canary" if sample.kind == "canary" else workload
    ]
    facts = sample.report.get("facts")
    if sample.code != expected_code or facts != expected_facts:
        print(
            f"bench: {workload} {sample.kind} check failed: exit {sample.code}"
            f" (want {expected_code}), facts {json.dumps(facts)}"
            f" (want {json.dumps(expected_facts)})",
            file=sys.stderr,
        )
        return False
    return True


def run(workload: str, seed: int, seconds: float, trace: bool):
    """All processes of one benchmark run -> (canary, samples)."""
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    canary = [spawn(workload, "canary", seed, False, deadline)] if workload == "algebra" else []
    samples = []
    steps = []
    ref_before = reference_s()
    while True:
        t_step = time.monotonic()
        sample = spawn(workload, "sample", seed, trace and len(samples) == 1, deadline)
        ref_after = reference_s()
        sample.scale = REFERENCE_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        samples.append(sample)
        steps.append(time.monotonic() - t_step)
        if trace:
            if len(samples) == 2:
                return canary, samples
        elif time.monotonic() - t_start + statistics.median(steps) / 2 > seconds:
            return canary, samples


def end_to_end(canary, samples) -> dict:
    every = canary + samples
    reported = [s for s in samples if s.report is not None]
    timed = [s for s in reported if "verdict_s" in s.report]
    metrics = {
        "setup_s": ("s", statistics.median([s.scaled("setup_s") for s in reported]) if reported else None),
        "verdict_s": ("s", statistics.median([s.scaled("verdict_s") for s in timed]) if timed else None),
        "peak_rss_mb": ("MB", statistics.median([s.peak_rss_mb for s in samples])),
        "pass_share": ("share", sum(s.ok for s in every) / len(every)),
    }
    if timed:
        print(
            f"bench: {len(timed)} samples; unscaled medians setup_s"
            f" {statistics.median([s.report['setup_s'] for s in timed]):.4f}, verdict_s"
            f" {statistics.median([s.report['verdict_s'] for s in timed]):.4f}; reference"
            f" {statistics.median([REFERENCE_S / s.scale for s in timed]):.4f} s",
            file=sys.stderr,
        )
    return {k: {"value": v, "unit": u} for k, (u, v) in metrics.items() if v is not None}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bits" if name.endswith("_bits") else "count"


def per_layer(samples) -> dict:
    untraced, traced = samples
    if untraced.report is None or traced.report is None or "layers" not in traced.report:
        return {}
    metrics = {
        "cli.import_s": statistics.median([s.report["import_s"] for s in samples]),
        "config.build_space_s": statistics.median([s.report["build_space_s"] for s in samples]),
    }
    metrics.update(traced.report["layers"])
    facts = traced.report.get("facts") or {}
    metrics["harness.states_checked"] = sum((facts.get("states_checked") or {}).values())
    metrics["proc.cpu_s"] = traced.cpu_s
    metrics["trace.overhead_s"] = traced.scaled("verdict_s") - untraced.scaled("verdict_s")
    print(json.dumps({"spans": traced.report["spans"]}), file=sys.stderr)
    out = {}
    for name, value in sorted(metrics.items()):
        out[name] = {"value": value, "unit": _layer_unit(name)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chargedfock time-to-verdict benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chargedfock" / "__init__.py").is_file():
        print(f"bench: no chargedfock package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    canary, samples = run(args.workload, args.seed, args.seconds, bool(args.trace))
    every = canary + samples
    failed = sum(not s.ok for s in every)
    metrics = per_layer(samples) if args.trace else end_to_end(canary, samples)
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
