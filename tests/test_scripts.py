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


def _report_digests():
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPTS / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_prints_one_line_per_run():
    report_digests = _report_digests()
    checkout = SCRIPTS.parent
    assert "diverge-demo" in report_digests.subcommands(checkout / "src")
    name, mode, cutoff, code, out, err = report_digests.digest_line(checkout, "diverge-demo", "float", "4").split()
    assert (name, mode, cutoff, code) == ("diverge-demo", "float", "4", "0")
    assert len(out) == len(err) == 64 and out != err
    # the fixed runs name their flags: the fault run fails its identity
    # (exit 2), and the series of two modes passes
    for (name, *flags), code in zip(report_digests.FIXED_RUNS, ("2", "0"), strict=True):
        line = report_digests.digest_line(checkout, name, "float", "4", flags)
        assert line.split()[:-2] == [name, *flags, "float", "4", code]


def test_report_digests_mask_what_varies_between_runs_on_stderr():
    report_digests = _report_digests()
    first = (b"INFO vertex family (current_covariance): pid 9817 (forked, peak RSS 26.2 MB), 0.095 s\n"
             b"INFO verify-algebra finished in 0.10 s\n")
    second = (b"INFO vertex family (current_covariance): pid 123 (forked, peak RSS 31 MB), 1.250 s\n"
              b"INFO verify-algebra finished in 12.34 s\n")
    assert report_digests.masked_stderr(first) == report_digests.masked_stderr(second) == (
        b"INFO vertex family (current_covariance): pid # (forked, peak RSS # MB), # s\n"
        b"INFO verify-algebra finished in # s\n"
    )
    # counts stay: a changed warning or INFO count changes the digest
    line = b"INFO commutativity: 25 vacuum and 30 excited rows, 63 of 220 time-zero images built, 0.018 s\n"
    assert report_digests.masked_stderr(line) == line.replace(b"0.018 s", b"# s")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_alternate_the_first_side_on_one_path_per_pair():
    bench_pairs = _bench_pairs()
    plan = bench_pairs.schedule(4)
    assert [order for _, _, order in plan] == [("parent", "change"), ("change", "parent")] * 2
    assert len({path for _, path, _ in plan}) == 4


def _pairs(parent, change):
    return [{"pair": i, "side": side, "metrics": {"verdict_s": x}}
            for i, pair in enumerate(zip(parent, change)) for side, x in zip(("parent", "change"), pair)]


def test_bench_pairs_summarize_each_metric_over_the_pairs():
    bench_pairs = _bench_pairs()
    runs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 3.5, 2.0, 2.5])
    runs.append({"pair": 5, "side": "parent", "metrics": {"verdict_s": 9.0}})  # a pair without its change
    assert bench_pairs.summary(runs) == {"verdict_s": {
        "parent_median": 3.0,
        "parent_quartiles": [2.0, 4.0],
        "change_median": 2.0,
        "change_quartiles": [1.5, 2.5],
        "change_lower_in": "4 of 5",
        "gap_exceeds_parent_iqr": False,
        "claim_met": False,
    }}


# the parent's median is 1.25 and its quartiles 1.025 and 1.475, 0.45 apart
PARENT = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7]


@pytest.mark.parametrize("change,met", [
    ([0.5] * 9 + [2.0], True),  # lower in 9 of 10, the medians 0.75 apart
    ([0.5] * 8 + [2.0, 2.0], False),  # lower in 8 of 10
    ([0.5] * 8 + [1.6, 2.0], False),  # a tie counts for neither side
    ([x - 0.3 for x in PARENT], False),  # lower in 10 of 10, but the medians only 0.3 apart
])
def test_bench_pairs_claim_a_fall_by_the_benchmarks_rule(change, met):
    assert _bench_pairs().summary(_pairs(PARENT, change))["verdict_s"]["claim_met"] is met
