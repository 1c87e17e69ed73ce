#!/usr/bin/env python3
"""Alternating pairs of ``bench/run.py`` runs on two checkouts, as JSON.

    python scripts/bench_pairs.py PARENT CHANGE --workload algebra --pairs 10 --seed 0 > pairs.json

Pair i copies each tree in turn to one checkout path of its own under
``--workdir`` (a new temporary directory by default) and runs
``python3 bench/run.py --workload W --seed S --seconds T`` there: the parent
first in even pairs, the change first in odd ones, so that the host's drift
and the path weigh on both sides alike.  The paths differ in length from
pair to pair, since a sample's peak RSS moves with its checkout path.  A copy
leaves out ``.git`` and caches, and is removed after its run; neither tree is
edited.

Prints one JSON object: every run's end-to-end metrics, and per metric the
median and quartiles of each side, and in how many pairs the change's value
is lower than the parent's.  ``gap_exceeds_parent_iqr`` says whether the
medians lie further apart than the parent's quartiles do.  ``claim_met``
says whether a claim that the metric fell holds by the benchmark's rule: the
change is lower in at least nine tenths of the pairs, a tie counting for
neither side, and its median lies below the parent's by more than the
parent's quartile spread.  Progress goes to stderr.  Exit code 1 when a run
fails or prints no result.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")


def schedule(pairs: int) -> list:
    """(pair, checkout path name, sides in run order) for each pair."""
    return [(i, "abcdefghij"[i % 10] * (i % 4 + 1) + "_", SIDES if i % 2 == 0 else SIDES[::-1]) for i in range(pairs)]


def quartiles(values) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 5), round(q3, 5)]


def summary(runs) -> dict:
    """metric -> both sides' medians and quartiles, the pairs where the
    change's value is lower, and whether a claim that it fell is met, over
    the runs that reported the metric."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out = {}
    for name in sorted({name for run in runs for name in run["metrics"]}):
        both = [(sides["parent"][name], sides["change"][name]) for sides in by_pair.values()
                if all(name in sides.get(side, {}) for side in SIDES)]
        if len(both) < 2:
            continue
        parent, change = [x for x, _ in both], [y for _, y in both]
        (q1, q3), p_med, c_med = quartiles(parent), statistics.median(parent), statistics.median(change)
        lower = sum(y < x for x, y in both)
        out[name] = {
            "parent_median": round(p_med, 5),
            "parent_quartiles": [q1, q3],
            "change_median": round(c_med, 5),
            "change_quartiles": quartiles(change),
            "change_lower_in": f"{lower} of {len(both)}",
            "gap_exceeds_parent_iqr": abs(p_med - c_med) > q3 - q1,
            "claim_met": 10 * lower >= 9 * len(both) and p_med - c_med > q3 - q1,
        }
    return out


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout`` -> its result line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent's checkout")
    ap.add_argument("change", type=Path, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="bench/run.py --seconds")
    ap.add_argument("--workdir", type=Path, help="where the checkout paths go (default: a new temporary directory)")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    runs = []
    for pair, name, order in schedule(args.pairs):
        path = workdir / name
        for side in order:
            shutil.rmtree(path, ignore_errors=True)
            shutil.copytree(trees[side], path, ignore=IGNORED)
            try:
                result = bench(path, args.workload, args.seed, args.seconds)
            finally:
                shutil.rmtree(path, ignore_errors=True)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"pair": pair, "side": side, "path": name, "first": order[0], "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics})
            print(f"bench_pairs: pair {pair} {side} at {name}: {json.dumps(metrics)}", file=sys.stderr)
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    command = f"bench/run.py --workload {args.workload} --seed {args.seed} --seconds {args.seconds:g}"
    print(json.dumps({"command": command, "pairs": args.pairs, "runs": runs, "summary": summary(runs)}, indent=1))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
