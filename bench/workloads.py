"""The benchmark's workloads: how one sample runs, and what its output must show.

Each workload is one verification a user runs:

* ``algebra``       -- ``verify-algebra``: chiral kernels (currents,
  Virasoro modes, vertex modes, state arithmetic) and the seven identity
  sweeps; no time-zero modes;
* ``commutativity`` -- the ``verify-commutativity`` report
  (``harness.commutativity_report``): time-zero applications and exact norms,
  none of them reused;
* ``lorentz-sweep`` -- ``desitter.verify_lorentz`` at coupling 0, 1/4 and 1
  (buffer 6, 2 samples) in one process, the way ``scripts/lorentz_sweep.py``
  calls the library: time-zero applications reused through ``PsiCache`` and
  warm ``lru_cache``s, and a coupling-0 member that skips the bilinear.

The seed reaches the program only as the config ``seed``.  The checks compare
values that stay fixed while the code changes -- exit codes, verdicts, states
checked, record counts, exactness flags -- and never tail-budget floats.

This module imports nothing from the package at import time, so the parent
benchmark process stays light; :func:`run` is called in a child process.
"""

from __future__ import annotations

import contextlib
import io
import json
from typing import Dict

WORKLOADS = ("algebra", "commutativity", "lorentz-sweep")

VERDICT_CODE = {"pass": 0, "identity_failure": 2, "budget_exceeded": 3}

# config of each sample besides the seed.  The cutoffs sit well below the
# defaults so that a sample takes about two seconds: the benchmark times each
# sample against a reference loop run just before and after it (see run.py),
# and that only tracks the host's speed swings over a short sample.
CONFIG = {
    "algebra": {"level_cutoff": "6"},
    "commutativity": {"level_cutoff": "7"},
    "lorentz-sweep": {"level_cutoff": "8"},
    "canary": {"level_cutoff": "5"},
}

SUBCOMMAND = {
    "algebra": ["verify-algebra"],
    "canary": ["verify-algebra", "--inject-fault", "sugawara"],
}

# the excited pairs of commutativity are checked at this cutoff and the
# sample's own, so that the residual's shrinking is still checked
COMMUTATIVITY_LOW_CUTOFF = 6

LORENTZ_LAMBDAS = ("0", "1/4", "1")
LORENTZ_BUFFER = 6
LORENTZ_SAMPLES = 2

# states checked per suite of verify-algebra at the algebra cutoff
ALGEBRA_STATES = {
    "current_bracket": 10755,
    "virasoro_bracket": 6095,
    "lorentz_closure": 2205,
    "current_covariance": 3308,
    "primary_covariance": 3308,
    "mode_oracle_equivalence": 420,
    "mode_adjoint": 1324,
}


def run(kind: str, seed: int, built, cfg) -> tuple:
    """Run one sample -> (exit code, facts); ``kind`` is a workload or
    ``canary``, ``built`` the (space, alpha, lambda) of its config ``cfg``."""
    if kind == "lorentz-sweep":
        return lorentz_sweep(built, cfg)
    if kind == "commutativity":
        return commutativity(built, cfg)
    from chargedfock import cli

    argv = list(SUBCOMMAND[kind])
    for key, value in dict(CONFIG[kind], seed=str(seed)).items():
        argv += [f"--{key}", value]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, FACTS[kind](json.loads(buf.getvalue()))


def commutativity(built, cfg) -> tuple:
    """The body of ``verify-commutativity``, at a low cutoff of its own."""
    from chargedfock.harness import commutativity_report

    space, alpha, _lam = built
    body = commutativity_report(space, alpha, seed=cfg.seed, low_cutoff=COMMUTATIVITY_LOW_CUTOFF)
    return VERDICT_CODE[body["verdict"]], commutativity_facts(body)


def lorentz_sweep(built, cfg) -> tuple:
    """``desitter.verify_lorentz`` at each coupling, in one process."""
    from chargedfock.desitter import verify_lorentz

    space, alpha, _lam = built
    facts = {}
    code = 0
    for text in LORENTZ_LAMBDAS:
        lam = space.ctx.parse(text)
        body = verify_lorentz(
            space, alpha, lam, interior_buffer=LORENTZ_BUFFER, seed=cfg.seed, samples=LORENTZ_SAMPLES
        )
        summary = body["summary"]
        code = max(code, VERDICT_CODE[summary["verdict"]])
        records = body["records"]
        facts[text] = {
            "verdict": summary["verdict"],
            "records": len(records),
            "ll_exact": sum(r["ll_exact"] for r in records),
            "mixed_exact": sum(r["mixed_exact"] for r in records),
        }
        if text == "0":
            facts[text]["max_abs_residual"] = summary["max_abs_residual"]
    return code, facts


def algebra_facts(report: dict) -> dict:
    return {
        "verdict": report["verdict"],
        "failed_suite": report["failed_suite"],
        "states_checked": {s["suite"]: s["states_checked"] for s in report["suites"]},
    }


def commutativity_facts(report: dict) -> dict:
    vacuum, excited = report["vacuum"], report["excited"]
    return {
        "verdict": report["verdict"],
        "vacuum_rows": len(vacuum["rows"]),
        "excited_rows": len(excited["rows"]),
        "all_exact_zero": vacuum["all_exact_zero"],
        "strictly_shrank": excited["strictly_shrank"],
        "cutoffs": excited["cutoffs"],
    }


def canary_facts(report: dict) -> dict:
    return {"verdict": report["verdict"], "failed_suite": report["failed_suite"]}


FACTS = {"algebra": algebra_facts, "canary": canary_facts}

# what every correct sample must return: (exit code, facts)
_LORENTZ_MEMBER = {"verdict": "pass", "records": 54, "ll_exact": 54, "mixed_exact": 54}
EXPECTED: Dict[str, tuple] = {
    "algebra": (0, {"verdict": "pass", "failed_suite": None, "states_checked": ALGEBRA_STATES}),
    "canary": (2, {"verdict": "identity_failure", "failed_suite": "virasoro_bracket"}),
    "commutativity": (
        0,
        {
            "verdict": "pass",
            "vacuum_rows": 25,
            "excited_rows": 30,
            "all_exact_zero": True,
            "strictly_shrank": True,
            "cutoffs": [6, 7],
        },
    ),
    "lorentz-sweep": (
        0,
        {
            "0": dict(_LORENTZ_MEMBER, max_abs_residual=0.0),
            "1/4": _LORENTZ_MEMBER,
            "1": _LORENTZ_MEMBER,
        },
    ),
}
