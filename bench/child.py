"""One benchmark sample in a fresh process, so every ``lru_cache`` starts cold.

    python3 bench/child.py WORKLOAD KIND SEED TRACE SPAWN_TIME

KIND is ``sample`` (one verification of the workload) or ``canary``
(``verify-algebra`` with an injected fault).
SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; the system-wide monotonic clock makes it comparable here.

The last line on stdout is a JSON object with the set-up and verdict times,
the facts the parent checks and, with TRACE 1, the per-layer metrics.  The
exit code is the verification's own (0 pass, 2 identity failure, 3 budget).
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 -- standard library only, so outside the set-up time


def main() -> int:
    workload, kind, seed, trace, t_spawn = sys.argv[1:6]
    seed, trace, t_spawn = int(seed), trace == "1", float(t_spawn)

    t_import = time.monotonic()
    import chargedfock.cli  # noqa: F401 -- imports every module of the package
    from chargedfock.config import build_space, resolve_config

    t_config = time.monotonic()
    target = "canary" if kind == "canary" else workload
    cfg = resolve_config(None, dict(workloads.CONFIG[target], seed=str(seed)))
    built = build_space(cfg)
    t_ready = time.monotonic()
    result = {
        "setup_s": t_ready - t_spawn,
        "import_s": t_config - t_import,
        "build_space_s": t_ready - t_config,
    }
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code, facts = workloads.run(target, seed, built, cfg)
    result["verdict_s"] = time.perf_counter() - t0
    result["facts"] = facts
    if tracer is not None:
        tracer.remove()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.span_table()
    sys.stdout.write(json.dumps(result) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
