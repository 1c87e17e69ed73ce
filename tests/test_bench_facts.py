"""The benchmark's workloads must keep passing their own output checks.

``bench/workloads.py`` fixes what every sample of a workload must return:
exit code, verdicts, states checked, record counts.  Running each workload
here makes a changed fact, such as a suite's ``states_checked``, fail the
test suite before it fails a benchmark sample.
"""

import importlib.util
from pathlib import Path

import pytest

from chargedfock.config import build_space, resolve_config

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["algebra", "canary", "commutativity", "lorentz-sweep"])
def test_workload_returns_its_expected_facts(kind):
    workloads = _workloads_module()
    cfg = resolve_config(None, dict(workloads.CONFIG[kind], seed="0"))
    assert workloads.run(kind, 0, build_space(cfg), cfg) == workloads.EXPECTED[kind]
