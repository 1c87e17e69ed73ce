"""The benchmark's tracer (bench/tracer.py) must keep finding what it wraps.

It resolves functions, lru_caches and the PsiCache store by name; a rename in
the package would otherwise only show up as a failed ``--trace 1`` run.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import chargedfock.cli  # noqa: F401 -- binds every module, as the benchmark does
from chargedfock.desitter import PsiCache
from chargedfock.fock import Space, TensorState, Truncation
from chargedfock.scalar import make_context

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
HALF = Fraction(1, 2)


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_module(name):
    return sys.modules[f"chargedfock.{name}"]


def test_tracer_names_resolve():
    tracer = _tracer_module()
    for mod_name, attr in tracer.FUNCTIONS:
        assert callable(getattr(_package_module(mod_name), attr)), (mod_name, attr)
    for mod_name, attr in tracer.CACHES:
        assert callable(getattr(_package_module(mod_name), attr).cache_info), (mod_name, attr)
    fock = _package_module("fock")
    for cls_name in tracer.STATE_CLASSES:
        for op in tracer.STATE_OPS:
            assert callable(getattr(getattr(fock, cls_name), op))


def test_psi_cache_store_grows_exactly_on_a_miss():
    space = Space(make_context("exact-rational"), HALF, Truncation(4, -2, 2))
    cache = PsiCache()
    assert cache._store == {}
    cache.apply(space, HALF, 1, TensorState.basis(0, (1,), ()))
    assert len(cache._store) == 1
    cache.apply(space, HALF, 1, TensorState.basis(0, (1,), ()))  # equal value, new object
    assert len(cache._store) == 1
    cache.apply(space, HALF, -1, TensorState.basis(0, (1,), ()))
    assert len(cache._store) == 2


def test_traced_run_installs_and_removes_cleanly():
    tracer_module = _tracer_module()
    desitter = _package_module("desitter")
    before = {
        (mod_name, attr): getattr(_package_module(mod_name), attr)
        for mod_name, attr in tracer_module.FUNCTIONS
    }
    # cold coupling-free pieces and images, so that every image is requested
    # and each distinct one computes its tail norm once
    desitter._l_part_slot.cache_clear()
    desitter._entry_slot.cache_clear()
    desitter.IMAGES._store.clear()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        space = Space(make_context("exact-rational"), HALF, Truncation(6, -2, 2))
        report = desitter.verify_lorentz(
            space, HALF, Fraction(1, 4), interior_buffer=3, seed=0, samples=1
        )
    finally:
        tracer.remove()
    assert report["summary"]["verdict"] == "pass"
    metrics = tracer.layer_metrics()
    assert metrics["desitter.weak_commutator_parts.calls"] == len(report["records"])
    assert metrics["desitter.psi_cache.misses"] > 0
    assert metrics["twodim.band_tail_norm.calls"] == metrics["desitter.psi_cache.misses"]
    for (mod_name, attr), original in before.items():
        assert getattr(_package_module(mod_name), attr) is original
