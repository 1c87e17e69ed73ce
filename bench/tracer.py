"""Span and counter tracing of chargedfock's public functions, from outside.

The package binds its functions with ``from .x import f``, so a function has
one binding site per importing module.  :class:`Tracer` replaces the function
object at every binding site with one wrapper that records a span per call.
Spans are aggregated per (name, parent name) as they close: an ``algebra``
run makes millions of calls, too many to keep one record each.  A layer's
self time is its spans' duration minus the part covered by its child spans.

Only the traced run installs these wrappers; the untraced runs that give the
end-to-end metrics execute the package untouched.
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute) of each traced function -> layer name in the metrics
FUNCTIONS: Dict[Tuple[str, str], str] = {
    ("harness", "current_bracket_suite"): "harness.current_bracket",
    ("harness", "virasoro_bracket_suite"): "harness.virasoro_bracket",
    ("harness", "lorentz_closure_suite"): "harness.lorentz_closure",
    ("harness", "current_covariance_suite"): "harness.current_covariance",
    ("harness", "primary_covariance_suite"): "harness.primary_covariance",
    ("harness", "mode_oracle_suite"): "harness.mode_oracle",
    ("harness", "mode_adjoint_suite"): "harness.mode_adjoint",
    ("heisenberg", "apply_J"): "heisenberg.apply_J",
    ("virasoro", "apply_L"): "virasoro.apply_L",
    ("virasoro", "apply_L_tensor"): "virasoro.apply_L_tensor",
    ("vertex", "apply_Y_mode"): "vertex.apply_Y_mode",
    ("vertex", "apply_Y_mode_recursive"): "vertex.apply_Y_mode_recursive",
    ("fock", "states_equal"): "fock.states_equal",
    ("fock", "norm_sq"): "fock.norm_sq",
    ("fock", "inner_product"): "fock.inner_product",
    ("twodim", "apply_time_zero"): "twodim.apply_time_zero",
    ("twodim", "psi_pair_form"): "twodim.psi_pair_form",
    ("twodim", "band_tail_norm"): "twodim.band_tail_norm",
    ("desitter", "weak_commutator_parts"): "desitter.weak_commutator_parts",
    ("desitter", "commutator_targets"): "desitter.commutator_targets",
    ("desitter", "apply_l_part"): "desitter.apply_l_part",
}

# state classes whose add/sub/scale methods form the fock.state_ops layer
STATE_CLASSES = ("SectorState", "TensorState")
STATE_OPS = ("add", "sub", "scale")

# lru_caches snapshotted at the end of the run -> metric prefix
CACHES = {
    ("vertex", "y_mode_table"): "vertex.y_mode_table",
    ("vertex", "_recursive_element"): "vertex.recursive_element",
    ("virasoro", "_sugawara_on_basis"): "virasoro.sugawara",
}

PACKAGE = "chargedfock"


class Tracer:
    """Aggregated spans plus the counters that need a look at arguments or
    results (time-zero applications, PsiCache reuse, garbage collection)."""

    def __init__(self):
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: Dict[Tuple[str, str], List] = {}
        self._stack: List[List] = [["", 0.0]]
        self._restore: List[Tuple[object, str, object]] = []
        self.counts: Dict[str, int] = {
            "twodim.apply_time_zero.distinct": 0,
            "twodim.apply_time_zero.out_entries": 0,
            "twodim.apply_time_zero.bands": 0,
            "scalar.max_num_bits": 0,
            "scalar.max_den_bits": 0,
            "desitter.psi_cache.hits": 0,
            "desitter.psi_cache.misses": 0,
            "proc.gc_collections": 0,
        }
        self.gc_s = 0.0
        self._gc_start: Optional[float] = None
        self._seen_time_zero = set()

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                stat = spans.get(key)
                if stat is None:
                    stat = spans[key] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _on_time_zero(self, args, result) -> None:
        space, mode, v = args
        out, report = result
        counts = self.counts
        counts["twodim.apply_time_zero.out_entries"] += len(out.entries)
        counts["twodim.apply_time_zero.bands"] += len(report.bands)
        key = (space.trunc, space.alpha0, mode, frozenset(v.entries.items()))
        if key in self._seen_time_zero:
            return
        self._seen_time_zero.add(key)
        counts["twodim.apply_time_zero.distinct"] += 1
        for c in out.entries.values():  # exact-rational: int or Fraction
            counts["scalar.max_num_bits"] = max(counts["scalar.max_num_bits"], c.numerator.bit_length())
            counts["scalar.max_den_bits"] = max(counts["scalar.max_den_bits"], c.denominator.bit_length())

    def _wrap_psi_cache(self, cls) -> None:
        original = cls.apply
        counts = self.counts

        def apply(cache, *args, **kwargs):
            before = len(cache._store)
            result = original(cache, *args, **kwargs)
            if len(cache._store) == before:
                counts["desitter.psi_cache.hits"] += 1
            else:
                counts["desitter.psi_cache.misses"] += 1
            return result

        self._set(cls, "apply", apply)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["proc.gc_collections"] += 1
            self._gc_start = None

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        for (mod_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            hook = self._on_time_zero if name == "twodim.apply_time_zero" else None
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        fock = sys.modules[f"{PACKAGE}.fock"]
        for cls_name in STATE_CLASSES:
            cls = getattr(fock, cls_name)
            for op in STATE_OPS:
                self._set(cls, op, self.wrap("fock.state_ops", getattr(cls, op)))
        self._wrap_psi_cache(sys.modules[f"{PACKAGE}.desitter"].PsiCache)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s per layer (summed over parents), the counters,
        and hits/misses/size of each lru_cache."""
        out: Dict[str, float] = {}
        names = sorted(set(FUNCTIONS.values()) | {"fock.state_ops"})
        for name in names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, _parent), (calls, _total, self_s) in self.spans.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
        out.update(self.counts)
        out["proc.gc_s"] = self.gc_s
        for (mod_name, attr), prefix in CACHES.items():
            info = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr).cache_info()
            out[f"{prefix}.hits"] = info.hits
            out[f"{prefix}.misses"] = info.misses
            out[f"{prefix}.size"] = info.currsize
        return out

    def span_table(self) -> List[dict]:
        """The aggregated spans, for writing out after the run."""
        return [
            {"name": name, "parent": parent or None, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.spans.items())
        ]
