"""Span tracer that wraps the public functions of each mqed layer from the
outside, so the package needs no edit to be traced.

`Tracer.install()` replaces every binding of each target function in every
loaded `mqed` module, including names imported with `from .x import y`, so
that a call through any module is recorded. Each call is a span; a span's
self time is its duration minus the time its child spans cover. Spans are
aggregated in memory per name and written out once, by the caller.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

# Layer -> public functions traced in it. `tensors` is left out: its calls
# take microseconds, so wrapping them would time the wrapper.
TARGETS = {
    "quadrature": ("adaptive_nodes", "gauss_legendre"),
    "response": ("chi_kernel", "chi_spectrum", "kk_check", "conductor_Q", "LaplaceResponse.chi"),
    "noise": ("noise_commutator", "noise_current_coefficient", "pdot_continuity"),
    "modes": ("mode_coefficients", "assemble_lambda", "lambda_reality_scan"),
    "observables": ("field_representation", "maxwell_residual", "constitutive_roundtrip",
                    "equal_time_commutators"),
    "conductor": ("conductor_modes", "q_kernel_consistency"),
    "couplings": ("coupling_product", "coupling_from_target"),
    "rational": ("partial_fractions", "ilt_rational"),
    "io": ("write_tensor_series_csv", "write_tensor_grid_csv", "write_deviation_csv",
           "write_json"),
    "scenario": ("run_scenario",),
}

# Spans whose rise in the process RSS high-water mark is recorded.
RSS_SPANS = ("observables.field_representation",)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Aggregates spans per name: calls, total time (outermost spans only),
    self time, and the counters recorded at layer boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._active = defaultdict(int)
        self._child_time = []  # one accumulator per open span

    def span(self, name, fn, *args, **kwargs):
        rss0 = _maxrss_mb() if name in RSS_SPANS else None
        self._active[name] += 1
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            self._active[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += duration - children
            if not self._active[name]:
                self.total_s[name] += duration
            if rss0 is not None:
                self.counts[f"{name}.rss_rise_mb"] += _maxrss_mb() - rss0

    def _wrap(self, name, fn):
        if name == "quadrature.adaptive_nodes":
            def wrapper(spec, cutoff, evaluate):
                def counted(x, w):
                    self.counts["quadrature.adaptive_nodes.evaluations"] += 1
                    self.counts["quadrature.adaptive_nodes.nodes_evaluated"] += len(x)
                    return self.span("quadrature.evaluate", evaluate, x, w)
                return self.span(name, fn, spec, cutoff, counted)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        """Wrap every binding of every target in the loaded mqed modules.
        Returns the number of bindings replaced."""
        import mqed  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mqed" or name.startswith("mqed."))]
        replaced = 0
        for layer, names in TARGETS.items():
            home = sys.modules[f"mqed.{layer}"]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                if owner_name:  # a method: the class is the one binding
                    setattr(owner, attr, wrapper)
                    replaced += 1
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            replaced += 1
        return replaced

    def metrics(self) -> dict:
        """Flat `<module>.<function>.<stat>` numbers for every target."""
        out = {}
        for layer, names in TARGETS.items():
            for qualname in names:
                name = f"{layer}.{qualname}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.total_s"] = self.total_s[name]
                out[f"{name}.self_s"] = self.self_s[name]
        out["quadrature.evaluate.self_s"] = self.self_s["quadrature.evaluate"]
        for key in ("quadrature.adaptive_nodes.evaluations",
                    "quadrature.adaptive_nodes.nodes_evaluated",
                    *(f"{n}.rss_rise_mb" for n in RSS_SPANS)):
            out[key] = self.counts[key]
        return out
