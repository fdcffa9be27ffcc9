"""Spans around calls into spdcsim's layers, installed from outside the package.

Each public function is wrapped at the module binding its caller looks it
up through (e.g. `spdcsim.cli.hom_trace_integral`, `spdcsim.interferometry.erf`),
so the program's own code is unchanged.  Spans are aggregated in memory per
name as call count, inclusive time and self time (inclusive minus the time
covered by directly nested spans); nothing is written until the pass ends.

Quadrature calls are split into cold and warm by a setting key the tracer
computes from the call's own inputs, mirroring what an engine reused within
one process would be keyed on.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

# public functions wrapped at their `spdcsim.cli` binding, grouped by layer
CLOSED_FUNCTIONS = ("closed_form_params", "hom_rate_closed", "mz_rate_closed", "sweep_visibility")
BIPHOTON_FUNCTIONS = ("grid", "truncation_halfwidth")
DISPERSION_FUNCTIONS = ("solve_epm", "check_condition", "taylor_gammas", "polar_params",
                        "fluorescence_bandwidth", "validity_bound")
QUADRATURE_FUNCTIONS = ("hom_trace_integral", "mz_trace_integral")


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.cold_s: dict[tuple, float] = {}
        self.warm_calls: list[tuple[tuple, float]] = []
        # (binding, args, kwargs, values) of every cold quadrature call
        self.cold_calls: list[tuple[str, tuple, dict, np.ndarray]] = []

    def call(self, name: str, fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            span = self.spans[name]
            span[0] += 1
            span[1] += dt
            span[2] += dt - frame[0]

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            if count is not None:
                key, n = count(*args, **kwargs)
                self.counts[key] += n
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def wrap_quadrature(self, attr: str, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            params, pump, taus = a["params"], a["pump"], np.asarray(a["taus"], dtype=float)
            tau_max = a["tau_max"]
            if tau_max is None:
                tau_max = ("auto", float(np.max(np.abs(taus))) if taus.size else 0.0)
            else:
                tau_max = round(float(tau_max), 12)
            spec = a["spec"]
            key = (params.gamma_s, params.gamma_i, params.length, pump.omega_p,
                   pump.bandwidth, tau_max,
                   None if spec is None else (spec.rel_tol, spec.abs_tol, spec.max_subdivisions))
            cold = key not in self.cold_s
            t0 = perf_counter()
            result = self.call("interferometry.quad_" + ("cold" if cold else "warm"), fn,
                               *args, **kwargs)
            dt = perf_counter() - t0
            if cold:
                self.cold_s[key] = dt
                self.cold_calls.append((attr, args, kwargs, result))
            else:
                self.warm_calls.append((key, dt))
                self.counts["interferometry.quad_delays"] += int(taus.size)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, cli_module, interferometry_module) -> list[tuple[object, str, object]]:
        """Patch the bindings; returns what `uninstall` needs to undo it."""
        patches = []

        def patch(module, attr, wrapper):
            patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        for attr in QUADRATURE_FUNCTIONS:
            patch(cli_module, attr, self.wrap_quadrature(attr, getattr(cli_module, attr)))
        for attr in CLOSED_FUNCTIONS:
            patch(cli_module, attr, self.wrap("interferometry.closed", getattr(cli_module, attr)))
        for attr in BIPHOTON_FUNCTIONS:
            count = (lambda bp, s, i, n: ("biphoton.grid_points", n * n)) if attr == "grid" else None
            patch(cli_module, attr, self.wrap("biphoton.grid", getattr(cli_module, attr), count))
        for attr in DISPERSION_FUNCTIONS:
            patch(cli_module, attr, self.wrap("dispersion.solve", getattr(cli_module, attr)))
        patch(interferometry_module, "erf", self.wrap("numerics.erf", interferometry_module.erf))
        return patches

    @staticmethod
    def uninstall(patches) -> None:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)

    def engine_reuse_ratio(self) -> float:
        """Warm calls that took under a tenth of their setting's cold call,
        over all warm calls (0 when there were none)."""
        if not self.warm_calls:
            return 0.0
        reused = sum(1 for key, dt in self.warm_calls if dt < 0.1 * self.cold_s[key])
        return reused / len(self.warm_calls)
