"""The benchmark's tracer, perfbench/tracer.py, wraps spdcsim's functions at
the module bindings the CLI looks them up through, from outside the
package.  This runs it against the library as it stands, so that a
renamed binding or a narrowed quadrature signature fails the test suite
and not only the benchmark's traced passes."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from spdcsim import PhaseMatchParams, PumpSpectrum, cli, interferometry


def _tracer_class():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_spans_the_quadrature_and_restores_the_bindings():
    params, pump = PhaseMatchParams(8e-5, math.pi / 5, 1e3), PumpSpectrum(2000.0, 40.0)
    taus = np.linspace(-0.02, 0.02, 21)
    want = [trace(params, pump, taus) for trace in (cli.hom_trace_integral,
                                                    cli.mz_trace_integral)]
    tracer = _tracer_class()()
    patches = tracer.install(cli, interferometry)
    try:
        got = [cli.hom_trace_integral(params, pump, taus),
               cli.mz_trace_integral(params, pump, taus)]
    finally:
        tracer.uninstall(patches)
    # both kinds share one setting key: the first call is cold, the second warm
    assert tracer.spans["interferometry.quad_cold"][0] == 1
    assert tracer.spans["interferometry.quad_warm"][0] == 1
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(getattr(module, attr) is original for module, attr, original in patches)
    assert cli.hom_trace_integral is interferometry.hom_trace_integral
    assert cli.mz_trace_integral is interferometry.mz_trace_integral
    assert interferometry.erf is math.erf
