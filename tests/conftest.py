"""Shared test helpers: the vacuum model, and planted dispersion models with
a known joint matching point, used by both the unit tests and the
acceptance gate; the node counts of a quadrature build; the peak memory of
one call; and the example settings of the property tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import settings

from spdcsim import DispersionModel, Interval, KnobSpec, PolynomialBranch, TraceKind

# fixed examples, no example database: the same settings on every run, and
# nothing written to .hypothesis/
EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)

SPEED_OF_LIGHT_UM_PER_PS = 299.792458


def node_counts(spectra) -> tuple[int, int]:
    """(u, v > 0) node counts of the line spectra of one quadrature build:
    the fringe's first comb has one line per u node, and the dip's one comb
    one line per v > 0 node."""
    return len(spectra[TraceKind.MZ][0][0]), len(spectra[TraceKind.HOM][0][0])


def traced_peak(fn):
    """(fn(), the most bytes that tracemalloc saw allocated while fn ran):
    numpy reports its array buffers to tracemalloc, so this is the peak of
    what the call itself holds at once; nothing allocated before it counts."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vacuum_model(span: Interval = Interval(1.0, 1e4)) -> DispersionModel:
    """All three branches k = w/c: zero mismatch at every order."""
    b = PolynomialBranch([0.0, 1.0 / SPEED_OF_LIGHT_UM_PER_PS])
    return DispersionModel(k_p=b, k_s=b, k_i=b, validity=span)


def planted_joint_model(omega_star: float, zeta_star: float, seed: int,
                        knob_order: int = 0) -> DispersionModel:
    """Quadratic branches arranged so the order-0 and order-1 conditions
    both hold exactly at (omega_star, zeta_star).

    The pump branch is built as the target total polynomial minus the knob
    shift, so model.with_zeta(zeta_star) restores it.  The order-1 residual
    is linear in omega with slope >= ~1e-8 ps^2/um, big enough that the
    knob brackets used in the tests keep its root inside the omega bracket.
    """
    rng = np.random.default_rng(seed)
    ks = PolynomialBranch([10.0 + rng.uniform(-1, 1),
                           5e-3 + rng.uniform(-1e-4, 1e-4),
                           rng.uniform(1e-9, 5e-9)])
    ki = PolynomialBranch([10.0 + rng.uniform(-1, 1),
                           5e-3 + rng.uniform(-1e-4, 1e-4),
                           rng.uniform(-5e-9, -1e-9)])
    half = omega_star / 2
    t2 = rng.uniform(5e-9, 9e-9)
    t1 = (ks.derivative(half, 1) + ki.derivative(half, 1)) / 2 - 2 * t2 * omega_star
    t0 = ks(half) + ki(half) - t1 * omega_star - t2 * omega_star**2
    total = [t0, t1, t2]
    total[knob_order] -= zeta_star
    return DispersionModel(k_p=PolynomialBranch(total), k_s=ks, k_i=ki,
                           validity=Interval(10.0, 8000.0),
                           knob=KnobSpec(branch="p", order=knob_order))


def planted_cases(n: int = 20):
    """(model, omega_star, zeta_star, omega_bracket, zeta_bracket) tuples,
    alternating constant-offset and group-delay knobs."""
    cases = []
    for seed in range(n):
        omega_star = 2000.0 + 10.0 * seed
        if seed % 2:
            knob, zeta_star, half_br = 0, 1.5e-4 * (seed - 9.5), 4e-3
        else:
            knob, zeta_star, half_br = 1, 1e-7 * (seed - 9.5), 2e-6
        model = planted_joint_model(omega_star, zeta_star, seed, knob)
        cases.append((model, omega_star, zeta_star,
                      Interval(omega_star - 400.0, omega_star + 400.0),
                      Interval(zeta_star - half_br, zeta_star + half_br)))
    return cases


def near_matched_curvature_cases(n: int = 20):
    """Planted models whose order-2 residual is also tiny (<= 1e-10).

    The omega-derivative of the order-1 residual is the order-2 residual,
    so an exactly matched curvature would leave the inner solve with a
    tangential root; these models keep a small definite-sign order-2
    residual instead, and put the knob on the constant coefficient so the
    crossing stays transversal in zeta.
    """
    cases = []
    for seed in range(n):
        rng = np.random.default_rng(1000 + seed)
        omega_star = 2000.0 + 10.0 * seed
        zeta_star = 2e-4 * (seed - 9.5) + 1e-5
        ks = PolynomialBranch([10.0 + rng.uniform(-1, 1),
                               5e-3 + rng.uniform(-1e-4, 1e-4),
                               rng.uniform(-2e-11, 2e-11)])
        ki = PolynomialBranch([10.0 + rng.uniform(-1, 1),
                               5e-3 + rng.uniform(-1e-4, 1e-4),
                               rng.uniform(-2e-11, 2e-11)])
        half = omega_star / 2
        # order-2 residual = 2 t2 - (ks2 + ki2) / 2 = +-5e-11
        t2 = (ks.coeffs[2] + ki.coeffs[2]) / 4.0 + 2.5e-11 * (1 if seed % 2 else -1)
        t1 = (ks.derivative(half, 1) + ki.derivative(half, 1)) / 2 - 2 * t2 * omega_star
        t0 = ks(half) + ki(half) - t1 * omega_star - t2 * omega_star**2
        model = DispersionModel(
            k_p=PolynomialBranch([t0 - zeta_star, t1, t2]), k_s=ks, k_i=ki,
            validity=Interval(10.0, 8000.0), knob=KnobSpec(branch="p", order=0))
        cases.append((model, omega_star, zeta_star,
                      Interval(omega_star - 400.0, omega_star + 400.0),
                      Interval(zeta_star - 5e-3, zeta_star + 5e-3)))
    return cases
