"""The dip, summed straight from the joint spectral amplitude, against both
of the library's dip routes.

The two-detector rate of the dip arrangement at delay tau is

    1 - sum A(s, i) A(i, s) cos((w_s - w_i) tau) / sum |A(s, i)|^2

over a uniform detuning grid (A is real).  This ties hom_rate_closed and
hom_trace_integral to biphoton.amplitude, the first step of every
derivation of either.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from spdcsim import (
    PhaseMatchParams,
    PumpSpectrum,
    amplitude,
    closed_form_params,
    delay_span,
    hom_rate_closed,
    hom_trace_integral,
)

PUMP = PumpSpectrum(omega_p=2000.0, bandwidth=40.0)
# truncating the sinc tails after 40 lobes leaves up to ~7e-4; a
# theta -> -theta slip moves the dip by 0.15-0.25 at the conventional settings
BOUND = 1e-2


def summed_dip(params: PhaseMatchParams, pump: PumpSpectrum, taus: np.ndarray) -> np.ndarray:
    """The dip at taus from A on a square detuning grid: 4 points per
    phase-matching lobe, and at most a quarter period of the largest delay's
    cosine; the grid reaches 6 bandwidths and 40 lobes."""
    proj = min(abs(math.cos(params.theta)), abs(math.sin(params.theta)))
    lobe = 2.0 * math.pi / (params.gamma * params.length * proj)
    tau_max = float(np.max(np.abs(taus)))
    step = min(math.pi / (2.0 * tau_max), lobe / 4.0)
    reach = max(6.0 * pump.bandwidth, 40.0 * lobe)
    detuning = np.linspace(-reach, reach, 2 * math.ceil(reach / step) + 1)
    w = 0.5 * pump.omega_p + detuning
    a = amplitude(params, pump, w[:, None], w[None, :])
    overlap = a * a.T
    # cos((d_s - d_i) tau) = cos d_s tau cos d_i tau + sin d_s tau sin d_i tau
    phase = np.outer(detuning, taus)
    cross = sum(np.sum(f * (overlap @ f), axis=0) for f in (np.cos(phase), np.sin(phase)))
    return 1.0 - cross / np.sum(a * a)


@pytest.mark.parametrize("theta, length", [(math.pi / 5, 2e4), (-math.pi / 6, 2e4),
                                           (-math.pi / 4, 1e3)],
                         ids=["conv_pos", "conv_neg", "epm"])
def test_dip_summed_from_the_amplitude_matches_both_routes(theta, length):
    params = PhaseMatchParams(gamma=8e-5, theta=theta, length=length)
    span = delay_span(params, PUMP)
    taus = np.linspace(-span, span, 9)
    summed = summed_dip(params, PUMP, taus)
    closed = hom_rate_closed(closed_form_params(params, PUMP), taus)
    for route in (closed, hom_trace_integral(params, PUMP, taus)):
        assert np.max(np.abs(summed - route)) <= BOUND
