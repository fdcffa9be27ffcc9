"""Property tests of the quadrature oracle against the closed forms over
random (theta, L, bw) settings."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdcsim import (
    PhaseMatchParams,
    PumpSpectrum,
    closed_form_params,
    hom_rate_closed,
    hom_trace_integral,
    mz_rate_closed,
    mz_trace_integral,
    v_hom,
    v_mz,
)
from spdcsim.interferometry import delay_span
from conftest import EXAMPLES

OMEGA_P = 2000.0
GAMMA = 8e-5
# the v axis ends at a finite reach, which leaves up to ~2e-4 (ROADMAP item 2)
BOUND = 5e-4

thetas = st.floats(min_value=-math.pi, max_value=math.pi)
lengths = st.floats(min_value=1e2, max_value=1e5)
bandwidths = st.floats(min_value=20.0, max_value=300.0)


@settings(EXAMPLES, max_examples=24)
@given(thetas, lengths, bandwidths)
def test_quadrature_matches_the_closed_forms_on_random_rays(theta, length, bw):
    params = PhaseMatchParams(gamma=GAMMA, theta=theta, length=length)
    pump = PumpSpectrum(omega_p=OMEGA_P, bandwidth=bw)
    cfp = closed_form_params(params, pump)
    # the fine v axis runs to 2 v_half at the step 2 pi / (1.3 (|b| L + tau_max)),
    # docs/DERIVATION.md (4.2): the _V_REACH part of v_half takes about
    # 2483 (3 + 8 / (bw tau_theta)) nodes, which the budget of 327,680 holds
    # down to bw tau_theta = 0.062; 0.1 leaves room for the ridge part,
    # 5 bw |a| / |b|.  With no floor, one ray needed 831,996 nodes
    assume(bw * cfp.tau_theta >= 0.1)
    span = delay_span(params, pump)
    # zero delay, half a fringe period, and on the dip's flank and past it
    taus = np.array([0.0, math.pi / OMEGA_P, 0.3 * span, span])
    hom = hom_trace_integral(params, pump, taus)
    mz = mz_trace_integral(params, pump, taus)
    assert np.max(np.abs(hom - hom_rate_closed(cfp, taus))) <= BOUND
    assert np.max(np.abs(mz - mz_rate_closed(cfp, taus))) <= BOUND
    assert abs((1.0 - hom[0]) / (1.0 + hom[0]) - v_hom(cfp)) <= BOUND
    assert abs((mz[0] - mz[1]) / (mz[0] + mz[1]) - v_mz(cfp)) <= BOUND
