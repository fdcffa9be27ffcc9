"""Property tests of the closed forms over random (theta, L, bw) settings."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from spdcsim import (
    PhaseMatchParams,
    PumpSpectrum,
    closed_form_params,
    fringe_envelope_terms,
    mz_trace_integral,
    v_hom,
    v_mz,
)
from conftest import EXAMPLES

OMEGA_P = 2000.0
GAMMA = 8e-5

thetas = st.floats(min_value=-math.pi, max_value=math.pi)
lengths = st.floats(min_value=1e2, max_value=1e5)
bandwidths = st.floats(min_value=1.0, max_value=400.0)


def setting(theta: float, length: float, bw: float):
    params = PhaseMatchParams(gamma=GAMMA, theta=theta, length=length)
    return closed_form_params(params, PumpSpectrum(omega_p=OMEGA_P, bandwidth=bw))


@EXAMPLES
@given(thetas, lengths, bandwidths)
def test_fringe_terms_at_zero_delay_sum_to_one(theta, length, bw):
    cfp = setting(theta, length, bw)
    assume(cfp.tau_theta > 0)  # off the gamma_s = gamma_i ray
    f1, f2 = fringe_envelope_terms(cfp, 0.0)
    assert abs(f1 + f2 - 1.0) <= 1e-12


@EXAMPLES
@given(thetas, lengths, bandwidths)
def test_fringe_visibility_between_one_seventh_and_one(theta, length, bw):
    # v = (1 + d) / (3 - d) with d = F1 - F2 at half a fringe period; F1 >= 0
    # and F2 <= 1/2 give d in [-1/2, 1]
    assert 1.0 / 7.0 <= v_mz(setting(theta, length, bw)) <= 1.0


@EXAMPLES
@given(thetas, lengths, st.floats(min_value=1.0, max_value=100.0))
def test_fringe_visibility_floor_of_one_third_for_narrow_pumps(theta, length, bw):
    # with bw / omega_p <= 0.05 the envelopes barely move over half a fringe
    # period, so F1 - F2 stays near F1(0) - F2(0) >= 0
    assert 1.0 / 3.0 - 1e-9 <= v_mz(setting(theta, length, bw)) <= 1.0


def test_fringe_visibility_falls_below_one_third_for_a_broad_pump():
    # a pump of 168 rad/ps decays F1 faster than the slow residue F2 (q^2 =
    # 0.14) over half a fringe period: the rate there exceeds the baseline
    theta, length, bw = 2.0, 74017.0, 168.0
    assert v_mz(setting(theta, length, bw)) < 1.0 / 3.0 - 1e-7
    params = PhaseMatchParams(gamma=GAMMA, theta=theta, length=length)
    half_period = math.pi / OMEGA_P
    peak, trough = mz_trace_integral(params, PumpSpectrum(omega_p=OMEGA_P, bandwidth=bw),
                                     np.array([0.0, half_period]), tau_max=half_period)
    assert trough > 1.0 and (peak - trough) / (peak + trough) < 1.0 / 3.0 - 1e-5


@EXAMPLES
@given(thetas, lengths, bandwidths)
def test_dip_visibility_in_unit_interval(theta, length, bw):
    cfp = setting(theta, length, bw)
    assume(cfp.tau_theta > 0)  # off the theta = pi/4 ray, where the dip has no width
    assert 0.0 < v_hom(cfp) <= 1.0
