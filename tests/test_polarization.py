from __future__ import annotations

import math
import re

import numpy as np
import pytest

from spdcsim import (
    BellState,
    Polarization,
    Port,
    TwoPhotonPathState,
    apply_phase_flip,
    apply_rotator,
    beamsplitter_output,
    postselect_coincidence,
)


def test_beamsplitter_weights():
    state = beamsplitter_output()
    b, c = Port.B.value, Port.C.value
    v, h = Polarization.V.value, Polarization.H.value
    # the four canonical terms (cV, bH), (bV, cH), (bV, bH), (cV, cH)
    assert [state.amps[s, v, i, h] for s, i in ((c, b), (b, c), (b, b), (c, c))] == [0.5] * 4
    assert np.sum(np.abs(state.amps) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_untransformed_postselection():
    label, prob = postselect_coincidence(beamsplitter_output())
    assert label is BellState.PSI_PLUS
    assert prob == pytest.approx(0.5, abs=1e-15)


def test_cross_port_probability_is_half():
    state = beamsplitter_output()
    b, c = Port.B.value, Port.C.value
    v, h = Polarization.V.value, Polarization.H.value
    cross = abs(state.amps[c, v, b, h]) ** 2 + abs(state.amps[b, v, c, h]) ** 2
    assert cross == pytest.approx(0.5, abs=1e-15)


def test_four_transforms_give_four_bell_states():
    base = beamsplitter_output()
    outcomes = {}
    for name, state in {
        "identity": base,
        "rotator": apply_rotator(base, Port.B),
        "phase": apply_phase_flip(base, Port.B),
        "both": apply_phase_flip(apply_rotator(base, Port.B), Port.B),
    }.items():
        label, prob = postselect_coincidence(state)
        assert prob == pytest.approx(0.5, abs=1e-12)
        outcomes[name] = label
    assert set(outcomes.values()) == set(BellState)
    assert outcomes["identity"] is BellState.PSI_PLUS
    assert outcomes["phase"] is BellState.PSI_MINUS


def test_transform_arm_choice_is_explicit():
    base = beamsplitter_output()
    for arm in (Port.B, Port.C):
        label, prob = postselect_coincidence(apply_phase_flip(base, arm))
        assert label is BellState.PSI_MINUS
        assert prob == pytest.approx(0.5, abs=1e-12)


def test_norm_preserved_by_transforms():
    state = beamsplitter_output()
    for transform in (lambda s: apply_rotator(s, Port.C),
                      lambda s: apply_phase_flip(s, Port.B)):
        state = transform(state)
        total = float(np.sum(np.abs(state.amps) ** 2))
        assert total == pytest.approx(1.0, abs=1e-12)
    _, prob = postselect_coincidence(state)
    assert prob + (1.0 - prob) == pytest.approx(1.0, abs=1e-12)


def test_same_port_only_state_is_rejected():
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[Port.B.value, 0, Port.B.value, 1] = 1.0 / math.sqrt(2.0)
    amps[Port.C.value, 0, Port.C.value, 1] = 1.0 / math.sqrt(2.0)
    state = TwoPhotonPathState(amps=amps)
    with pytest.raises(ValueError, match=r"^no cross-port amplitude survives "
                                         r"\(success probability 0\.0\)$"):
        postselect_coincidence(state)


def test_non_bell_cross_port_state_is_rejected():
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    amps[Port.B.value, 0, Port.C.value, 1] = 1.0  # bare |V H>, not entangled
    state = TwoPhotonPathState(amps=amps)
    with pytest.raises(ValueError, match="^surviving amplitude is not a Bell state") as err:
        postselect_coincidence(state)
    prob = re.fullmatch(r".*\(success probability (\S+)\)", str(err.value)).group(1)
    assert float(prob) == pytest.approx(1.0, abs=1e-12)


def test_state_norm_validated():
    with pytest.raises(ValueError):
        TwoPhotonPathState(amps=np.zeros((2, 2, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        TwoPhotonPathState(amps=np.ones((2, 2, 2), dtype=complex) / math.sqrt(8.0))
