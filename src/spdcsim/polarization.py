"""Amplitude bookkeeping for the post-selection entangling scheme: beam
splitter fan-out of the cross-polarized pair, coincidence post-selection
and Bell-state identification.

Detector windows are assumed long enough that the pair's shared spectral
weight factors out, so states carry path and polarization labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Port",
    "Polarization",
    "BellState",
    "NotABellState",
    "TwoPhotonPathState",
    "beamsplitter_output",
    "apply_rotator",
    "apply_phase_flip",
    "postselect_coincidence",
]


class Port(Enum):
    B = 0
    C = 1


class Polarization(Enum):
    V = 0  # vertical, the signal photon's polarization at the source
    H = 1  # horizontal, the idler photon's


class BellState(Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


class NotABellState(ValueError):
    """Post-selected amplitude is not proportional to a Bell state."""

    def __init__(self, message: str, success_prob: float):
        super().__init__(message)
        self.success_prob = success_prob


@dataclass(frozen=True)
class TwoPhotonPathState:
    """Two-photon amplitude over (signal port, signal pol, idler port,
    idler pol).

    Fresh from the beam splitter the support is the four canonical terms
    (c V, b H), (b V, c H), (b V, b H), (c V, c H), each with weight 1/2
    (see the weights property); arm transforms may rotate polarizations and
    populate other components.  Norm stays 1 throughout.
    """

    amps: np.ndarray  # complex, shape (2, 2, 2, 2)

    def __post_init__(self) -> None:
        if self.amps.shape != (2, 2, 2, 2):
            raise ValueError("amplitude tensor must have shape (2, 2, 2, 2)")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm^2 = {norm}, expected 1")

    @property
    def weights(self) -> tuple[complex, complex, complex, complex]:
        """The four canonical-term weights: (cV,bH), (bV,cH), (bV,bH), (cV,cH)."""
        a = self.amps
        b, c = Port.B.value, Port.C.value
        v, h = Polarization.V.value, Polarization.H.value
        return (complex(a[c, v, b, h]), complex(a[b, v, c, h]),
                complex(a[b, v, b, h]), complex(a[c, v, c, h]))


def beamsplitter_output() -> TwoPhotonPathState:
    """State after the 50-50 splitter: each photon reflected or transmitted
    with equal amplitude, so all four port assignments carry weight 1/2."""
    amps = np.zeros((2, 2, 2, 2), dtype=complex)
    b, c = Port.B.value, Port.C.value
    v, h = Polarization.V.value, Polarization.H.value
    for ps, pi in ((c, b), (b, c), (b, b), (c, c)):
        amps[ps, v, pi, h] = 0.5
    return TwoPhotonPathState(amps=amps)


def _apply_pol_matrix(state: TwoPhotonPathState, arm: Port, m: np.ndarray) -> TwoPhotonPathState:
    # act on the polarization of any photon currently in the given arm
    amps = state.amps.copy()
    sel = arm.value
    amps[sel, :, :, :] = np.einsum("pq,qjk->pjk", m, amps[sel, :, :, :])
    amps[:, :, sel, :] = np.einsum("pq,ijq->ijp", m, amps[:, :, sel, :])
    return TwoPhotonPathState(amps=amps)


def apply_rotator(state: TwoPhotonPathState, arm: Port) -> TwoPhotonPathState:
    """Half-wave rotator in one output arm: swaps V and H there."""
    return _apply_pol_matrix(state, arm, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def apply_phase_flip(state: TwoPhotonPathState, arm: Port) -> TwoPhotonPathState:
    """Pi-rad phase shifter on the H polarization in one output arm."""
    return _apply_pol_matrix(state, arm, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


_BELL_VECTORS = {
    # basis order: (pol in B, pol in C) = VV, VH, HV, HH
    BellState.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    BellState.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
    BellState.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    BellState.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
}


def postselect_coincidence(state: TwoPhotonPathState) -> tuple[BellState, float]:
    """Keep only the terms with one photon per port, renormalize and match
    against the four Bell states.

    Returns the Bell label and the success probability (the weight that
    survives discarding same-port exits).

    Raises:
        NotABellState: surviving amplitude is zero or not Bell-like; the
            exception carries the success probability.
    """
    a = state.amps
    b, c = Port.B.value, Port.C.value
    psi = np.zeros(4, dtype=complex)  # (pol in B, pol in C), VV VH HV HH
    for pv in range(2):
        for ph in range(2):
            # signal in B, idler in C: B carries the signal polarization
            psi[2 * pv + ph] += a[b, pv, c, ph]
            # signal in C, idler in B: B carries the idler polarization
            psi[2 * ph + pv] += a[c, pv, b, ph]
    success = float(np.sum(np.abs(psi) ** 2))
    if success <= 1e-12:
        raise NotABellState("no cross-port amplitude survives", success_prob=0.0)
    psi /= np.sqrt(success)
    for label, vec in _BELL_VECTORS.items():
        if abs(np.vdot(vec, psi)) >= 1.0 - 1e-10:
            return label, success
    raise NotABellState("surviving amplitude is not a Bell state", success_prob=success)
