"""Biphoton joint-spectrum and interferometer-visibility simulator for
collinear parametric down-conversion in the first-order mismatch model."""

from .numerics import (
    Interval,
    NonConvergence,
    NoSignChange,
    QuadratureSpec,
    derivative,
    erf,
    find_root,
    integrate_1d,
)
from .dispersion import (
    CallableBranch,
    DegenerateGammas,
    DispersionModel,
    InfiniteBandwidth,
    KnobSpec,
    NoSolutionInBracket,
    OutOfValidityRange,
    PhaseMatchParams,
    PolynomialBranch,
    ValidityReport,
    ZeroCurvature,
    check_condition,
    fluorescence_bandwidth,
    phase_mismatch,
    polar_params,
    solve_epm,
    taylor_gammas,
    vacuum_model,
    validity_bound,
)
from .biphoton import (
    BiphotonAmplitude,
    Grid2D,
    LimitProfile,
    PumpSpectrum,
    amplitude,
    db_amplitude,
    factorization_check,
    grid,
    marginal_spectrum,
    phi_L,
    pump_alpha,
    tb_amplitude,
    truncation_halfwidth,
)
from .interferometry import (
    ClosedFormParams,
    DegenerateDip,
    TraceKind,
    closed_form_params,
    delay_span,
    fringe_envelope_terms,
    hom_rate_closed,
    hom_trace_integral,
    mz_rate_closed,
    mz_trace_integral,
    sweep_visibility,
    v_hom,
    v_mz,
)
from .polarization import (
    BellState,
    NotABellState,
    Polarization,
    Port,
    TwoPhotonPathState,
    apply_phase_flip,
    apply_rotator,
    beamsplitter_output,
    postselect_coincidence,
)

__version__ = "0.1.0"
