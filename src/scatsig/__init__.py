"""Far field operators and eigenvalue signatures for layered ball scatterers.

The package synthesizes far field data for spherically symmetric
scatterers, assembles discretized far field operators on sphere
quadratures, and extracts three spectral target signatures: far field
operator eigenvalues, transmission eigenvalues, and generalized
Stekloff eigenvalues. Analytic references for the ball geometry live
in :mod:`scatsig.oracles`.
"""

from .forward import (
    ConvergenceError,
    DipoleSource,
    ImpedanceBall,
    MediumSpec,
    ModalCoefficients,
    ResonantParameterError,
    TruncationError,
    impedance_coefficients,
    mie_coefficients,
    truncation_degree,
)
from .ffop import (
    FarFieldMatrix,
    SphereQuadrature,
    TangentVectorField,
    add_noise,
    assemble,
    build_quadrature,
    inner_product,
    load_ffop,
    save_ffop,
)
from .oracles import (
    BracketError,
    NeumannResonanceError,
    StekloffMode,
    first_tev,
    index_bound_from_tev,
    s_modal_multiplier,
    shift_estimate,
    stekloff_eigs_ball,
    tev_determinant,
    tev_min_singular,
    tev_roots,
)
from .scan import (
    ScanResult,
    ZSampling,
    find_peaks,
    stekloff_scan,
    tev_scan,
)
from .sphfun import RecurrenceOverflowError

__version__ = "0.1.0"

# spectra's exports, served on first use: spectra imports scipy.linalg, which
# is about half of a CLI start, and only its eigensolver needs it
_SPECTRA = ("EigenSet", "PhaseTrack", "circle_residual", "eig", "energy_identity_residual",
            "lidski_positivity", "phase_track")


def __getattr__(name):
    if name in _SPECTRA:
        from . import spectra

        return getattr(spectra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BracketError",
    "ConvergenceError",
    "DipoleSource",
    "EigenSet",
    "FarFieldMatrix",
    "ImpedanceBall",
    "MediumSpec",
    "ModalCoefficients",
    "NeumannResonanceError",
    "PhaseTrack",
    "RecurrenceOverflowError",
    "ResonantParameterError",
    "ScanResult",
    "SphereQuadrature",
    "StekloffMode",
    "TangentVectorField",
    "TruncationError",
    "ZSampling",
    "add_noise",
    "assemble",
    "build_quadrature",
    "circle_residual",
    "eig",
    "energy_identity_residual",
    "find_peaks",
    "first_tev",
    "impedance_coefficients",
    "index_bound_from_tev",
    "inner_product",
    "lidski_positivity",
    "load_ffop",
    "mie_coefficients",
    "phase_track",
    "s_modal_multiplier",
    "save_ffop",
    "shift_estimate",
    "stekloff_eigs_ball",
    "stekloff_scan",
    "tev_determinant",
    "tev_min_singular",
    "tev_roots",
    "tev_scan",
    "truncation_degree",
]
