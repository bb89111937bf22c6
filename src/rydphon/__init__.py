"""Phonons and atom-phonon couplings of dipolar zig-zag tweezer chains."""

__version__ = "0.1.0"

from .errors import (
    CoincidentAtomsError,
    ConfigError,
    DynamicalInstabilityError,
    ImaginaryFrequencyError,
    MaxIterExceededError,
    NonConvergedCutoffError,
    NonFiniteMatrixError,
    NonPositiveDiagonalError,
    RydphonError,
    SchemaMismatchError,
    ZeroFrequencyError,
)
from .geometry import (
    ChainSpec,
    Configuration,
    Topology,
    base_offsets,
    dipole_unit,
    load_chain_spec,
    magic_angle,
    spec_from_dict,
    spec_to_dict,
    trap_centers,
)
from .potential import (
    EnergyReport,
    fd_gradient,
    fd_hessian,
    gradient,
    hessian,
    pair_energy,
    total_energy,
)
from .equilibrium import BulkEquilibrium, relax_bulk, relax_finite
from .bands import (
    BandDiagnostics,
    BandStructure,
    EdgeDetectionParams,
    FiniteSpectrum,
    band_diagnostics,
    band_structure,
    detect_edge_modes,
    dynamical_matrix,
    finite_spectrum,
    q_grid,
    track_bands,
)
from .local_phonons import (
    LocalPhononModel,
    aggregate_J,
    bogoliubov_frequencies,
    coupling_matrices,
    local_frequencies,
    local_phonon_model,
)
from .atom_phonon import (
    CouplingGrid,
    coupled_band_count,
    coupled_bands,
    coupling_grid,
    physical_coupling,
    rho0,
)
from .model_export import (
    ExtendedHHModel,
    assemble,
    deserialize,
    serialize,
    spec_digest,
)
