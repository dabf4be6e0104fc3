"""Maximum-entropy reconstruction of harmonic motional states from
time-of-flight absorption data, with an end-to-end measurement simulator."""

from .hilbert import (
    DensityOperator,
    EigError,
    FockSpace,
    PureState,
    TruncationError,
    delta_rho,
    entropy,
    even_cat,
    expectation,
    fidelity,
    fock_state,
    hermite_functions,
    ladder_operators,
    superposition,
    thermal_state,
    unitary_expm,
)
from .io import (
    CutFile,
    EmptyAfterClamp,
    FitDivergence,
    GaussianFit,
    RunConfig,
    gaussian_fit_center,
    parse_config_text,
    preprocess,
    read_config,
    read_cut_file,
    read_density_matrix,
    read_record,
    write_cut_file,
    write_density_matrix,
    write_record,
)
from .maxent import (
    CanonicalState,
    FitReport,
    LagrangeVector,
    MissingMeans,
    canonical_state,
    deviation,
    fit,
)
from .measurement import (
    BinGrid,
    DegenerateRotationError,
    ObservableSet,
    QuadratureError,
    TrapConfig,
    build_observation_level,
    default_bin_grid,
)
from .simulate import (
    DimensionMismatch,
    MeasurementRecord,
    NoiseSpec,
    add_noise,
    prepare_free_expansion,
    simulate_ideal,
)
from .wigner import (
    WignerGrid,
    wigner_eval,
    write_wigner_csv,
    write_wigner_json,
)

__version__ = "0.1.0"
