"""dfsim: dissipative dynamics of oscillators coupled to a common environment.

Numeric master-equation propagation on truncated Fock spaces, closed-form
evolution for the degenerate two-mode case, non-Markovian memory kernels,
and predicted versus fitted decay rates for nearly protected modes.
"""

from .coupling import (
    CauchySchwarzResult,
    CouplingModel,
    DeviationParams,
    PredictedRates,
    RateModel,
    SeparabilityResult,
    cauchy_schwarz_check,
    collective_rotation,
    predicted_rates,
    separability_check,
    theta_from_rates,
    wd_sd_modes,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    ExceptionalPointError,
    StepSizeError,
    TruncationOverflowError,
    UnphysicalRatesError,
)
from .fock import (
    DensityMatrix,
    FockBasisState,
    ModeVector,
    TruncationSpec,
    basis_vector,
    creation_operator,
    dfs_state_builder,
    fidelity,
    fock_state,
    ladder_operator,
    mode_population,
    number_operator,
    one_photon_state,
    one_photon_vector,
    purity,
    trace_distance,
    vacuum_state,
)
from .kernel import (
    MemoryKernelSolution,
    SpectralDensity,
    extract_rates,
    quanta_gain,
    solve_amplitude,
    solve_kernel,
    thermal_injection_rate,
)
from .lindblad import (
    LindbladGenerator,
    PropagationResult,
    build_bm_generator,
    build_realistic_generator,
    build_time_dependent_generator,
    propagate,
    steady_state,
)
from .propagator import (
    AsymptoticResult,
    PropagatorCoefficients,
    apply_superoperator,
    asymptotic_state,
    coefficients_from_eta,
    markov_coefficients,
)
from .realistic import (
    DecoherenceAngles,
    EigenRates,
    FitResult,
    ModeSplit,
    OnePhotonSolution,
    TransferCoefficients,
    approximate_mode_split,
    decoherence_mode_angles,
    eigen_rates,
    fit_decay_rate,
    one_photon_evolution,
    transfer_coefficients,
    transfer_matrix_entries,
)
from .scenario import (
    load_config,
    run_scenario,
    run_sweep,
    validate_config,
    validate_report,
)

__version__ = "0.1.0"
