"""Population-migration ("opinion") dynamics on influence graphs.

Deterministic migration on the simplex with potential-based convergence
analysis and spectral stability classification, a stochastic birth/death
extension, and a Monte Carlo harness that checks the model's probability
bounds empirically.
"""

__version__ = "0.1.0"

from .dynamics import (ConvergenceResult, PopulationState, classify_fixed_point, flow,
                       is_fixed_point, local_potential_psi, migrate_step, potential_phi,
                       run_to_convergence)
from .errors import (ConfigurationError, EigenSolveError, HypothesisError,
                     NotAFixedPointError)
from .evolution import BirthDistribution, EvolutionConfig, Timeline, run_evolution
from .graph import InfluenceGraph, choose_attachment
from .harness import (BasinMap, StableWindow, TrialStats, basin_map,
                      detect_stable_windows, monte_carlo_convergence,
                      sample_simplex, sample_state, verify_birth_counts,
                      verify_phi_bounds, verify_phi_bounds_sweep,
                      verify_stability_theorem, verify_type_bound, wilson95)
from .influence import (AdmissibilityReport, InfluenceAssignment,
                        InfluenceFunction, cubic, linear, soft, validate)
from .stability import (Spectrum, StabilityReport, check_diagonal_dominance,
                        classify_stability, eigenvalues, jacobian, jacobian_fd,
                        projected_jacobian)

__all__ = [
    "__version__",
    "InfluenceGraph", "choose_attachment",
    "InfluenceFunction", "InfluenceAssignment", "AdmissibilityReport",
    "linear", "cubic", "soft", "validate",
    "PopulationState", "ConvergenceResult", "flow", "migrate_step",
    "potential_phi", "local_potential_psi", "is_fixed_point",
    "run_to_convergence", "classify_fixed_point",
    "jacobian", "jacobian_fd", "projected_jacobian", "eigenvalues",
    "Spectrum", "StabilityReport", "classify_stability",
    "check_diagonal_dominance",
    "BirthDistribution", "EvolutionConfig", "Timeline", "run_evolution",
    "sample_simplex", "sample_state", "wilson95", "TrialStats",
    "monte_carlo_convergence", "BasinMap", "basin_map",
    "StableWindow", "detect_stable_windows",
    "verify_stability_theorem", "verify_type_bound", "verify_phi_bounds",
    "verify_phi_bounds_sweep", "verify_birth_counts",
    "ConfigurationError", "HypothesisError", "NotAFixedPointError",
    "EigenSolveError",
]
