"""Population-migration ("opinion") dynamics on influence graphs.

Deterministic migration on the simplex with potential-based convergence
analysis and spectral stability classification, a stochastic birth/death
extension, and a Monte Carlo harness that checks the model's probability
bounds empirically.

Importing the package executes only ``errors``, ``graph``, ``influence`` and
``dynamics``. The modules in ``_LAZY`` (``evolution``, ``harness``,
``seeding`` and ``stability``) are registered with
``importlib.util.LazyLoader``: each sits in ``sys.modules`` and as a package
attribute from the start, and executes on its first attribute access, so a
subcommand pays only for the modules it uses. Their exported names resolve
through the module ``__getattr__``. Registering them, rather than importing
them inside functions, keeps every module a key of ``sys.modules`` once the
package is imported: tools that look a module up there, such as the
benchmark's span tracer, find it before it has run.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .dynamics import (ConvergenceResult, PopulationState, classify_fixed_point,
                       is_fixed_point, local_potential_psi, migrate_step, potential_phi,
                       run_to_convergence)
from .errors import (ConfigurationError, EigenSolveError, HypothesisError,
                     NotAFixedPointError)
from .graph import InfluenceGraph
from .influence import (AdmissibilityReport, InfluenceAssignment,
                        InfluenceFunction, cubic, linear, soft, validate)

# Each lazily executed module and the names the package exports from it.
_LAZY = {
    "evolution": ("BirthDistribution", "EvolutionConfig", "Timeline", "run_evolution"),
    "harness": ("BasinMap", "StableWindow", "TrialStats", "basin_map",
                "detect_stable_windows", "monte_carlo_convergence", "sample_simplex",
                "sample_state", "verify_birth_counts", "verify_phi_bounds",
                "verify_phi_bounds_sweep", "verify_stability_theorem",
                "verify_type_bound", "wilson95"),
    "seeding": (),
    "stability": ("Spectrum", "StabilityReport", "check_diagonal_dominance",
                  "classify_stability", "eigenvalues", "jacobian", "projected_jacobian"),
}


def _register_lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` but not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "InfluenceGraph",
    "InfluenceFunction", "InfluenceAssignment", "AdmissibilityReport",
    "linear", "cubic", "soft", "validate",
    "PopulationState", "ConvergenceResult", "migrate_step",
    "potential_phi", "local_potential_psi", "is_fixed_point",
    "run_to_convergence", "classify_fixed_point",
    "jacobian", "projected_jacobian", "eigenvalues",
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
