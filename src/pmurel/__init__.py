"""Reliability toolkit for phasor measurement units.

Models a repairable PMU whose hardware and software fail both independently
and through their interaction.  Triangular fuzzy numbers carry the
uncertainty in failure/repair rates, and the alpha-cut bands of the rates
and of the availability are read-only (levels, 3) arrays of (alpha, lo, hi)
rows.  A continuous-time Markov chain captures the coupled
hardware-software degradation paths, closed-form Weibull/fault-detection
curves give the component reliabilities, a sequential Monte Carlo engine
generates synthetic failure histories, and a closed-form least-squares fit
estimates the effective failure rate from aggregated exposure data, split
into two interaction rates only for an assumed ratio G between them.
"""

from .curves import (
    HardwareParams,
    InteractionParams,
    SoftwareParams,
    interaction_reliability_closed_form,
    nhpp_mean_value,
    pmu_reliability_curve,
    software_reliability,
    weibull_reliability,
)
from .fitting import FitResult, effective_rate, fit_lambda1, fit_scan, sse
from .fuzzy import (
    TriangularFuzzyNumber,
    alpha_cut,
    defuzzify,
    fuzzy_availability,
    fuzzy_unavailability,
)
from .markov import (
    ALLOWED_TRANSITIONS,
    OPERATIONAL_STATES,
    STATES,
    GeneratorMatrix,
    TransientSolution,
    build_unified_model,
    operational_mass,
    transient_grid,
)
from .simulate import (
    ExposureTable,
    ReplicationTrace,
    SimulationConfig,
    SimulationSummary,
    build_exposure_table,
    run_replication,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_TRANSITIONS",
    "ExposureTable",
    "FitResult",
    "GeneratorMatrix",
    "HardwareParams",
    "InteractionParams",
    "OPERATIONAL_STATES",
    "ReplicationTrace",
    "STATES",
    "SimulationConfig",
    "SimulationSummary",
    "SoftwareParams",
    "TransientSolution",
    "TriangularFuzzyNumber",
    "alpha_cut",
    "build_exposure_table",
    "build_unified_model",
    "defuzzify",
    "effective_rate",
    "fit_lambda1",
    "fit_scan",
    "fuzzy_availability",
    "fuzzy_unavailability",
    "interaction_reliability_closed_form",
    "nhpp_mean_value",
    "operational_mass",
    "pmu_reliability_curve",
    "run_replication",
    "run_simulation",
    "software_reliability",
    "sse",
    "transient_grid",
    "weibull_reliability",
]
