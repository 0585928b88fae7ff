"""duores: closed station networks with double reservation.

A toolkit for a symmetric car-sharing model in which a trip reserves a
car at its origin and a parking space at its destination in one atomic
step.  Its library modules, importable a la carte:

* :mod:`duores.core` -- station states, enumeration, measures;
* :mod:`duores.simulate` -- exact event-driven finite-network runs;
* :mod:`duores.meanfield` -- the large-network deterministic flow;
* :mod:`duores.equilibrium` -- the product-form fixed point and its
  solver;
* :mod:`duores.experiments` -- reproducible studies tying them together;
* :mod:`duores.verify` -- self-contained consistency suites;
* :mod:`duores.io` -- measure and trajectory files, JSON reports.
"""

from .core import (
    Measure,
    ModelParams,
    StationState,
    enumerate_states,
    index_of,
    mean_fill,
    num_states,
    prob_no_available,
    prob_saturated,
    state_of,
    tv_distance,
)
from .equilibrium import (
    MultipleEquilibriaError,
    RateRatios,
    SolveReport,
    product_form,
    solve_equilibrium,
)
from .experiments import (
    ExperimentReport,
    attraction_experiment,
    chaos_experiment,
    convergence_experiment,
    fill_preserving_perturbation,
)
from .meanfield import drift, integrate, integrate_at, stationarity_residual
from .simulate import (
    SimConfig,
    SimState,
    empirical_measure,
    init_uniform,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Measure",
    "ModelParams",
    "StationState",
    "enumerate_states",
    "index_of",
    "state_of",
    "num_states",
    "tv_distance",
    "mean_fill",
    "prob_no_available",
    "prob_saturated",
    "RateRatios",
    "SolveReport",
    "MultipleEquilibriaError",
    "product_form",
    "solve_equilibrium",
    "drift",
    "integrate",
    "integrate_at",
    "stationarity_residual",
    "SimConfig",
    "SimState",
    "init_uniform",
    "step",
    "run",
    "empirical_measure",
    "ExperimentReport",
    "convergence_experiment",
    "chaos_experiment",
    "attraction_experiment",
    "fill_preserving_perturbation",
    "__version__",
]
