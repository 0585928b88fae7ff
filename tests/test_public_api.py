"""The public surface: the package's exported names, pinned."""

import importlib

import duores

PUBLIC = [
    "Measure", "ModelParams", "StationState", "enumerate_states", "index_of",
    "state_of", "num_states", "tv_distance", "mean_fill", "prob_no_available",
    "prob_saturated",
    "RateRatios", "SolveReport", "MultipleEquilibriaError", "product_form",
    "f_simple", "solve_phi", "g_mean", "solve_equilibrium",
    "drift", "integrate", "integrate_at", "stationarity_residual",
    "SimConfig", "SimState", "init_uniform", "step", "run", "empirical_measure",
    "pair_empirical",
    "ExperimentReport", "convergence_experiment", "chaos_experiment",
    "attraction_experiment", "monotonicity_scan", "fill_preserving_perturbation",
    "__version__",
]

MODULES = ["cli", "core", "equilibrium", "experiments", "io", "meanfield",
           "simulate", "verify"]


def test_public_names_are_pinned_and_resolve():
    # A change to the public API must show up as a change to this list.
    assert len(PUBLIC) == 37
    assert duores.__all__ == PUBLIC
    for name in duores.__all__:
        assert hasattr(duores, name), name
    for mod_name in MODULES:
        mod = importlib.import_module(f"duores.{mod_name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"duores.{mod_name}.{name}"
