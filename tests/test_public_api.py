"""The public surface: the package's and each module's exported names, pinned."""

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
    "ExperimentReport", "convergence_experiment", "chaos_experiment",
    "attraction_experiment", "monotonicity_scan", "fill_preserving_perturbation",
    "__version__",
]

MODULE_PUBLIC = {
    "cli": ["main"],
    "core": [
        "StationState", "ModelParams", "Measure", "num_states", "enumerate_states",
        "index_of", "state_of", "ranks_of", "count_arrays", "fill_vector",
        "no_available_mask", "saturated_mask", "tv_distance", "mean_fill",
        "prob_no_available", "prob_saturated",
    ],
    "equilibrium": [
        "RateRatios", "SolveReport", "MultipleEquilibriaError", "product_form",
        "simple_form", "f_simple", "solve_phi", "g_mean", "solve_equilibrium",
    ],
    "experiments": [
        "ExperimentReport", "derive_seed", "fill_preserving_perturbation",
        "convergence_experiment", "chaos_experiment", "attraction_experiment",
        "monotonicity_scan",
    ],
    "io": [
        "measure_to_csv", "measure_from_csv", "write_timed_measure_csv",
        "write_station_trajectory_csv", "write_json",
    ],
    "meanfield": ["drift", "integrate", "integrate_at", "stationarity_residual"],
    "simulate": [
        "SimConfig", "SimState", "SimInvariantError", "init_uniform", "step", "run",
        "empirical_measure",
    ],
    "verify": [
        "tandem_generator", "check_enumeration",
        "check_product_form_stationarity", "check_step2_identity",
        "check_aggregation_identity", "check_fill_identity", "check_fixed_point",
        "check_fixed_point_large_K", "OUTCOMES", "solve_grid", "ITEMS",
    ],
}


def test_public_names_are_pinned_and_resolve():
    # A change to the public API must show up as a change to these lists.
    assert len(PUBLIC) == 36
    assert duores.__all__ == PUBLIC
    for name in duores.__all__:
        assert hasattr(duores, name), name
    for mod_name, names in MODULE_PUBLIC.items():
        mod = importlib.import_module(f"duores.{mod_name}")
        assert mod.__all__ == names, f"duores.{mod_name}.__all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"duores.{mod_name}.{name}"
