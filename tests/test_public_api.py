"""The public surface: the package's and each module's exported names, and
each exported callable's parameter names, pinned."""

import importlib
import inspect

import duores

PUBLIC = [
    "Measure", "ModelParams", "StationState", "enumerate_states", "index_of",
    "state_of", "num_states", "tv_distance", "mean_fill", "prob_no_available",
    "prob_saturated",
    "RateRatios", "SolveReport", "MultipleEquilibriaError", "product_form", "solve_equilibrium",
    "drift", "integrate", "integrate_at", "stationarity_residual",
    "SimConfig", "SimState", "init_uniform", "step", "run", "empirical_measure",
    "ExperimentReport", "convergence_experiment", "chaos_experiment",
    "attraction_experiment", "fill_preserving_perturbation",
    "__version__",
]

MODULE_PUBLIC = {
    "cli": ["main"],
    "core": [
        "StationState", "ModelParams", "Measure", "num_states", "enumerate_states",
        "index_of", "state_of", "ranks_of", "count_arrays", "tv_distance", "mean_fill",
        "prob_no_available", "prob_saturated",
    ],
    "equilibrium": ["RateRatios", "SolveReport", "MultipleEquilibriaError", "product_form",
                    "solve_equilibrium"],
    "experiments": [
        "ExperimentReport", "derive_seed", "fill_preserving_perturbation",
        "convergence_experiment", "chaos_experiment", "attraction_experiment",
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
    "verify": ["OUTCOMES", "solve_grid", "ITEMS"],
}


def test_public_names_are_pinned_and_resolve():
    # A change to the public API must show up as a change to these lists.
    assert len(PUBLIC) == 32
    # 56 while the checks, the dense generator and the per-rank tables were exported
    assert sum(map(len, MODULE_PUBLIC.values())) == 44
    assert duores.__all__ == PUBLIC
    for name in duores.__all__:
        assert hasattr(duores, name), name
    for mod_name, names in MODULE_PUBLIC.items():
        mod = importlib.import_module(f"duores.{mod_name}")
        assert mod.__all__ == names, f"duores.{mod_name}.__all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"duores.{mod_name}.{name}"


# Each exported callable's parameter names, in order: a new option, or one
# that goes, shows up in this table's diff.  None: an exception class with
# the builtin constructor.  Numerical policy (the solver's fill tolerance,
# the studies' step, solve_grid's residual bound) is the library's
# constants, not parameters.
PARAMETERS = {
    "core.StationState": ["w", "x", "y", "z"],
    "core.ModelParams": ["lam", "mu", "nu", "K"],
    "core.Measure": ["probs", "K"],
    **dict.fromkeys(["core.num_states", "core.enumerate_states", "core.count_arrays"], ["K"]),
    "core.index_of": ["state", "K"],
    "core.state_of": ["rank", "K"],
    "core.ranks_of": ["w", "x", "y", "z", "K"],
    "core.tv_distance": ["m1", "m2"],
    **dict.fromkeys(["core.mean_fill", "core.prob_no_available", "core.prob_saturated"],
                    ["m"]),
    "equilibrium.RateRatios": ["eta1", "rho1", "rho2", "eta2"],
    "equilibrium.SolveReport": ["params", "s_target", "rho", "residuals", "fill_evaluations"],
    "equilibrium.MultipleEquilibriaError": ["K", "s", "nu_over_mu", "pair"],
    "equilibrium.product_form": ["rho", "K"],
    "equilibrium.solve_equilibrium": ["p", "s"],
    **dict.fromkeys(["meanfield.drift", "meanfield.stationarity_residual"], ["m", "p"]),
    "meanfield.integrate": ["m0", "p", "T", "dt"],
    "meanfield.integrate_at": ["m0", "p", "times", "dt_max"],
    "simulate.SimConfig": ["N", "M", "T", "sample_times", "seed"],
    "simulate.SimState": ["w", "x", "y", "z", "pickups", "driving", "t"],
    "simulate.SimInvariantError": None,
    "simulate.init_uniform": ["N", "M", "K", "seed"],
    "simulate.step": ["state", "p", "rng"],
    "simulate.run": ["p", "config", "initial", "audit"],
    "simulate.empirical_measure": ["counts", "K"],
    "experiments.ExperimentReport": ["name", "config", "rows", "metrics", "thresholds",
                                     "passed", "notes"],
    "experiments.derive_seed": ["seed0", "condition", "replica"],
    "experiments.fill_preserving_perturbation": ["m", "size"],
    **dict.fromkeys(["experiments.convergence_experiment", "experiments.chaos_experiment"],
                    ["p", "N_list", "replicas", "T", "sample_times", "seed0", "s", "audit"]),
    "experiments.attraction_experiment": ["p", "perturbation_size", "T", "s"],
    "verify.solve_grid": ["cells"],
    "io.measure_to_csv": ["m", "path"],
    "io.measure_from_csv": ["path"],
    "io.write_timed_measure_csv": ["times", "measures", "path"],
    "io.write_station_trajectory_csv": ["snapshots", "path"],
    "io.write_json": ["obj", "path"],
    "cli.main": ["argv"],
}


def _parameters(obj):
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:  # no signature of its own: an exception's builtin constructor
        return None


def test_each_public_callables_parameters_are_pinned():
    got = {f"{mod_name}.{name}": _parameters(getattr(mod, name))
           for mod_name in MODULE_PUBLIC
           for mod in [importlib.import_module(f"duores.{mod_name}")]
           for name in mod.__all__ if callable(getattr(mod, name))}
    assert got == PARAMETERS
    library = [names for key, names in PARAMETERS.items() if names and key != "cli.main"]
    # 132 while the dense generator and the per-rank tables were exported, 145 while the
    # reduced family was, 150 while the numerical policy was arguments
    assert sum(map(len, library)) == 124
    for name in ("convergence", "chaos", "attraction"):  # a study's checks alone, too
        item = importlib.import_module("duores.verify").ITEMS[name]
        assert _parameters(item.refuse) == _parameters(item)
