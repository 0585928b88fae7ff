"""Experiment harness: seed derivation, the fill-preserving
perturbation, and small-scale runs of each study."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from duores import core, experiments, meanfield
from duores.core import (
    MAX_STATES,
    Measure,
    ModelParams,
    _budgeted_pairs,
    count_arrays,
    enumerate_states,
    index_of,
    mean_fill,
    num_states,
    tv_distance,
)
from duores.equilibrium import product_form, solve_equilibrium
from duores.experiments import (
    attraction_experiment,
    chaos_experiment,
    convergence_experiment,
    derive_seed,
    fill_preserving_perturbation,
)
from duores.simulate import SimConfig, _rank_counts, empirical_measure, run


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(7, 50, 3) == derive_seed(7, 50, 3)
    seen = {derive_seed(7, n, r) for n in (10, 50) for r in range(5)}
    assert len(seen) == 10
    assert derive_seed(8, 10, 0) != derive_seed(7, 10, 0)


# ------------------------------------------------------------
# Fill-preserving perturbation
# ------------------------------------------------------------

def _random_measure(K, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(num_states(K)))
    return Measure(p / p.sum(), K)


def _fill_histogram(m: Measure) -> np.ndarray:
    _, x, y, z = count_arrays(m.K)
    fills = x + y + z
    return np.bincount(fills, weights=m.probs, minlength=m.K + 1)


@pytest.mark.parametrize("K", [2, 3])
def test_perturbation_preserves_reservation_means_and_fill(K):
    m = _random_measure(K, 900 + K)
    pert = fill_preserving_perturbation(m, 0.05)
    w = np.array([s.w for s in enumerate_states(K)], dtype=float)
    z = np.array([s.z for s in enumerate_states(K)], dtype=float)
    assert abs(w @ pert.probs - w @ m.probs) < 1e-14
    assert abs(z @ pert.probs - z @ m.probs) < 1e-14
    assert abs(mean_fill(pert) - mean_fill(m)) < 1e-13
    # the whole distribution of the fill is untouched, not just its mean
    assert np.max(np.abs(_fill_histogram(pert) - _fill_histogram(m))) < 1e-14


def test_perturbation_hits_the_requested_distance():
    p = ModelParams(lam=1.0, mu=1.0, nu=10.0, K=3)
    pi = product_form(solve_equilibrium(p, 1.5).rho, 3)
    for size in (0.01, 0.1):
        pert = fill_preserving_perturbation(pi, size)
        assert abs(tv_distance(pert, pi) - size) < 1e-12


def test_perturbation_edge_cases():
    m = _random_measure(2, 33)
    assert fill_preserving_perturbation(m, 0.0) is m
    with pytest.raises(ValueError):
        fill_preserving_perturbation(m, -0.1)
    # NaN fails every comparison and returned the full rotation
    with pytest.raises(ValueError, match="size must be >= 0, got nan"):
        fill_preserving_perturbation(m, float("nan"))
    # the uniform measure is invariant under every rotation within a class
    u = Measure.uniform(1)
    assert fill_preserving_perturbation(u, 0.2) is u


def _rolled_per_class(m: Measure, size: float) -> Measure:
    """The perturbation as first written: one ``np.roll`` per class of
    equal ``(w, z, x + y)``, each class in enumeration order."""
    classes = {}
    for r, s in enumerate(enumerate_states(m.K)):
        classes.setdefault((s.w, s.z, s.x + s.y), []).append(r)
    shifted = np.array(m.probs, copy=True)
    for cls in classes.values():
        shifted[cls] = np.roll(m.probs[cls], 1)
    full = 0.5 * float(np.abs(shifted - m.probs).sum())
    if full == 0.0 or size == 0.0:
        return m
    kappa = min(1.0, size / full)
    return Measure((1.0 - kappa) * m.probs + kappa * shifted, m.K)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6, 7, 8, 15])
def test_perturbation_is_bit_equal_to_the_per_class_roll(K):
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=K)
    pi = product_form(solve_equilibrium(p, K / 2).rho, K)
    for m in (_random_measure(K, 950 + K), pi):
        for size in (0.01, 0.1, 10.0):  # 10 is beyond reach: the full rotation
            got = fill_preserving_perturbation(m, size)
            assert np.array_equal(got.probs, _rolled_per_class(m, size).probs)


def test_shift_permutation_is_a_cached_read_only_permutation():
    perm = experiments._shift_permutation(6)
    assert perm is experiments._shift_permutation(6)
    assert np.array_equal(np.sort(perm), np.arange(num_states(6)))
    with pytest.raises(ValueError):
        perm[0] = 1


# ------------------------------------------------------------
# Studies at toy scale
# ------------------------------------------------------------

_P = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)


def test_convergence_report_structure_and_determinism():
    kwargs = dict(N_list=[4, 8], replicas=4, T=1.0,
                  sample_times=(0.0, 0.5, 1.0), seed0=5, s=1.0)
    rep1 = convergence_experiment(_P, **kwargs)
    rep2 = convergence_experiment(_P, **kwargs)
    assert rep1.to_dict() == rep2.to_dict()
    assert [row["N"] for row in rep1.rows] == [4, 8]
    assert rep1.rows[0]["M"] == 4
    # flow starts from the realized initial empirical measure
    for row in rep1.rows:
        assert row["tv"][0] == [0.0, 0.0]
    json.dumps(rep1.to_dict())


def test_chaos_report_marginal_consistency():
    rep = chaos_experiment(_P, N_list=[4, 8], replicas=4, T=1.0,
                           sample_times=(0.5, 1.0), seed0=5, s=1.0)
    assert rep.metrics["marginal_err_max"] < 1e-12
    assert len(rep.rows) == 2
    json.dumps(rep.to_dict())


def test_attraction_toy_run_passes():
    p = ModelParams(lam=1.0, mu=1.0, nu=10.0, K=2)
    rep = attraction_experiment(p, 0.05, 20.0, s=1.0)
    assert rep.passed
    assert abs(rep.metrics["initial_tv"] - 0.05) < 1e-12
    assert rep.metrics["final_tv"] < 1e-4
    assert rep.metrics["fill_drift"] <= 1e-9
    assert rep.rows[0]["t"] == 0.0
    assert rep.rows[-1]["t"] == 20.0
    json.dumps(rep.to_dict())


def test_attraction_memory_does_not_grow_with_the_horizon():
    # One Measure per step was kept, with a TV and a fill per step.
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=6)

    def peak(T):
        tracemalloc.start()
        try:
            attraction_experiment(p, 0.1, T, s=3.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0)  # builds the per-capacity caches
    assert peak(32.0) <= 1.25 * peak(8.0)


@pytest.mark.parametrize("kw, named", [
    (dict(T=float("nan")), "^T must be finite and >= 0, got nan$"),
    (dict(T=float("inf")), "^T must be finite and >= 0, got inf$"),
    (dict(s=float("nan")), "^s must be finite and > 0, got nan$"),
    (dict(perturbation_size=float("nan")), "^perturbation_size must be >= 0, got nan$"),
    (dict(s=5.0), r"^s must lie in \(0, K\) = \(0, 2\), got 5\.0$"),
])
def test_attraction_checks_its_numbers_before_solving(monkeypatch, kw, named):
    # a NaN T was refused only after a full solve, and a bad s was
    # reported in its place
    solves = []
    monkeypatch.setattr(experiments, "solve_equilibrium", lambda *a, **k: solves.append(a))
    args = {"perturbation_size": 0.1, "T": 1.0, "s": 1.0, **kw}
    with pytest.raises(ValueError, match=named):
        attraction_experiment(_P, args.pop("perturbation_size"), args.pop("T"), **args)
    assert solves == []


# each study, a cheap valid call of it, and the report key of its step
_STUDIES = {
    "convergence": (convergence_experiment, (_P, [4, 8], 1, 1.0, (1.0,), 5), "dt_max"),
    "chaos": (chaos_experiment, (_P, [4, 8], 1, 1.0, (1.0,), 5), "dt_max"),
    "attraction": (attraction_experiment, (_P, 0.1, 1.0), "dt"),
}


@pytest.mark.parametrize("name", _STUDIES)
def test_a_removed_step_is_refused_by_name_and_reported_at_the_default_step(name):
    study, args, key = _STUDIES[name]
    for entry in (study, study.refuse):
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{key}'"):
            entry(*args, s=1.0, **{key: 0.01})
    assert study(*args, s=1.0).config[key] == 0.25 / _P.rate_bound == 0.25 / 7


@pytest.mark.parametrize("name", _STUDIES)
def test_a_study_s_work_reports_the_same_each_time_it_runs(name):
    # the attraction study built its lazy plan of steps once, in its
    # checks: a second call of the work found it spent and reported one
    # row, the start's distance and a failed verdict
    study, args, _ = _STUDIES[name]
    work = study.refuse(*args, s=1.0)
    first = json.dumps(work().to_dict())
    assert json.dumps(work().to_dict()) == first


@pytest.mark.parametrize("name", _STUDIES)
def test_a_rate_bound_that_overflows_is_refused_by_name_before_any_run_or_solve(
        monkeypatch, name):
    # the step 0.25 / inf was 0: the replica studies accepted it and their
    # runs ended in an IndexError, and attraction refused a dt never given
    calls = []
    for fn in ("run", "init_uniform", "solve_equilibrium", "integrate_at", "_stream"):
        monkeypatch.setattr(experiments, fn, lambda *a, _n=fn, **k: calls.append(_n))
    study, args, _ = _STUDIES[name]
    overflow = ModelParams(lam=1e308, mu=1e308, nu=1e308, K=3)
    with pytest.raises(ValueError, match=r"^the rate bound lam \+ nu K \+ mu K at "
                       r"lam=1e\+308, nu=1e\+308, mu=1e\+308, K=3 is not finite"):
        study.refuse(overflow, *args[1:], s=1.0)
    assert calls == []


# ------------------------------------------------------------
# Pair tables of the chaos study
# ------------------------------------------------------------

def _pair_table(counts, K):
    """The chaos study's pair table of one snapshot ``counts``."""
    n = _budgeted_pairs(K, "pair statistics")
    return experiments._pair_table(_rank_counts(counts, K, n), len(counts))


def test_pair_table_two_distinct_stations():
    counts = np.array([[0, 0, 1, 0], [0, 0, 0, 0]], dtype=np.int64)
    joint = _pair_table(counts, 1)
    a = index_of((0, 0, 1, 0), 1)
    b = index_of((0, 0, 0, 0), 1)
    assert joint[a, b] == 0.5 and joint[b, a] == 0.5
    assert joint[a, a] == 0.0 and joint[b, b] == 0.0


def test_pair_table_two_equal_stations():
    counts = np.array([[0, 0, 1, 0], [0, 0, 1, 0]], dtype=np.int64)
    joint = _pair_table(counts, 1)
    r = index_of((0, 0, 1, 0), 1)
    assert joint[r, r] == 1.0
    assert joint.sum() == 1.0


@pytest.mark.parametrize("K", [12, 20])
def test_pair_tables_above_the_state_budget_are_refused_before_allocation(K):
    # n^2 entries above MAX_STATES (K >= 12); the dense tables at K=20 would take ~2.7 GB
    n = num_states(K)
    assert n * n > MAX_STATES >= num_states(11) ** 2
    counts = np.zeros((4, 4), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"K={K} need n\^2={n * n} entries, above "
                                             rf"the state budget MAX_STATES={MAX_STATES}"):
            _pair_table(counts, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pair_table_marginals_match_exactly():
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=2)
    cfg = SimConfig(N=60, M=60, T=3.0, sample_times=(3.0,), seed=21)
    (_, counts), = run(p, cfg)
    joint = _pair_table(counts, 2)
    emp = empirical_measure(counts, 2).probs
    assert np.max(np.abs(joint.sum(axis=0) - emp)) < 1e-14
    assert np.max(np.abs(joint.sum(axis=1) - emp)) < 1e-14
    assert np.max(np.abs(joint - joint.T)) == 0.0
    assert abs(joint.sum() - 1.0) < 1e-12


def test_chaos_refuses_a_pair_table_above_the_budget_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulator ran before the pair budget was checked")

    monkeypatch.setattr(experiments, "run", no_run)
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=12)
    with pytest.raises(ValueError, match=r"K=12 need n\^2=3312400 entries"):
        chaos_experiment(p, N_list=[4, 8], replicas=1, T=1.0, sample_times=(1.0,),
                         seed0=5, s=1.0)


def test_chaos_memory_does_not_grow_with_the_sample_times():
    # One pair table per sample time was kept until the study ended: at
    # K=8 (2 MB per table) the traced peak was 10, 21 and 36 MB at 1, 4
    # and 8 sample times.
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=8)

    def peak(n_times):
        times = tuple(0.25 * (k + 1) for k in range(n_times))
        tracemalloc.start()
        try:
            chaos_experiment(p, N_list=[10, 20], replicas=1, T=times[-1], sample_times=times,
                             seed0=5, s=4.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # builds the per-capacity caches
    assert peak(8) <= 1.25 * peak(1)


# Golden digests of ``json.dumps(report.to_dict(), sort_keys=True)``,
# taken at commit 67d531f before the two studies shared one replica loop.
@pytest.mark.parametrize("study, sample_times, digest", [
    (convergence_experiment, (0.0, 0.5, 1.0),
     "8494f9183fb3da349380e0c7d0f132204df7adb76df975713d22d280144dcf95"),
    (chaos_experiment, (0.5, 1.0),
     "68d7e37b5efb650bf46f1ec24919934f235e18190b91f71a53f0968760fed36e"),
], ids=["convergence", "chaos"])
def test_study_reports_match_their_golden_digests(study, sample_times, digest):
    rep = study(_P, N_list=[4, 8], replicas=4, T=1.0, sample_times=sample_times,
                seed0=5, s=1.0)
    blob = json.dumps(rep.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


_STUDY_KW = dict(N_list=[4, 8], replicas=1, T=1.0, sample_times=(1.0,), seed0=5, s=1.0)
_NOTHING_MOVES = (r"^s={s} puts round\(N s\) = {cars} cars on N=4 stations of capacity K=2; "
                  r"with no car or no free space nothing moves, so the study has nothing "
                  r"to converge$")


@pytest.mark.parametrize("study, kw, named", [
    (convergence_experiment, dict(replicas=0), "replicas must be >= 1"),
    (convergence_experiment, dict(N_list=[]), "N_list must hold at least two sizes"),
    (convergence_experiment, dict(N_list=[4]), "N_list must hold at least two sizes"),
    (chaos_experiment, dict(N_list=[]), "N_list must hold at least one network size"),
    (convergence_experiment, dict(N_list=[0, 4]), "every N in N_list must be >= 1, got 0"),
    (chaos_experiment, dict(N_list=[1, 4]), "every N in N_list must be >= 2, got 1"),
    (chaos_experiment, dict(sample_times=()), "sample_times must hold at least one time"),
    (convergence_experiment, dict(N_list=5), "N_list must be a sequence of network sizes, got 5"),
    (chaos_experiment, dict(N_list=5), "N_list must be a sequence of network sizes, got 5"),
    (convergence_experiment, dict(sample_times=0.5), "sample_times must be a sequence of times"),
    (chaos_experiment, dict(sample_times=0.5), "sample_times must be a sequence of times"),
    # a fill no network of the size can hold: refused only as the study ran, by
    # init_uniform's "cannot place M=20 cars on N=4 stations of capacity K=2"
    (convergence_experiment, dict(s=5.0), r"^s=5\.0 puts round\(N s\) cars on N=4 stations"),
    (chaos_experiment, dict(s=2.1),  # 8 cars fit N = 4, 17 do not fit N = 8
     r"^s=2\.1 puts round\(N s\) cars on N=8 stations of capacity K=2, more than N K = 16$"),
    (convergence_experiment, dict(s=1e308), r"^s=1e\+308 puts round\(N s\) cars on N=4"),  # N s = inf
    # no car, every space taken, and 0.1 that puts no car on N = 4: nothing
    # moves, convergence printed a divide-by-zero warning and reported slope
    # nan, and chaos failed the same way
    *((study, dict(s=s), _NOTHING_MOVES.format(s=s, cars=cars))
      for study in (convergence_experiment, chaos_experiment)
      for s, cars in ((0.0, 0), (2.0, 8), (0.1, 0))),
    # sizes out of order: [40, 10] failed the decrease check that [10, 40]
    # passed on the same runs, and [10, 10] fit a slope to one size twice
    # under numpy's RankWarning
    *((study, dict(N_list=N_list), rf"^N_list must be strictly increasing, got \[{shown}\]$")
      for study in (convergence_experiment, chaos_experiment)
      for N_list, shown in (([40, 10], "40, 10"), ([10, 10], "10, 10"), ([4, 8, 6], "4, 8, 6"))),
    # chaos with one size reported strictly_decreasing: True over one value
    (chaos_experiment, dict(N_list=[4]),
     r"^N_list must hold at least two sizes to judge a decrease in N, got 1$"),
    # nothing moves before the last sample time: at lam = 0 chaos passed on
    # the initial placement alone, and convergence, there and at a last
    # sample time of 0, fit its slope to distances of 0 and reported nan
    *((study, kw, named) for study in (convergence_experiment, chaos_experiment)
      for kw, named in (
          (dict(p=ModelParams(lam=0.0, mu=1.0, nu=2.0, K=2)),
           r"^lam=0\.0 requests no trip: nothing moves, so the study has nothing to converge$"),
          (dict(sample_times=(0.0,)), r"^sample_times end at 0, before any event: nothing "
           r"moves, so the study has nothing to converge$"),
          (dict(sample_times=(0.0, 0.0)), r"^sample_times end at 0, before any event"))),
])
def test_studies_refuse_degenerate_inputs_before_any_run(monkeypatch, study, kw, named):
    # replicas=0 read "non-finite mass nan"; an empty N_list was a polyfit
    # TypeError; one N fit a slope to one point; chaos at N=1 divided by
    # N(N-1) = 0 and reported marginal_err_max = 0.0; a number for N_list
    # or sample_times ended in an unnamed TypeError.
    def no_run(*args, **kwargs):
        raise AssertionError("the simulator or the flow ran before the inputs were checked")

    monkeypatch.setattr(experiments, "run", no_run)
    monkeypatch.setattr(meanfield, "_rk4", no_run)
    monkeypatch.setattr(meanfield, "_aligned_rows", no_run)
    with pytest.raises(ValueError, match=named):
        study(**{"p": _P, **_STUDY_KW, **kw})


@pytest.mark.parametrize("name", ["convergence", "chaos"])
def test_a_replica_study_counts_its_flow_as_integrate_at_does_before_any_run(monkeypatch,
                                                                              name):
    # the budget read sample_times[-1] / dt_max: 11 one-step segments
    # passed as 0.3 steps, and 3 kept rows were not counted at all
    for fn in (experiments, "run"), (meanfield, "_rk4"), (meanfield, "_aligned_rows"):
        monkeypatch.setattr(*fn, lambda *a, **k: pytest.fail("a run or a step started"))
    study = _STUDIES[name][0]
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 256)  # 128 bytes a row at K = 2
    with pytest.raises(ValueError, match=r"^sample_times / dt_max = 1\.0 / 0\.0357\d* keeps "
                       r"3 states of 15 masses, 384 bytes, above the kept-state budget "
                       r"MAX_KEPT_BYTES=256$"):
        study.refuse(_P, [4, 8], 1, 1.0, (0.5, 0.75, 1.0), 5, s=1.0)
    monkeypatch.setattr(meanfield, "MAX_STEPS", 10)
    with pytest.raises(ValueError, match=r"^sample_times / dt_max = 0\.011 / 0\.0357\d* asks "
                       r"for 11 steps, above the step budget MAX_STEPS=10$"):
        study.refuse(_P, [4, 8], 1, 1.0, tuple(0.001 * k for k in range(1, 12)), 5, s=1.0)


_NEAR = ModelParams(lam=1e307, mu=1e307, nu=1e307, K=3)  # rate bound 7e307: a subnormal step


@pytest.mark.parametrize("name", _STUDIES)
def test_a_flow_above_the_step_budget_is_refused_by_name_before_any_run_or_solve(
        monkeypatch, name):
    # the default step 0.25 / 7e307 is subnormal: attraction's .refuse ended
    # in an OverflowError, and the replica studies passed .refuse and ran
    calls = []
    for fn in ("run", "init_uniform", "solve_equilibrium", "integrate_at", "_stream"):
        monkeypatch.setattr(experiments, fn, lambda *a, _n=fn, **k: calls.append(_n))
    study, args, _ = _STUDIES[name]
    span = "T / dt" if name == "attraction" else "sample_times / dt_max"
    dt = 0.25 / _NEAR.rate_bound
    with pytest.raises(ValueError, match=rf"^{span} = 1\.0 / {dt!r} asks for inf steps, "
                       r"above the step budget MAX_STEPS=1000000$"):
        study.refuse(_NEAR, *args[1:], s=1.5)
    assert calls == []


@pytest.mark.parametrize("name", ["convergence", "chaos"])
def test_a_replica_study_refuses_a_run_above_the_event_budget_before_any_run(monkeypatch, name):
    # each N is checked: N = 1000 asks for (1000 lam + 1500) 200, about 2e8 events
    calls = []
    for fn in ("run", "init_uniform", "integrate_at"):
        monkeypatch.setattr(experiments, fn, lambda *a, _n=fn, **k: calls.append(_n))
    study = _STUDIES[name][0]
    p = ModelParams(lam=1000.0, mu=1.0, nu=1.0, K=3)
    with pytest.raises(ValueError, match=r"^the rate bound lam N \+ max\(nu, mu\) M at "
                       r"lam=1000\.0, nu=1\.0, mu=1\.0, N=1000, M=1500 allows 2e\+08 events "
                       r"by the last sample time 200\.0, above the event budget "
                       r"MAX_EVENTS=100000000$"):
        study.refuse(p, [4, 1000], 1, 200.0, (200.0,), 5, s=1.5)
    assert calls == []


@pytest.mark.parametrize("name", ["convergence", "chaos"])
def test_a_replica_study_refuses_a_run_above_the_kept_budget_before_any_run(monkeypatch, name):
    # each N is checked as run checks it from the study's placement: N = 4
    # with 4 cars and 2 snapshots keeps 427 328 bytes, and N = 8 with 8 cars
    # 428 224
    for fn in ("run", "init_uniform", "integrate_at"):
        monkeypatch.setattr(experiments, fn, lambda *a, **k: pytest.fail("a run came first"))
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 428_223)
    with pytest.raises(ValueError, match=r"^N=8 stations, M=8 cars and 2 sample_times keep their "
                       r"counts, 428224 bytes, above the kept-state budget MAX_KEPT_BYTES=428223$"):
        _STUDIES[name][0].refuse(_P, [4, 8], 1, 1.0, (0.5, 1.0), 5, s=1.0)


@pytest.mark.parametrize("name", ["convergence", "chaos"])
def test_a_replica_study_refuses_its_flows_and_placements_above_the_kept_budget(monkeypatch,
                                                                                name):
    # every size is placed before any run, and each placement is held with
    # the block of every size's flow through all the runs: at K = 2, two
    # sizes at 3 sample_times keep 6 rows of 128 bytes, and 12 stations 32
    # bytes each
    for fn in (experiments, "run"), (experiments, "init_uniform"), (meanfield, "_rk4"):
        monkeypatch.setattr(*fn, lambda *a, **k: pytest.fail("a run, placement or step came first"))
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 1151)
    with pytest.raises(ValueError, match=r"^N_list=\[4, 8\] holds its placements of 12 stations "
                       r"and its flows' 6 states of 15 masses, 1152 bytes, above the kept-state "
                       r"budget MAX_KEPT_BYTES=1151$"):
        _STUDIES[name][0].refuse(_P, [4, 8], 1, 1.0, (0.5, 0.75, 1.0), 5, s=1.0)


def test_a_replica_study_places_every_size_then_runs_all_its_flows_as_one_block(monkeypatch):
    # each size's flow was a run of its own, between its placement and its
    # replicas; the placements draw from their own seeds, so the runs and
    # the report keep their bits
    calls = []
    for name in ("init_uniform", "_flows_at", "run"):
        fn = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
    convergence_experiment(_P, [4, 8], 2, 1.0, (0.5, 1.0), 5, s=1.0)
    assert calls == ["init_uniform"] * 2 + ["_flows_at"] + ["run"] * 4


def test_chaos_refuses_rank_counts_above_the_kept_budget_before_any_run(monkeypatch):
    # every replica's counts at every sample time were kept unbudgeted: at
    # K = 11, 1000 replicas and 1000 sample times hold 10.9 GB
    for fn in (experiments, "run"), (experiments, "init_uniform"), (meanfield, "_rk4"):
        monkeypatch.setattr(*fn, lambda *a, **k: pytest.fail("a run or a step came first"))
    p = ModelParams(lam=1.0, mu=1.0, nu=2.0, K=11)
    with pytest.raises(ValueError, match=r"^replicas=1000 and 1000 sample_times keep rank counts "
                       r"over 1365 states at K=11, 10920000000 bytes, above the kept-state "
                       r"budget MAX_KEPT_BYTES=1073741824$"):
        chaos_experiment(p, [10, 20], 1000, 1.0, np.linspace(1e-3, 1.0, 1000), 5, s=5.0)
    monkeypatch.setattr(core, "MAX_KEPT_BYTES", 8 * 2 * 3 * 15 - 1)  # K = 2: 15 states
    with pytest.raises(ValueError, match=r"^replicas=2 and 3 sample_times keep rank counts"):
        chaos_experiment.refuse(_P, [4, 8], 2, 1.0, (0.25, 0.5, 1.0), 5, s=1.0)


def test_a_replica_study_ranks_each_snapshot_once(monkeypatch):
    # each snapshot went through empirical_measure and, with pairs, through
    # _rank_counts again; the initial placement keeps its empirical_measure
    ranked, measured = [], []
    rank, measure = experiments._rank_counts, experiments.empirical_measure
    monkeypatch.setattr(experiments, "_rank_counts",
                        lambda *a: ranked.append(a[0].shape) or rank(*a))
    monkeypatch.setattr(experiments, "empirical_measure",
                        lambda *a: measured.append(a[0].shape) or measure(*a))
    chaos_experiment(_P, [4, 8], 2, 1.0, (0.5, 1.0), 5, s=1.0)
    assert measured == [(4, 4), (8, 4)]
    assert ranked == [(4, 4)] * 4 + [(8, 4)] * 4
