"""Tests of the benchmark's own logic: ``python3 -m pytest bench``."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import REF_S, Pace, at_reference  # noqa: E402
from summary import Tally, beyond, percentile, tail_percentile  # noqa: E402
from tracing import Tracer, TracerError, span_totals  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert beyond(100, 900) == 10
    assert tail_percentile(100) == 90
    assert tail_percentile(245) == 95  # sweep's solves per run
    assert tail_percentile(99) == 50
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None
    assert tail_percentile(1000) == 99
    assert tail_percentile(10_000) == 99.9


def test_percentile_interpolates_order_statistics():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert percentile(range(1, 102), 90) == pytest.approx(91.0)
    assert percentile([7.0], 90) == 7.0


def test_times_scale_to_the_reference_kernel_speed():
    assert at_reference(3.0, REF_S) == 3.0
    assert at_reference(3.0, 2 * REF_S) == pytest.approx(1.5)
    pace = Pace(every_s=3600.0)
    assert pace() == pace() == 0
    assert len(pace.samples) == 1 and pace.spent == pace.samples[0] > 0.0
    always = Pace(every_s=0.0)
    assert (always(), always()) == (0, 1)
    with always.held():
        assert always() == 1
    always.samples = [0.01, 0.03]
    assert always.around(0) == pytest.approx(0.02)
    assert always.around(1) == 0.03


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("d", 2.0, 3.0, 1, 1),
        ("c", 5.0, 6.0, 0, 1),
        ("b", 20.0, 22.0, -1, 2),
    ]
    t = span_totals(spans)
    assert t["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert t["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert t["c"]["self_s"] == t["d"]["self_s"] == 1.0


def test_wrapped_calls_nest_and_share_an_operation_id():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    ns.leaf = lambda: None
    tracer = Tracer()
    targets = [(ns, "outer", "outer", False), (ns, "inner", "inner", False),
               (ns, "leaf", "leaf", True)]
    original = ns.inner
    with tracer.installed(targets):
        assert ns.outer(1) == 4
        assert ns.outer(2) == 6
        ns.leaf()
    assert ns.inner is original
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    ops = [s[4] for s in tracer.spans]
    assert names == ["outer", "inner", "outer", "inner"]
    assert parents == [-1, 0, -1, 2]
    assert ops[0] == ops[1] != ops[2] == ops[3]
    assert tracer.counts == {"leaf": 1}


def test_tracer_refuses_a_missing_target_and_restores_the_rest():
    ns = types.SimpleNamespace(present=lambda: 1)
    original = ns.present
    with pytest.raises(TracerError, match="nope"):
        with Tracer().installed([(ns, "present", "p", False), (ns, "nope", "n", False)]):
            pass
    assert ns.present is original


def test_every_wrap_target_exists_in_the_package():
    for cls in workloads.WORKLOADS.values():
        for owner, attr, _, _ in cls.targets():
            assert callable(getattr(owner, attr, None)), f"{cls.name}: {attr}"


def test_tally_counts_raises_and_check_failures_as_failed():
    tally = Tally()
    tally.ok("a")
    tally.raised("b", RuntimeError("fill bisection did not converge"))
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.check_failed("c", "residual 1e-3 > 1e-10")
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, False)
    assert tally.fail_ratio == pytest.approx(2 / 3)
    tally.incorrect("replay mismatch")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert Tally().fail_ratio == 0.0


def test_tally_counts_a_repeated_operation_once():
    tally = Tally()
    for _ in range(3):
        tally.ok("a")
        tally.raised("b", RuntimeError("fill bisection did not converge"))
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    assert tally.errors == {"RuntimeError: fill bisection did not converge": 1}
    tally.raised("a", RuntimeError("flaky"))
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
    assert "repeat" in tally.check_failures[0]


def test_step_replay_matches_run_and_catches_a_tampered_snapshot():
    from duores import core, simulate
    p = core.ModelParams(lam=1.0, mu=1.0, nu=2.0, K=3)
    init = simulate.init_uniform(30, 45, 3, seed=0)
    cfg = simulate.SimConfig(N=30, M=45, T=4.0, sample_times=(0.0, 1.0, 2.5, 4.0), seed=3)
    snaps = simulate.run(p, cfg, initial=init)
    counts, mismatch = workloads.replay_events(p, cfg, init, snaps)
    assert mismatch is None
    assert counts["arrival"] > 0 and counts["pickup"] > 0 and counts["return"] > 0
    assert workloads.check_snapshots(snaps, cfg.sample_times, 45, 3) is None

    station = int(np.argmax(snaps[2][1][:, 2]))  # one with a parked car
    reserved = [(t, c.copy()) for t, c in snaps]
    reserved[2][1][station, 2:] += (-1, 1)  # a valid state run never reached
    assert workloads.check_snapshots(reserved, cfg.sample_times, 45, 3) is None
    assert "t=2.5" in workloads.replay_events(p, cfg, init, reserved)[1]

    lost = [(t, c.copy()) for t, c in snaps]
    lost[2][1][station, 2] -= 1
    assert "cars" in workloads.check_snapshots(lost, cfg.sample_times, 45, 3)


def test_sweep_pass_covers_every_cell_once():
    sweep = workloads.Sweep(7)
    cells = set()
    n = sweep.STRATA
    for K, s, nu in sweep.draws:
        i = int((s / K - 0.1) / 0.8 * n)
        j = int((np.log10(nu) + 1.0) / 3.0 * n)
        cells.add((K, i, j))
    assert len(cells) == len(sweep.draws) == len(sweep.K_VALUES) * n * n
    assert sweep.draws == workloads.Sweep.make_draws(7) != workloads.Sweep.make_draws(8)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
