"""The layer-measuring script ``tools/layers.py``, imported without
measuring anything."""

import importlib.util
import json
from pathlib import Path

import pytest

import duores
from duores import experiments, verify

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
LAYERS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(LAYERS)


@pytest.fixture(scope="module")
def layers():
    return LAYERS


def test_every_subject_writes_a_committed_bench_file_by_default(layers):
    assert set(layers.SUBJECTS) == {"flow", "simulate", "state_space", "solver_outcomes",
                                    "contract"}
    for measure, repeats, out in layers.SUBJECTS.values():
        assert callable(measure) and (repeats is None or repeats >= 2)
        assert out.startswith("BENCH_") and out.endswith(".json")
        assert (ROOT / out).is_file()


def test_solver_outcomes_takes_its_outcome_names_from_verify(layers, monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "OUTCOMES", ("first", "second"))
    monkeypatch.setattr(verify, "solve_grid", lambda cells: (0.0, {"first": len(cells),
                                                                    "second": 0}))
    out = tmp_path / "outcomes.json"
    kept = {"python": "3", "totals": {"solved": 1}}
    out.write_text(json.dumps({"earlier": kept}))
    assert layers.main(["solver_outcomes", "--label", "fake", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["earlier"] == kept  # the merge leaves other labels alone
    record = data["fake"]
    assert record["totals"] == {"first": 3328, "second": 0}
    assert len(record["cells"]) == 64
    assert all(cell == {"first": 52, "second": 0} for cell in record["cells"].values())


def test_solver_outcomes_times_each_capacity_row(layers, monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "solve_grid", lambda cells: (0.0, {"solved": len(cells)}))
    out = tmp_path / "outcomes.json"
    assert layers.main(["solver_outcomes", "--label", "fake", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["fake"]
    by_K = record["cpu_s_by_K"]
    assert list(by_K) == [str(K) for K in layers.K_VALUES]
    assert all(t >= 0.0 for t in by_K.values())
    assert record["cpu_s"] == pytest.approx(sum(by_K.values()), abs=0.01)


def test_solver_outcomes_takes_no_repeats(layers):
    with pytest.raises(SystemExit):
        layers.main(["solver_outcomes", "--label", "x", "--repeats", "3"])


def test_first_solve_prints_the_solve_time_alone(layers, capsys):
    assert layers.main(["state_space", "--first-solve", "20"]) == 0
    assert float(capsys.readouterr().out) >= 0.0


def test_a_timed_record_scales_each_median_by_the_reference_kernel(layers, tmp_path):
    # each checkout was recorded in its own process at raw CPU times, which
    # a shared machine's drift moved by up to 2x between the records
    out = tmp_path / "flow.json"
    assert layers.main(["flow", "--label", "x", "--repeats", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["x"]
    k = record["reference_s"]
    assert k > 0
    assert {"integrate", "drift_K15", "study_flows_K15_single",
            "study_flows_K15_block"} <= set(record["layers"])
    for layer in record["layers"].values():
        unit = "us" if "median_us" in layer else "ms"  # a drift evaluation in microseconds
        assert layer[f"median_{unit}_at_ref"] == round(
            layer[f"median_{unit}"] * layers.reference.REF_S / k, 3)


@pytest.mark.parametrize("row", LAYERS.CONTRACT, ids=LAYERS.contract_id)
def test_every_contract_row_ends_in_an_answer_or_a_refusal_naming_its_argument(row):
    # the inputs no declaration states: rules across arguments, start
    # states, JSON read-back and domain edges that must answer
    outcome, message = LAYERS.contract_outcome(*row)
    assert outcome == ("answer" if row[3] is None else "named_value_error"), message


@pytest.fixture(scope="module")
def sweep():
    return LAYERS.sweep()


@pytest.mark.parametrize("entry", LAYERS.BASE)
def test_every_draw_of_a_declared_argument_ends_in_an_answer_or_a_named_refusal(sweep, entry):
    # a draw the declaration refuses ends in a ValueError naming the drawn
    # argument, for an entry with a hand-written guard too, and such a guard
    # refuses no other draw as out of the argument's own domain; any other
    # draw ends in an answer, such a refusal or a named RuntimeError subclass
    rows = [row for row in sweep if row[0] == entry]
    assert {row[1] for row in rows} == set(LAYERS._entry(entry).__domain__)
    assert [row for row in rows if LAYERS.sweep_unexpected(row)] == []


def test_the_sweep_covers_every_declared_entry_and_its_known_draws_still_end_otherwise(sweep):
    public = {f"{m}.{n}" for m in ("core", "equilibrium", "meanfield", "simulate", "experiments",
                                   "verify")
              for n in getattr(duores, m).__all__
              if hasattr(getattr(getattr(duores, m), n), "__domain__")}
    swept = {f"{LAYERS._entry(e).__module__.split('.')[-1]}.{LAYERS._entry(e).__qualname__}"
             for e in LAYERS.BASE}
    assert public <= swept
    for known in LAYERS.KNOWN_OTHER:  # the list holds no draw that has come to end as due
        assert any(row[:3] == known and row[4] == "other" for row in sweep), known


# (entry, argument, draw) of each CONTRACT row the sweep replaced
REMOVED = [
    ("product_form", "K", "fraction"), ("RateRatios", "eta1", "nan"),
    ("num_states", "K", "fraction"), ("num_states", "K", "negative"),
    ("Measure.uniform", "K", "fraction"), ("index_of", "K", "fraction"),
    ("state_of", "rank", "fraction"), ("init_uniform", "N", "zero"),
    ("init_uniform", "M", "negative"), ("empirical_measure", "counts", "empty"), ("chaos_experiment", "N_list", "entry integer"),
    ("integrate", "T", "negative"), ("convergence_experiment", "s", "nan"),
    ("convergence_experiment", "replicas", "fraction"),
    ("chaos_experiment", "T", "nan"), ("experiments.derive_seed", "seed0", "fraction"),
    ("attraction_experiment", "perturbation_size", "nan"),
    ("index_of", "state", "entry fraction"), ("SimConfig", "seed", "fraction"),
    ("SimConfig", "seed", "negative"), ("init_uniform", "seed", "fraction"),
    ("init_uniform", "seed", "negative"), ("solve_equilibrium", "s", "string"),
    ("convergence_experiment", "N_list", "non-sequence"),
    ("chaos_experiment", "N_list", "non-sequence"),
    ("convergence_experiment", "sample_times", "non-sequence"),
    ("chaos_experiment", "sample_times", "non-sequence"), ("SimConfig", "sample_times", "non-sequence"),
    ("integrate_at", "times", "non-sequence"),
]


@pytest.mark.parametrize("entry, arg, label", REMOVED, ids=[" ".join(r) for r in REMOVED])
def test_each_removed_contract_row_is_reproduced_by_a_sweep_draw(sweep, entry, arg, label):
    assert any(row[:3] == (entry, arg, label) and row[4] == "named_value_error" for row in sweep)


@pytest.mark.parametrize("entry", ["convergence_experiment", "chaos_experiment"])
def test_a_study_refuses_a_fill_its_networks_cannot_hold_by_name(sweep, entry):
    # s = 1e300 at K = 2 was answered by .refuse, and the run failed in init_uniform
    (row,) = [row for row in sweep if row[:3] == (entry, "s", "huge")]
    assert row[4] == "named_value_error" and row[5].startswith("ValueError: s=1e+300 puts")


def test_staged_items_refuse_every_draw_before_any_run_stream_or_solve(monkeypatch):
    # the attraction item's start solve is part of its refusal
    calls, outcome = [], LAYERS.sweep_outcome
    for mod in (experiments, verify):
        for name in ("run", "_stream", "solve_equilibrium", "integrate_at"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, lambda *a, _n=name, **k: calls.append(_n))

    def watched(entry, arg, value):
        calls.clear()
        ended = outcome(entry, arg, value)
        if hasattr(LAYERS._entry(entry), "refuse"):
            allowed = ["solve_equilibrium"] if entry == "attraction_experiment" else []
            assert calls in ([], allowed), (entry, arg, value)
        return ended

    monkeypatch.setattr(LAYERS, "sweep_outcome", watched)
    assert LAYERS.sweep()


def test_contract_records_the_sweep_and_the_kept_rows(layers, tmp_path):
    out = tmp_path / "contract.json"
    assert layers.main(["contract", "--label", "x", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["x"]
    assert record["rows"] == len(layers.CONTRACT) == sum(record["totals"].values())
    assert sum(sum(c.values()) for c in record["entries"].values()) == record["rows"]
    assert record["unexpected"] == []
    swept = record["sweep"]
    assert swept["unexpected"] == []
    assert swept["draws"] == sum(swept["totals"].values()) == sum(
        sum(c.values()) for c in swept["entries"].values())
    assert swept["totals"]["other"] == len(layers.KNOWN_OTHER)
    # only sizes are kept from their large magnitude: the step and event
    # budgets refuse a large time or a tiny step by name
    assert layers.NOT_DRAWN_LARGE == dict.fromkeys(layers.SIZES, 1e300)
    assert swept["not_drawn_large"]["ModelParams"] == {"K": 1e300}
    assert "integrate" not in swept["not_drawn_large"]
    assert swept["not_drawn_large"]["convergence_experiment"] == {
        "N_list": 1e300, "replicas": 1e300}
