"""The layer-measuring script ``tools/layers.py``, imported without
measuring anything."""

import importlib.util
import json
from pathlib import Path

import pytest

from duores import verify

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
    monkeypatch.setattr(verify, "solve_grid", lambda cells, tol: (0.0, {"first": len(cells),
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


def test_solver_outcomes_takes_no_repeats(layers):
    with pytest.raises(SystemExit):
        layers.main(["solver_outcomes", "--label", "x", "--repeats", "3"])


def test_first_solve_prints_the_solve_time_alone(layers, capsys):
    assert layers.main(["state_space", "--first-solve", "20"]) == 0
    assert float(capsys.readouterr().out) >= 0.0


@pytest.mark.parametrize("row", LAYERS.CONTRACT, ids=LAYERS.contract_id)
def test_every_contract_row_ends_in_an_answer_or_a_refusal_naming_its_argument(row):
    # one row per input that was accepted silently or failed with an
    # internal error, and per refusal no other test pins
    outcome, message = LAYERS.contract_outcome(*row)
    assert outcome == ("answer" if row[3] is None else "named_value_error"), message


def test_contract_counts_every_row_under_its_entry(layers, tmp_path):
    out = tmp_path / "contract.json"
    assert layers.main(["contract", "--label", "x", "--out", str(out)]) == 0
    record = json.loads(out.read_text())["x"]
    assert record["rows"] == len(layers.CONTRACT) == sum(record["totals"].values())
    assert sum(sum(c.values()) for c in record["entries"].values()) == record["rows"]
    assert record["unexpected"] == []
