"""The input-domain declarations: every public entry that takes a number, a
sequence or a seed has one, and README's "Input domains" table states
each of them as written."""

import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

import duores

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("core", "equilibrium", "meanfield", "simulate", "experiments", "verify", "io", "cli")

TAKES_NONE = {
    # public callables that take no number, no sequence and no seed
    "core.StationState": "a record of four counts; index_of and Measure.point check a state",
    "core.tv_distance": "two measures",
    "core.mean_fill": "a measure",
    "core.prob_no_available": "a measure",
    "core.prob_saturated": "a measure",
    "equilibrium.SolveReport": "a record the solver fills",
    "equilibrium.MultipleEquilibriaError": "an exception",
    "meanfield.drift": "a measure and a model",
    "meanfield.stationarity_residual": "a measure and a model",
    "simulate.SimState": "a state that check_invariants and run check",
    "simulate.SimInvariantError": "an exception",
    "simulate.step": "a state, a model and a generator; their total rate must be finite",
    "simulate.run": "a model and a config, checked when built, and a start state; the rate "
                    "bound across the model and the config must be finite",
    "experiments.ExperimentReport": "a record an experiment fills",
    "io.measure_to_csv": "a measure and a path",
    "io.measure_from_csv": "a path",
    "io.write_timed_measure_csv": "a writer: the times and measures of a trajectory",
    "io.write_station_trajectory_csv": "a writer: the snapshots of a run",
    "io.write_json": "a writer: any report",
    "cli.main": "command-line words, each config value read against the schema",
}


def _public_callables():
    for mod_name in MODULES:
        mod = importlib.import_module(f"duores.{mod_name}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj):
                yield f"{mod_name}.{name}", obj


def _parameters(obj) -> list:
    return list(inspect.signature(obj).parameters)


def test_every_public_callable_that_takes_a_number_has_one_declaration():
    undeclared, declared = [], []
    for name, obj in _public_callables():
        if hasattr(obj, "__domain__"):
            declared.append(name)
            assert set(obj.__domain__) <= set(_parameters(obj)), name
            assert list(obj.__domain__) == [k for k in _parameters(obj) if k in obj.__domain__], \
                f"{name}: declared out of signature order"
        elif name not in TAKES_NONE:
            undeclared.append(name)
    assert undeclared == []
    assert not set(declared) & set(TAKES_NONE)
    assert set(TAKES_NONE) <= {name for name, _ in _public_callables()}


def test_a_declaration_checks_each_argument_once_before_the_entry_runs():
    from duores import core

    calls = []
    counted = core._count(1)._replace(check=lambda name, v: calls.append(name) or int(v))

    @core._domain(n=counted, k=counted)
    def entry(n, m=2.0, *, k=3.0):
        return n, m, k

    assert entry(3.0) == (3, 2.0, 3) and entry(n=4, k=5.0) == (4, 2.0, 5)
    assert calls == ["n", "k", "n", "k"]
    with pytest.raises(TypeError):
        entry(k=1)
    assert inspect.signature(entry) == inspect.signature(entry.__wrapped__)


def _render(domain: dict) -> str:
    """A declaration as README writes it: the arguments that share a rule
    text grouped, in declaration order."""
    groups: dict = {}
    for arg, rule in domain.items():
        groups.setdefault(rule.text, []).append(arg)
    return "; ".join(f"{', '.join(f'`{a}`' for a in args)}: {text}"
                     for text, args in groups.items())


def _resolve(name: str):
    for root in (duores, *(importlib.import_module(f"duores.{m}") for m in MODULES)):
        try:
            return functools.reduce(getattr, name.split("."), root)
        except AttributeError:
            pass
    raise AssertionError(f"README names {name!r}, which duores does not have")


def _table() -> list:
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Input domains"):text.index("## Command line")]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [(re.findall(r"`([A-Za-z_][\w.]*)", row[0]), row[1]) for row in rows]


TABLE = _table()


@pytest.mark.parametrize("names, declared", TABLE, ids=[names[0] for names, _ in TABLE])
def test_readme_input_domains_row_states_each_declaration(names, declared):
    for name in names:
        domain = getattr(_resolve(name), "__domain__", None)
        if domain is None:  # an entry that takes no number itself
            assert declared.startswith("none: "), name
        else:
            assert _render(domain) == declared, name


def test_readme_input_domains_table_lists_every_declared_public_entry():
    listed = {id(_resolve(name)) for names, _ in TABLE for name in names}
    missing = [name for name, obj in _public_callables()
               if hasattr(obj, "__domain__") and id(obj) not in listed]
    assert missing == []
