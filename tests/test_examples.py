"""Smoke test of the documented strategy plugin surface.

``examples/custom_strategy.py`` is the reference for writing a
selection strategy against the population interface; this runs it for
two rounds so an interface change cannot leave it behind.
"""

import importlib.util
from pathlib import Path

from repro.fl.strategy import selection_count

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_strategy_trains_two_rounds():
    example = load_example("custom_strategy")
    results = example.run_comparison(rounds=2)
    assert set(results) == {"HELCFL", "loss-proportional"}
    custom = results["loss-proportional"]
    assert len(custom) == 2
    for record in custom.records:
        assert len(record.selected_ids) == selection_count(20, 0.1)
        assert len(set(record.selected_ids)) == len(record.selected_ids)
    assert custom.final_accuracy > 0.0
