"""Tests of the benchmark itself.

Each training run goes to the workload's 0.5 target accuracy, as a
measured run does: a few seconds per run on a 2-core host. Run from the
root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from child import run_once  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, panel_seeds  # noqa: E402

def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run_bench(*args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wrappers_leave_history_unchanged(workload):
    untraced = run_once(workload, 3, "untraced")
    traced = run_once(workload, 3, "traced")
    assert untraced["checks"] == traced["checks"] == []
    assert traced["digest"] == untraced["digest"]
    rounds = traced["rounds"]
    assert len(traced["round_ms"]) == rounds
    layers = traced["layers"]
    assert layers["fl.round.unattributed_s"] >= 0.0
    assert 0.0 <= layers["fl.round.unattributed_share"] < 1.0
    assert layers["core.select.calls"] == layers["fl.run_round.calls"] == rounds
    assert set(layers) == {name for name in LAYER_METRICS if not name.startswith("trace.")}


def test_observed_run_equals_serial_run():
    observed = run_once("paper-observed", 5)
    serial = run_once("paper-serial", 5)
    assert observed["digest"] == serial["digest"]


def test_two_seeds_give_different_histories():
    first = run_once("paper-serial", 5)
    second = run_once("paper-serial", 6)
    assert first["digest"] != second["digest"]


def test_panel_is_a_function_of_the_seed():
    assert panel_seeds(1, 8) == panel_seeds(1, 8)
    assert len(set(panel_seeds(1, 8) + panel_seeds(2, 8))) == 16


def test_metric_tables_match_benchmark_json():
    bench = _benchmark_json()
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert declared == END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == LAYER_METRICS
    # paper-serial is the reference paper-observed must reproduce; its
    # wall-clock figures drift too far to be gated (see workloads.py).
    assert [w["name"] for w in bench["workloads"]] == ["paper-observed", "fleet-2k-shm"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_names_match_benchmark_json(trace):
    # With --trace 0 a run trains the whole panel: about 45 s.
    done = _run_bench(
        "--workload", "paper-observed", "--seed", "1", "--seconds", "1", "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(
        "--workload", "paper-serial", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
