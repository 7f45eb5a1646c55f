"""Integration tests: hierarchical spans over real training runs.

Covers the span acceptance contract:

* a traced run emits a validating, fully closed span tree — run →
  round → stage → per-client task — and every span event precedes the
  ``run_stop`` record;
* span *structure* (ids, parents, names, event order) is a pure
  function of the simulated run: identical across repeat runs and
  across every execution backend;
* spans are observational only — disabling them leaves the history
  and the simulation event stream bitwise identical, under every
  backend;
* process-backend task spans carry the worker's pid and resource
  sample, measured inside the worker.
"""

import json
import os

import pytest

from repro.fl.execution import BACKEND_NAMES
from repro.obs import RunObserver, validate_event
from repro.obs.analysis import summarize_spans
from tests.backends import make_backend
from tests.obs.test_tracing import make_setup, make_trainer

SPAN_KINDS = ("span_start", "span_end", "worker_resource")


def run_traced(tmp_path, backend_name=None, spans=True, seed=7, rounds=3,
               name="trace.jsonl"):
    path = tmp_path / name
    server, devices = make_setup(seed=seed)
    observer = RunObserver.to_path(str(path), spans_enabled=spans)
    try:
        if backend_name is None:
            history = make_trainer(
                server, devices, observer=observer, rounds=rounds
            ).run()
        else:
            with make_backend(backend_name, workers=2) as backend:
                history = make_trainer(
                    server, devices, observer=observer, backend=backend,
                    rounds=rounds,
                ).run()
    finally:
        observer.close()
    payloads = [json.loads(line) for line in path.read_text().splitlines()]
    return history, payloads


def span_structure(payloads):
    """The deterministic part of a trace's span stream, in order."""
    return [
        (
            p["event"],
            p["span_id"],
            p.get("parent_id", ""),
            p.get("name", ""),
            p["round_index"],
        )
        for p in payloads
        if p["event"] in SPAN_KINDS
    ]


class TestSpanTree:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("span-tree")
        return run_traced(tmp, rounds=3)

    def test_trace_validates(self, traced):
        _, payloads = traced
        for payload in payloads:
            validate_event(payload)

    def test_every_span_opens_once_and_closes(self, traced):
        _, payloads = traced
        starts = [p for p in payloads if p["event"] == "span_start"]
        ends = [p for p in payloads if p["event"] == "span_end"]
        start_ids = [p["span_id"] for p in starts]
        assert len(start_ids) == len(set(start_ids))
        assert sorted(start_ids) == sorted(p["span_id"] for p in ends)

    def test_hierarchy_run_round_stage_task(self, traced):
        history, payloads = traced
        starts = {
            p["span_id"]: p
            for p in payloads
            if p["event"] == "span_start"
        }
        assert starts["run"]["parent_id"] == ""
        rounds = [p for p in starts.values() if p["name"] == "round"]
        assert [p["span_id"] for p in rounds] == [
            f"round-{r.round_index}" for r in history.records
        ]
        assert all(p["parent_id"] == "run" for p in rounds)
        stage_names = {
            p["name"]
            for p in starts.values()
            if p["parent_id"].startswith("round-")
            and "/" not in p["parent_id"]
        }
        assert {"selection", "frequency_assignment", "local_updates",
                "aggregation"} <= stage_names
        for record in history.records:
            prefix = f"round-{record.round_index}/local_updates"
            tasks = [
                p for p in starts.values()
                if p["parent_id"] == prefix
            ]
            assert sorted(p["span_id"] for p in tasks) == sorted(
                f"{prefix}/task-{d}" for d in record.selected_ids
            )
            assert all(p["name"] == "task" for p in tasks)

    def test_resource_samples_reference_open_spans(self, traced):
        _, payloads = traced
        start_ids = {
            p["span_id"] for p in payloads if p["event"] == "span_start"
        }
        samples = [
            p for p in payloads if p["event"] == "worker_resource"
        ]
        assert samples, "expected at least one resource sample"
        assert all(p["span_id"] in start_ids for p in samples)

    def test_all_span_events_precede_run_stop(self, traced):
        _, payloads = traced
        kinds = [p["event"] for p in payloads]
        assert kinds[-1] == "run_stop"
        assert not any(k in SPAN_KINDS for k in kinds[kinds.index("run_stop"):])


class TestSpanStructureDeterminism:
    def test_repeat_runs_have_identical_structure(self, tmp_path):
        _, first = run_traced(tmp_path, name="a.jsonl")
        _, second = run_traced(tmp_path, name="b.jsonl")
        assert span_structure(first) == span_structure(second)

    @pytest.mark.parametrize(
        "backend_name", [n for n in BACKEND_NAMES if n != "serial"]
    )
    def test_every_backend_matches_serial_structure(
        self, backend_name, tmp_path
    ):
        _, serial = run_traced(tmp_path, "serial", rounds=2, name="s.jsonl")
        _, other = run_traced(
            tmp_path, backend_name, rounds=2, name="o.jsonl"
        )
        assert span_structure(other) == span_structure(serial)


class TestSpansAreObservationalOnly:
    @pytest.mark.parametrize("backend_name", list(BACKEND_NAMES))
    def test_disabling_spans_is_bitwise_invisible(
        self, backend_name, tmp_path
    ):
        on_history, on_payloads = run_traced(
            tmp_path, backend_name, spans=True, rounds=2, name="on.jsonl"
        )
        off_history, off_payloads = run_traced(
            tmp_path, backend_name, spans=False, rounds=2, name="off.jsonl"
        )
        assert off_history.to_dict() == on_history.to_dict()
        assert not any(
            p["event"] in SPAN_KINDS for p in off_payloads
        ), "spans off must emit no span events"
        on_lines = [
            json.dumps(p, sort_keys=True)
            for p in on_payloads
            if p["event"] not in SPAN_KINDS
        ]
        off_lines = [
            json.dumps(p, sort_keys=True) for p in off_payloads
        ]
        assert off_lines == on_lines

    def test_noop_span_summary_is_empty(self, tmp_path):
        _, payloads = run_traced(tmp_path, spans=False)
        assert summarize_spans([]).spans_total == 0
        assert not any(p["event"] in SPAN_KINDS for p in payloads)


class TestWorkerSideSpans:
    @pytest.mark.parametrize("backend_name", ["process", "process+shm"])
    def test_task_spans_carry_worker_pid_and_resources(
        self, backend_name, tmp_path
    ):
        _, payloads = run_traced(tmp_path, backend_name, rounds=2)
        tasks = [
            p
            for p in payloads
            if p["event"] == "span_start" and p["name"] == "task"
        ]
        assert tasks
        worker_pids = {p["pid"] for p in tasks}
        assert worker_pids - {os.getpid()}, (
            "process-backend task spans must carry a worker pid"
        )
        task_ids = {p["span_id"] for p in tasks}
        samples = {
            p["span_id"]: p
            for p in payloads
            if p["event"] == "worker_resource" and p["span_id"] in task_ids
        }
        assert set(samples) == task_ids
        assert all(s["rss_peak_kb"] > 0 for s in samples.values())
