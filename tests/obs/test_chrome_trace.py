"""Unit tests for the Chrome trace-event (Perfetto) exporter."""

import json

from repro.obs.chrome_trace import chrome_trace_document, render_chrome_trace
from tests.obs.analysis.test_spans import end, start, tree_events


class TestChromeTraceDocument:
    def test_empty_trace_is_a_valid_document(self):
        document = chrome_trace_document([])
        assert document["traceEvents"] == []
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"] == {"source": "repro.obs"}

    def test_one_metadata_event_per_pid_sorted(self):
        document = chrome_trace_document(tree_events())
        metadata = [
            e for e in document["traceEvents"] if e["ph"] == "M"
        ]
        assert [(m["name"], m["pid"]) for m in metadata] == [
            ("process_name", 100),
            ("process_name", 200),
        ]
        assert metadata[1]["args"] == {"name": "pid 200"}

    def test_closed_spans_export_as_complete_slices(self):
        document = chrome_trace_document(tree_events())
        slices = {
            e["args"]["span_id"]: e
            for e in document["traceEvents"]
            if e["ph"] != "M"
        }
        run = slices["run"]
        assert run["ph"] == "X"
        assert run["cat"] == "repro"
        assert run["dur"] == 1.2e6  # seconds -> microseconds
        task = slices["round-2/local_updates/task-3"]
        assert task["pid"] == 200
        assert task["args"]["parent_id"] == "round-2/local_updates"
        assert task["args"]["rss_peak_kb"] == 2048.0

    def test_timestamps_rebase_to_earliest_start(self):
        document = chrome_trace_document(tree_events())
        ts = [
            e["ts"] for e in document["traceEvents"] if e["ph"] != "M"
        ]
        assert min(ts) == 0.0  # the run span opened at the base time
        assert max(ts) > 0.0

    def test_unclosed_span_exports_as_begin_event(self):
        events = [start("run", t=5.0), start("round-1", parent="run", t=6.0)]
        document = chrome_trace_document(events)
        phases = {
            e["args"]["span_id"]: e["ph"]
            for e in document["traceEvents"]
            if e["ph"] != "M"
        }
        assert phases == {"run": "B", "round-1": "B"}
        begins = [e for e in document["traceEvents"] if e["ph"] == "B"]
        assert all("dur" not in e for e in begins)

    def test_resource_args_omitted_when_never_sampled(self):
        events = [start("run"), end("run")]
        document = chrome_trace_document(events)
        (slice_,) = [
            e for e in document["traceEvents"] if e["ph"] != "M"
        ]
        assert "rss_peak_kb" not in slice_["args"]


class TestRenderChromeTrace:
    def test_renders_loadable_json(self):
        text = render_chrome_trace(tree_events())
        document = json.loads(text)
        assert document == chrome_trace_document(tree_events())

    def test_one_line_per_trace_event(self):
        text = render_chrome_trace(tree_events())
        record_lines = [
            line
            for line in text.splitlines()
            if line.lstrip().startswith('{"args"')
        ]
        document = chrome_trace_document(tree_events())
        assert len(record_lines) == len(document["traceEvents"])

    def test_rendering_is_deterministic(self):
        assert render_chrome_trace(tree_events()) == render_chrome_trace(
            tree_events()
        )
