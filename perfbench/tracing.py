"""In-memory spans around the public calls into each layer of ``repro``.

The benchmark wraps the layers' entry points from its own files, so the
program under test carries no benchmark code. Each wrapped call records
one span ``[name, start, end, parent]``: ``parent`` is the index of the
wrapped call it ran inside, or -1 at top level. Spans stay in memory
until the run ends; :func:`layer_metrics` then reduces them to the
per-layer figures the benchmark prints, and the traced child writes the
raw spans to disk.

This module imports only the standard library.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

__all__ = ["LAYER_METRICS", "SpanRecorder", "layer_metrics"]

# Wrapped layers whose per-call latency is worth a median.
_P50_LAYERS = (
    "core.select",
    "core.dvfs",
    "network.tdma",
    "fl.run_round",
    "nn.local_train",
    "fl.aggregate",
    "fl.eval",
    "fl.checkpoint",
)
_CALL_LAYERS = _P50_LAYERS + (
    "fl.broadcast",
    "energy.ledger",
    "obs.emit",
)

# Every per-layer metric a traced run prints: name -> (unit, better).
LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "data.build_task_s": ("s", "lower"),
    "data.partition_s": ("s", "lower"),
    "devices.make_fleet_s": ("s", "lower"),
    "fl.build_trainer_s": ("s", "lower"),
    "fl.backend_bind.s": ("s", "lower"),
}
for _layer in _CALL_LAYERS:
    LAYER_METRICS[f"{_layer}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_layer}.s"] = ("s", "lower")
    if _layer in _P50_LAYERS:
        LAYER_METRICS[f"{_layer}.ms_p50"] = ("ms", "lower")
LAYER_METRICS.update(
    {
        "fl.clients_trained": ("count", "higher"),
        "fl.client_ms": ("ms", "lower"),
        "fl.dispatch_s": ("s", "lower"),
        "fl.checkpoint.bytes": ("B", "lower"),
        "obs.span.calls": ("count", "lower"),
        "obs.close.s": ("s", "lower"),
        "obs.trace_bytes": ("B", "lower"),
        "fl.round.unattributed_s": ("s", "lower"),
        "fl.round.unattributed_share": ("ratio", "lower"),
        "trace.base_run_s": ("s", "lower"),
        "trace.traced_run_s": ("s", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
    }
)


class SpanRecorder:
    """Records a span per call of every function it patches.

    Attributes:
        spans: ``[name, start, end, parent]`` per wrapped call, in call
            order; times are ``time.perf_counter`` seconds.
        counts: per-name totals added by the patches' ``count`` hooks.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self._open: list = []
        self._pid = os.getpid()
        self._undo: list = []

    def wrap(self, name, fn, count=None, main_process_only=False):
        """Return ``fn`` wrapped to record one span per call.

        Args:
            name: span name (a layer metric prefix).
            fn: the callable to wrap.
            count: optional ``count(args, result) -> number`` added to
                ``counts[name]`` after each call, outside the span.
            main_process_only: skip recording in forked worker
                processes, whose spans would never reach the parent.
        """
        spans, open_spans, clock, pid = self.spans, self._open, time.perf_counter, self._pid
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if main_process_only and os.getpid() != pid:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()
            if count is not None:
                counts[name] = counts.get(name, 0) + count(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, count=None, main_process_only=False):
        """Replace ``owner.attr`` (a module, class or instance attribute)."""
        own = vars(owner)
        had_own = attr in own
        original = own.get(attr)
        wrapped = self.wrap(name, getattr(owner, attr), count, main_process_only)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, had_own, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)


def layer_metrics(recorder: SpanRecorder, run_start: float, run_end: float) -> dict:
    """Reduce one traced run's spans to the per-layer figures.

    Round ``j`` lasts from the start of its selection call to the start
    of the next one (the last round ends when ``run()`` returns). Its
    unattributed time is that wall time minus the top-level wrapped
    calls that start inside it, which never overlap one another.
    """
    durations: dict = {}
    for name, start, end, _ in recorder.spans:
        if run_start <= start <= run_end:
            durations.setdefault(name, []).append(end - start)
    metrics = {}
    for layer in _CALL_LAYERS:
        values = durations.get(layer, [])
        metrics[f"{layer}.calls"] = len(values)
        metrics[f"{layer}.s"] = sum(values)
        if layer in _P50_LAYERS:
            metrics[f"{layer}.ms_p50"] = statistics.median(values) * 1e3 if values else 0.0
    metrics["obs.span.calls"] = len(durations.get("obs.span", []))
    metrics["fl.backend_bind.s"] = sum(durations.get("fl.backend_bind", []))

    clients = recorder.counts.get("fl.run_round", 0)
    metrics["fl.clients_trained"] = clients
    metrics["fl.client_ms"] = metrics["fl.run_round.s"] / clients * 1e3 if clients else 0.0
    # Only in-process backends train inside the recorded process.
    local = metrics["nn.local_train.calls"]
    metrics["fl.dispatch_s"] = (
        metrics["fl.run_round.s"] - metrics["nn.local_train.s"] if local else 0.0
    )
    metrics["fl.checkpoint.bytes"] = recorder.counts.get("fl.checkpoint", 0)

    boundaries = [
        start
        for name, start, _, parent in recorder.spans
        if name == "core.select" and parent == -1 and run_start <= start <= run_end
    ]
    round_wall = run_end - boundaries[0] if boundaries else 0.0
    attributed = sum(
        end - start
        for _, start, end, parent in recorder.spans
        if parent == -1 and boundaries and boundaries[0] <= start <= run_end
    )
    unattributed = round_wall - attributed
    metrics["fl.round.unattributed_s"] = unattributed
    metrics["fl.round.unattributed_share"] = unattributed / round_wall if round_wall else 0.0
    return metrics
