"""In-memory run metrics: counters, gauges, and wall-clock timers.

A :class:`MetricsRegistry` is the quantitative half of the
observability layer (the event trace is the qualitative half). The
trainer and the execution backends record into it through the
:class:`~repro.obs.observer.RunObserver`:

* **counters** — monotonically accumulated totals (rounds executed,
  clients trained, joules recorded by the energy ledger);
* **gauges** — last-written values (devices tracked by the ledger);
* **timers** — wall-clock durations around the loop's four stages
  (``selection``, ``frequency_assignment``, ``run_round``,
  ``aggregation``), making backend overhead directly measurable.

The registry is thread-safe (callers may share it across threads)
and purely observational: nothing in the training loop ever reads
it back.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.errors import ConfigurationError

__all__ = ["TimerStat", "MetricsRegistry"]

_RESERVOIR_CAP = 256
"""Maximum retained samples per timer before stride-decimation."""


@dataclass
class TimerStat:
    """Aggregated wall-clock observations of one named timer.

    Besides the running aggregates, a bounded *deterministic* reservoir
    of observations is kept for tail percentiles: once
    ``_RESERVOIR_CAP`` samples are held, every other retained sample is
    discarded and the sampling stride doubles, so the reservoir stays
    an evenly spaced subsample of the observation stream with no RNG
    involved (the registry must stay reproducible run to run).

    Attributes:
        count: number of recorded durations.
        total_s: summed duration, seconds.
        min_s: shortest observation, seconds.
        max_s: longest observation, seconds.
    """

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0
    samples: List[float] = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)

    @property
    def mean_s(self) -> float:
        """Mean duration per observation (0.0 before any observation)."""
        return self.total_s / self.count if self.count else 0.0

    def observe(self, seconds: float) -> None:
        """Fold one duration into the aggregate."""
        if seconds < 0:
            raise ConfigurationError(
                f"timer observations must be non-negative, got {seconds}"
            )
        if (self.count % self._stride) == 0:
            self.samples.append(seconds)
            if len(self.samples) > _RESERVOIR_CAP:
                del self.samples[::2]
                self._stride *= 2
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples.

        Args:
            q: the percentile in ``[0, 100]``.

        Returns:
            0.0 before any observation. With decimation active the
            value is computed over the evenly spaced subsample.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(
                f"percentile must be in [0, 100], got {q}"
            )
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
        return ordered[int(rank) - 1]

    @property
    def p50_s(self) -> float:
        """Median duration (0.0 before any observation)."""
        return self.percentile(50.0)

    @property
    def p95_s(self) -> float:
        """95th-percentile duration (0.0 before any observation)."""
        return self.percentile(95.0)


class MetricsRegistry:
    """Thread-safe in-memory counters, gauges, and timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, TimerStat] = {}

    # -- counters -------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the named counter."""
        if value < 0:
            raise ConfigurationError(
                f"counter increments must be non-negative, got {value}"
            )
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        """Current value of the named counter (0.0 if never touched)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    # -- gauges ---------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauge(self, name: str) -> float:
        """Current value of the named gauge (0.0 if never set)."""
        with self._lock:
            return self._gauges.get(name, 0.0)

    # -- timers ---------------------------------------------------------
    def observe_time(self, name: str, seconds: float) -> None:
        """Record one wall-clock duration under the named timer."""
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.observe(seconds)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Context manager timing its body into the named timer.

        The duration is recorded even when the body raises, so a
        crashed round still leaves its cost visible.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe_time(name, time.perf_counter() - start)

    def timer_stat(self, name: str) -> TimerStat:
        """Aggregate of the named timer (empty stat if never observed)."""
        with self._lock:
            return self._timers.get(name, TimerStat())

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict copy of every metric (JSON-friendly)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {
                        "count": stat.count,
                        "total_s": stat.total_s,
                        "mean_s": stat.mean_s,
                        "min_s": stat.min_s if stat.count else 0.0,
                        "max_s": stat.max_s,
                        "p50_s": stat.p50_s,
                        "p95_s": stat.p95_s,
                    }
                    for name, stat in self._timers.items()
                },
            }

    def format_timers(self) -> str:
        """Human-readable per-timer breakdown, one line per timer.

        Timers are sorted by total time descending, so the dominant
        stage (usually ``run_round``) leads the table.
        """
        with self._lock:
            items = sorted(
                self._timers.items(), key=lambda kv: -kv[1].total_s
            )
        if not items:
            return "(no timers recorded)"
        return "\n".join(
            f"{name:24s} {stat.total_s:9.4f}s total  "
            f"{1e3 * stat.mean_s:8.3f}ms mean  "
            f"{1e3 * stat.p50_s:8.3f}ms p50  "
            f"{1e3 * stat.p95_s:8.3f}ms p95  x{stat.count}"
            for name, stat in items
        )
