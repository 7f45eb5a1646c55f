"""HELCFL end-to-end benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-observed --seed 1 --seconds 60 --trace 0

Each measured run is a fresh Python process (``perfbench/child.py``)
that imports ``repro``, builds the workload and trains it. This process
only starts children, checks their outputs and reduces their figures;
it imports nothing outside the standard library.

``--trace 0`` trains every seed of the workload's seed panel (see
``workloads.py``), then keeps training the panel again until
``--seconds`` have passed, and prints the end-to-end metrics. Panel
seeds not started by the launch deadline (a host far slower than the
one the panels were sized on) are listed apart; they are not failures.
``--trace 1`` alternates untraced and traced runs of the same seeds for
``--seconds`` and prints the per-layer metrics of the traced runs plus
the wrappers' overhead against the untraced ones.

Every run starts with one untraced warm-up run of the panel's first
seed, which is also the reference the output checks compare against.
The panel, and with it that seed, changes with ``--seed``. The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every run succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, panel_seeds  # noqa: E402

# Every end-to-end metric an untraced run prints: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p95": ("ms", "lower"),
    "time_to_acc_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_ratio": ("ratio", "higher"),
    "sim_time_to_acc_s": ("s", "lower"),
    "sim_energy_j": ("J", "lower"),
    "final_test_acc": ("ratio", "higher"),
}

# A child takes 1-5 s on a 2-core host. No child starts after the launch
# deadline, so a run ends within 180 s even if its last child hangs.
CHILD_TIMEOUT_S = 60.0
LAUNCH_DEADLINE_S = 110.0


class Runs:
    """The children one benchmark run started, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []
        self.expected: dict = {}

    def start(self, workload: str, seed: int, mode: str):
        """Run one child; return its result, or None if it failed."""
        self.attempted += 1
        label = f"{workload} seed={seed} mode={mode}"
        command = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
        process = subprocess.Popen(
            command + ["--mode", mode],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out, err = None, ""
        finally:
            # The child's own pool workers share its session; none may
            # outlive it, whether it finished, crashed or hung.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if out is None:
            return self.fail(label, f"timed out after {CHILD_TIMEOUT_S:.0f} s")
        if process.returncode != 0:
            tail = " | ".join(err.strip().splitlines()[-3:])
            return self.fail(label, f"exit code {process.returncode}: {tail}")
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(label, "printed no JSON result")
        if result["checks"]:
            return self.fail(label, "; ".join(result["checks"]))
        expected = self.expected.setdefault(seed, result["digest"])
        if result["digest"] != expected:
            return self.fail(label, "history digest differs from the reference run")
        return result

    def fail(self, label: str, reason: str) -> None:
        """Record a failed run; returns None for the caller to pass on."""
        self.failures.append(f"{label}: {reason}")
        print(f"FAILED {label}: {reason}", file=sys.stderr)
        return None


# Round latency p95 is taken per group of consecutive runs holding at
# least this many rounds (so ten rounds lie beyond it), then the median
# over groups: a burst of host contention that hits one group moves it
# far less than it moves a p95 pooled over the whole run.
P95_GROUP_ROUNDS = 200


def _p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def _grouped_p95(results: list) -> float:
    groups, group = [], []
    for result in results:
        group.extend(result["round_ms"])
        if len(group) >= P95_GROUP_ROUNDS:
            groups.append(group)
            group = []
    if group and groups:
        groups[-1].extend(group)
    elif group:
        groups.append(group)
    return statistics.median(_p95(group) for group in groups)


def end_to_end_metrics(results: list, runs: Runs) -> dict:
    """Reduce the measured untraced runs to the end-to-end metrics.

    Speed figures are medians over runs; the round-latency median is
    pooled over every round of every run. Per-seed figures — time to target and
    the simulated results — are first taken per seed, then the median
    over the seed panel.
    """
    samples = [ms for result in results for ms in result["round_ms"]]
    by_seed: dict = {}
    for result in results:
        by_seed.setdefault(result["seed"], []).append(result)
    per_seed = [
        {
            "time_to_acc_s": statistics.median(r["time_to_acc_s"] for r in seed_results),
            **{
                key: seed_results[0][key]
                for key in ("sim_time_to_acc_s", "sim_energy_j", "final_test_acc")
            },
        }
        for seed_results in by_seed.values()
    ]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "rounds_per_s": statistics.median(r["rounds"] / r["run_s"] for r in results),
        "round_ms_p50": statistics.median(samples),
        "round_ms_p95": _grouped_p95(results),
        "time_to_acc_s": statistics.median(s["time_to_acc_s"] for s in per_seed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "success_ratio": 1.0 - len(runs.failures) / runs.attempted,
        **{
            key: statistics.median(s[key] for s in per_seed)
            for key in ("sim_time_to_acc_s", "sim_energy_j", "final_test_acc")
        },
    }


def per_layer_metrics(untraced: list, traced: list) -> dict:
    """Medians of the traced runs' layer figures, plus tracing overhead."""
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in LAYER_METRICS
        if not name.startswith("trace.")
    }
    base = statistics.median(r["run_s"] for r in untraced)
    with_spans = statistics.median(r["run_s"] for r in traced)
    metrics["trace.base_run_s"] = base
    metrics["trace.traced_run_s"] = with_spans
    metrics["trace.overhead_ratio"] = with_spans / base
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no repro sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    seeds = panel_seeds(args.seed, spec["panel"])
    runs = Runs()
    began = time.perf_counter()
    # Warm-up: fills the file cache (and writes bytecode where Python
    # may) and fixes the reference history the measured runs must
    # reproduce bit for bit (paper-observed must equal paper-serial).
    runs.start(spec["reference"], seeds[0], "untraced")

    measured: list = []
    deadline = time.perf_counter() + args.seconds
    required = len(seeds) if args.trace == 0 else 1
    steps_s: list = []
    index = 0
    while time.perf_counter() - began < LAUNCH_DEADLINE_S:
        # Past the required first pass, start no step that would more
        # likely end after the deadline than before it, so a run
        # measures about --seconds rather than --seconds plus half a step.
        half_step = statistics.median(steps_s) / 2 if steps_s else 0.0
        if index >= required and time.perf_counter() + half_step >= deadline:
            break
        if args.trace == 0:
            modes = ("untraced",)
        else:
            modes = ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced")
        step_start = time.perf_counter()
        for mode in modes:
            result = runs.start(args.workload, seeds[index % len(seeds)], mode)
            if result is not None:
                measured.append(result)
        steps_s.append(time.perf_counter() - step_start)
        index += 1
    # A host too slow to train the whole panel before the launch deadline
    # is not a wrong output: the seeds left over are reported apart from
    # the failed runs, and the metrics cover the seeds that were trained.
    not_started = seeds[index:] if args.trace == 0 else []
    if not_started:
        print(f"NOT STARTED before the launch deadline: seeds {not_started}", file=sys.stderr)

    untraced = [r for r in measured if r["mode"] == "untraced"]
    traced = [r for r in measured if r["mode"] == "traced"]
    metrics: dict = {}
    units = END_TO_END if args.trace == 0 else LAYER_METRICS
    if untraced and (args.trace == 0 or traced):
        if args.trace == 0:
            values = end_to_end_metrics(untraced, runs)
        else:
            values = per_layer_metrics(untraced, traced)
        metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
        host = measured[0]["host"]
        samples = sum(len(r["round_ms"]) for r in untraced)
        print(f"# workload {args.workload}, seed {args.seed}, seed panel {seeds}")
        print(f"# host {json.dumps(host, sort_keys=True)}")
        print(f"# runs: {len(untraced)} untraced, {len(traced)} traced; round samples: {samples}")
        print(f"# failed_ratio {len(runs.failures) / runs.attempted:.6g} of {runs.attempted} runs")
        print(f"# panel seeds not started before the launch deadline: {not_started}")
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = not runs.failures and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runs.attempted,
                "failed": len(runs.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
