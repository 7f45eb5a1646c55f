"""One benchmark run: one workload, one training seed, one fresh process.

``perfbench/run.py`` starts this script once per measured run::

    python3 perfbench/child.py --workload paper-serial --seed 123 --mode untraced

It builds the workload through the public API (``ExperimentSettings`` ->
``build_environment`` -> ``build_trainer(...).run()``), checks the
outputs it can check alone, and prints one JSON object as its last
stdout line. ``--mode traced`` also wraps every layer's entry points
(see ``tracing.py``) and writes the spans to ``.perfbench/spans/``.

``repro`` is imported before anything that loads numpy, so a BLAS
thread setting the program applies at import time takes effect here
exactly as it would for a user. This script sets no such variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

from tracing import SpanRecorder, layer_metrics  # noqa: E402
from workloads import STRATEGY, TARGET_ACCURACY, WORKLOADS  # noqa: E402

__all__ = ["run_once"]


def _host_record() -> dict:
    """Core count, BLAS build and thread variables of this process."""
    import platform

    import numpy

    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 prints its config only
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {
            key: value for key, value in sorted(os.environ.items()) if key.endswith("_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _patch_rounds(recorder: SpanRecorder, trainer, traced: bool) -> None:
    """Wrap the calls the round loop makes into each layer.

    Untraced runs wrap only selection (one timestamp per round marks the
    round boundary) and evaluation (its end time gives time to target).
    """
    import repro.fl.checkpoint
    import repro.fl.trainer
    from repro.energy.accounting import EnergyLedger
    from repro.fl.client import LocalTrainer

    selection = trainer.selection
    select = "select_population" if hasattr(selection, "select_population") else "select"
    recorder.patch(selection, select, "core.select")
    recorder.patch(trainer.server, "evaluate", "fl.eval")
    if not traced:
        return
    recorder.patch(trainer.frequency_policy, "assign", "core.dvfs")
    recorder.patch(repro.fl.trainer, "simulate_tdma_round", "network.tdma")
    recorder.patch(trainer.backend, "bind", "fl.backend_bind")
    recorder.patch(
        trainer.backend, "run_round", "fl.run_round", count=lambda args, result: len(result)
    )
    recorder.patch(LocalTrainer, "train", "nn.local_train", main_process_only=True)
    recorder.patch(trainer.server, "broadcast", "fl.broadcast")
    recorder.patch(trainer.server, "aggregate", "fl.aggregate")
    recorder.patch(EnergyLedger, "record_round", "energy.ledger")
    recorder.patch(
        repro.fl.checkpoint,
        "save_checkpoint",
        "fl.checkpoint",
        count=lambda args, result: os.path.getsize(args[0]),
    )
    recorder.patch(trainer.observer, "emit", "obs.emit")
    recorder.patch(trainer.observer, "span", "obs.span")


def run_once(workload: str, seed: int, mode: str = "untraced") -> dict:
    """Build and run one workload once; return its measurements.

    Args:
        workload: a key of ``WORKLOADS``.
        seed: the training seed (``ExperimentSettings.seed``).
        mode: ``"untraced"`` or ``"traced"``.
    """
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401  (first: before numpy)
    from repro.experiments import runner
    from repro.experiments.settings import ExperimentSettings
    from repro.fl.execution import create_backend
    from repro.obs import RunObserver
    from repro.obs.schema import validate_trace

    import_s = time.perf_counter() - start
    spec = WORKLOADS[workload]
    traced = mode == "traced"
    settings = ExperimentSettings(**spec["settings"], seed=seed)

    recorder = SpanRecorder()
    tmp_dir = os.path.join(OUT_DIR, "tmp", f"{os.getpid()}-{workload}-{seed}")
    backend = observer = None
    config_overrides = {"target_accuracy": TARGET_ACCURACY}
    checkpoint_path = trace_path = None
    try:
        if traced:
            recorder.patch(settings, "build_task", "data.build_task")
            recorder.patch(settings, "build_partitions", "data.partition")
            recorder.patch(runner, "make_fleet", "devices.make_fleet")
        environment = runner.build_environment(settings, iid=spec["iid"])
        backend = create_backend(spec["backend"], workers=spec["workers"])
        if spec["observed"]:
            os.makedirs(tmp_dir, exist_ok=True)
            trace_path = os.path.join(tmp_dir, "trace.jsonl")
            checkpoint_path = os.path.join(tmp_dir, "checkpoint.json")
            observer = RunObserver.to_path(trace_path)
            config_overrides["checkpoint_every"] = spec["checkpoint_every"]
        build_start = time.perf_counter()
        trainer = runner.build_trainer(
            STRATEGY,
            settings,
            environment,
            config_overrides=config_overrides,
            backend=backend,
            observer=observer,
            checkpoint_path=checkpoint_path,
        )
        setup_end = time.perf_counter()
        _patch_rounds(recorder, trainer, traced)
        run_start = time.perf_counter()
        history = trainer.run()
        run_end = time.perf_counter()
        close_s = trace_bytes = trace_events = 0
        if observer is not None:
            close_start = time.perf_counter()
            observer.close()
            close_s = time.perf_counter() - close_start
            trace_bytes = os.path.getsize(trace_path)
            trace_events = validate_trace(trace_path)
    finally:
        recorder.restore()
        if backend is not None:
            backend.close()
        if observer is not None:
            observer.close()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    selects = [s for s in recorder.spans if s[0] == "core.select" and s[3] == -1]
    boundaries = [s[1] for s in selects] + [run_end]
    round_ms = [(b - a) * 1e3 for a, b in zip(boundaries, boundaries[1:])]
    eval_ends = [s[2] for s in recorder.spans if s[0] == "fl.eval"]
    evaluated = [r for r in history.records if r.test_accuracy is not None]
    time_to_acc_s = None
    for record, end in zip(evaluated, eval_ends):
        if record.test_accuracy >= TARGET_ACCURACY:
            time_to_acc_s = end - run_start
            break

    checks = []
    if len(round_ms) != len(history.records):
        checks.append(f"{len(round_ms)} round boundaries for {len(history.records)} rounds")
    if len(eval_ends) != len(evaluated):
        checks.append(f"{len(eval_ends)} eval calls for {len(evaluated)} evaluated rounds")
    if time_to_acc_s is None or history.stop_reason != "target_accuracy":
        checks.append(f"missed target accuracy {TARGET_ACCURACY} ({history.stop_reason})")
    if spec["observed"] and trace_events <= 0:
        checks.append("empty trace")

    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "digest": hashlib.sha256(history.to_json().encode("utf-8")).hexdigest(),
        "checks": checks,
        "setup_s": setup_end - start,
        "run_s": run_end - run_start,
        "rounds": len(history.records),
        "round_ms": round_ms,
        "time_to_acc_s": time_to_acc_s,
        "sim_time_to_acc_s": history.time_to_accuracy(TARGET_ACCURACY),
        "sim_energy_j": history.total_energy,
        "final_test_acc": history.final_accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": _host_record(),
    }
    if traced:
        layers = layer_metrics(recorder, run_start, run_end)
        layers.update(
            {
                "setup.import_s": import_s,
                "data.build_task_s": recorder.total("data.build_task"),
                "data.partition_s": recorder.total("data.partition"),
                "devices.make_fleet_s": recorder.total("devices.make_fleet"),
                "fl.build_trainer_s": setup_end - build_start,
                "obs.close.s": close_s,
                "obs.trace_bytes": trace_bytes,
            }
        )
        result["layers"] = layers
        spans_dir = os.path.join(OUT_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        result["spans_path"] = os.path.join(spans_dir, f"{workload}-{seed}.json")
        with open(result["spans_path"], "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": recorder.spans}, handle)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--mode", default="untraced", choices=("untraced", "traced"))
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.mode)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
