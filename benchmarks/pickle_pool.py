"""The pickle-transport process pool: the transport study's baseline.

``ProcessPoolBackend`` was the library's plain process pool before the
zero-copy ``process+shm`` backend (:mod:`repro.fl.shm`) replaced it. It
pickles the broadcast flat vector into every task and every trained
vector back, ``2 * Q * P * 8`` bytes per round for ``Q`` clients and
``P`` parameters. It is kept here, outside the library, only so
``bench_scalability.py``'s transport study can measure what the shared
blocks save against the same pool with pickle transport. It honours the
:class:`~repro.fl.execution.ExecutionBackend` contract and is bitwise
equivalent to the library backends; the study asserts that per client.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TrainingError
from repro.fl.execution import (
    ClientUpdate,
    ExecutionBackend,
    LocalUpdateSpec,
    _check_workers,
    _map_chunksize,
    _train_one,
)
from repro.nn.model import Sequential
from repro.obs.spans import begin_task_sample, end_task_sample

__all__ = ["ProcessPoolBackend"]


# -- process-pool worker plumbing (module level for picklability) ------
_WORKER_STATE: dict = {}


def _process_worker_init(
    model: Sequential,
    spec: LocalUpdateSpec,
    datasets,
    log_level=None,
):
    """Build one worker's scratch model and dataset cache.

    The writes below are the deliberate process-pool initializer
    pattern: each pool *process* runs this exactly once, before any
    task, so its copy of ``_WORKER_STATE`` is populated single-threaded
    and never mutated again. ``log_level`` re-applies the parent's
    logging configuration inside the worker process, so warnings
    raised during local updates reach stderr instead of vanishing.
    """
    if log_level is not None:
        from repro.obs import configure_logging

        configure_logging(log_level)
    _WORKER_STATE["scratch"] = model  # repro: allow[REP005] per-process init, pre-task
    _WORKER_STATE["spec"] = spec  # repro: allow[REP005] per-process init, pre-task
    _WORKER_STATE["datasets"] = datasets  # repro: allow[REP005] per-process init, pre-task


def _process_worker_run(task):
    round_index, learning_rate, global_params, device_id, weight, dataset, sample = task
    if dataset is None:
        dataset = _WORKER_STATE["datasets"][device_id]
    token = begin_task_sample() if sample else None
    update = _train_one(
        _WORKER_STATE["scratch"],
        _WORKER_STATE["spec"],
        round_index,
        learning_rate,
        global_params,
        device_id,
        dataset,
        weight,
    )
    # The resource sample is taken in the *worker* process, then rides
    # home with the result (scalars only) for the parent to emit.
    taken = end_task_sample(token) if token is not None else None
    # Pickle transport: the trained vector rides home in the result
    # tuple; the zero-copy route is repro.fl.shm.
    return update.device_id, update.params, update.weight, update.loss, taken


class ProcessPoolBackend(ExecutionBackend):
    """Clients fan out across a process pool.

    The pool initializer ships the model template, the local-update
    spec, and every bound device's dataset to each worker exactly once;
    a round's tasks then carry only ``(device_id, learning_rate,
    global_params)``. Devices that appear at run time without having
    been bound fall back to shipping their dataset with the task.

    Args:
        workers: pool size; ``None`` uses ``os.cpu_count()``.
        log_level: when given, each worker process re-applies this
            logging level at pool start-up so worker-side warnings
            surface on stderr.
    """

    name = "process"

    def __init__(
        self, workers: Optional[int] = None, log_level=None
    ) -> None:
        super().__init__()
        self.workers = _check_workers(workers)
        self.log_level = log_level
        self._pool = None
        self._known_ids: set = set()

    def _bind(self, model_template, spec, devices) -> None:
        from concurrent.futures import ProcessPoolExecutor

        self.close()
        datasets = {d.device_id: d.dataset for d in devices}
        self._known_ids = set(datasets)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_process_worker_init,
            initargs=(model_template.clone(), spec, datasets, self.log_level),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _run(self, round_index, global_params, selected, learning_rate):
        if self._pool is None:
            raise TrainingError("ProcessPoolBackend is closed; re-bind it")
        sampling = self._sample_tasks
        tasks = [
            (
                round_index,
                learning_rate,
                global_params,
                device.device_id,
                float(device.num_samples),
                None if device.device_id in self._known_ids else device.dataset,
                sampling,
            )
            for device in selected
        ]
        updates = []
        for device_id, params, weight, loss, sample in self._pool.map(
            _process_worker_run,
            tasks,
            chunksize=_map_chunksize(len(tasks), self.workers),
        ):
            updates.append(
                ClientUpdate(
                    device_id=device_id,
                    params=params,
                    weight=weight,
                    loss=loss,
                )
            )
            if sampling:
                self._task_samples.append((device_id, sample))
        return updates
