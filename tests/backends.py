"""Execution backends the bitwise-parity suites run.

Besides the library's :data:`~repro.fl.execution.BACKEND_NAMES`, the
parity suites run ``"process"``: the pickle-transport process pool in
``benchmarks/pickle_pool.py``. It is not a user-settable backend any
more, but the transport study measures the shared-memory pool against
it, and that comparison only means something while the pickle pool
stays bitwise identical to the library backends.
"""

from __future__ import annotations

from benchmarks.pickle_pool import ProcessPoolBackend
from repro.fl.execution import BACKEND_NAMES, create_backend

PARITY_BACKENDS = (*BACKEND_NAMES, ProcessPoolBackend.name)


def make_backend(name, workers=None):
    """Build the backend called ``name`` from :data:`PARITY_BACKENDS`."""
    if name == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers=workers)
    return create_backend(name, workers=workers)
