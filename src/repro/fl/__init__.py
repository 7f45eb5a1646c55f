"""The federated-learning engine (Algorithm 1's machinery).

Contains the FLCC server, the local client trainer (Eq. 3), FedAvg
aggregation (Eq. 18), the pluggable client-execution backends
(serial / zero-copy shared-memory process pool), the synchronous round
loop with TDMA cost simulation, and the training history with time-to-accuracy
and energy-to-accuracy queries used by the paper's Table I and Fig. 3.
"""

from repro.fl.aggregation import fedavg_aggregate
from repro.fl.client import LocalTrainer
from repro.fl.execution import (
    BACKEND_NAMES,
    ClientUpdate,
    ExecutionBackend,
    LocalUpdateSpec,
    RoundResult,
    SerialBackend,
    create_backend,
)
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.server import FederatedServer
from repro.fl.shm import SharedArrayPool, SharedMemoryProcessPoolBackend
from repro.fl.strategy import (
    FrequencyPolicy,
    FullParticipation,
    MaxFrequencyPolicy,
    SelectionStrategy,
    selection_count,
)
from repro.fl.trainer import FederatedTrainer, TrainerConfig

__all__ = [
    "fedavg_aggregate",
    "LocalTrainer",
    "BACKEND_NAMES",
    "ClientUpdate",
    "ExecutionBackend",
    "LocalUpdateSpec",
    "RoundResult",
    "SerialBackend",
    "SharedArrayPool",
    "SharedMemoryProcessPoolBackend",
    "create_backend",
    "RoundRecord",
    "TrainingHistory",
    "FederatedServer",
    "SelectionStrategy",
    "FrequencyPolicy",
    "FullParticipation",
    "MaxFrequencyPolicy",
    "selection_count",
    "FederatedTrainer",
    "TrainerConfig",
]
