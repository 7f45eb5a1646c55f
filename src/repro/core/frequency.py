"""Algorithm 3 — DVFS-enabled operating frequency determination.

The selected users are sorted by their max-frequency compute delays.
The first (fastest) user has no slack and runs at ``f_max``. Every
subsequent user's frequency is lowered so its local update completes
exactly when the previous user's upload completes::

    f_{q+1} = pi * |D_{q+1}| / T_q,    T_q = T_q^cal(f_q) + T_q^com

(the paper's line 9 with Eq. 9). By induction ``T_q`` equals user
``q``'s upload-completion time measured from the round start, so each
user's compute lands exactly at its channel-grant instant and the
quadratic compute energy (Eq. 5) shrinks without delaying the round.

Practical guards the paper leaves implicit:

* the target frequency is clamped into ``[f_min, f_max]`` — a user that
  cannot finish by the previous upload's end even at ``f_max`` simply
  runs at ``f_max`` (it will wait less or queue), and a user with huge
  slack is floored at ``f_min``;
* on CPUs with discrete DVFS ladders the frequency is rounded *up* to
  the next level so the schedule stays feasible.

With clamping, the recursion tracks the *actual* upload-finish time
(computed via the true queueing dynamics) rather than the idealized
``T_q``, so the assignment stays optimal when clamps bind.

The recursion runs over a :class:`~repro.devices.DevicePopulation`: the
O(Q) inputs — Eq. (4) delays at ``f_max``, the sort, Eq. (7) upload
delays — are array expressions, and only the inherently sequential
Eq. (9) prefix scan over the sorted delay chain runs as a scalar loop
(O(N selected), not O(Q)). :func:`determine_frequencies` also accepts
a plain device sequence, snapshotted once.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation, as_population
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import FrequencyPolicy

__all__ = ["determine_frequencies", "HelcflDvfsPolicy"]

_QUANTIZE_EPS = 1e-12  # DvfsCpu.quantize's round-up tolerance


def _check_modes(clamp: bool, quantize: bool) -> None:
    if quantize and not clamp:
        raise ConfigurationError(
            "quantize=True requires clamp=True: DVFS ladders only cover "
            "[f_min, f_max], which the unclamped recursion may leave"
        )


def determine_frequencies(
    selected: Union[DevicePopulation, Sequence[UserDevice]],
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool = True,
    quantize: bool = False,
) -> Dict[int, float]:
    """Run Algorithm 3 on the selected user set.

    Args:
        selected: the round's selected user set ``Gamma_j`` — a
            population slice or a device sequence (snapshotted once).
        payload_bits: model payload ``C_model`` in bits.
        bandwidth_hz: uplink resource blocks ``Z`` in Hz.
        clamp: clamp each derived frequency into the device's
            ``[f_min, f_max]`` (True for real devices; False reproduces
            the paper's idealized unclamped recursion and may return
            out-of-range frequencies).
        quantize: additionally snap frequencies up onto each device's
            discrete DVFS ladder when it has one.

    Returns:
        Mapping from device id to its determined operating frequency,
        keyed in the chain's ascending (delay, id) order — the order
        traces record.

    Raises:
        SelectionError: for an empty selection.
        ConfigurationError: for ``quantize=True`` with ``clamp=False``
            — ladder quantization snaps onto levels inside
            ``[f_min, f_max]``, which the unclamped idealized recursion
            may leave, so the combination is incoherent.
    """
    _check_modes(clamp, quantize)
    if not isinstance(selected, DevicePopulation) and not selected:
        raise SelectionError("cannot determine frequencies for no devices")
    population = as_population(selected)

    # Line 1: ascending max-frequency compute delay (ties by id), as an
    # array sort; the Eq. (9) recursion below then walks the chain with
    # CPython float ops, one per selected device.
    order = np.lexsort((population.device_ids, population.compute_delay()))
    ids = population.device_ids[order].tolist()
    cycles = population.cycles[order].tolist()
    f_min = population.f_min[order].tolist()
    f_max = population.f_max[order].tolist()
    uploads = population.upload_delay(payload_bits, bandwidth_hz)[order].tolist()
    ladder = population.ladder
    widths = population.ladder_sizes[order].tolist()

    frequencies: Dict[int, float] = {}
    previous_finish = 0.0
    for rank in range(len(ids)):
        if rank == 0:
            # Lines 3-4: the first user has no slack.
            freq = f_max[0]
        else:
            # Line 9: finish computing when the previous upload ends.
            target = cycles[rank] / previous_finish
            if clamp:
                freq = min(max(target, f_min[rank]), f_max[rank])
            else:
                freq = target
        if quantize:
            freq = min(max(freq, f_min[rank]), f_max[rank])
            width = widths[rank]
            if width:
                row = ladder[order[rank], :width]
                idx = int(np.searchsorted(row, freq - _QUANTIZE_EPS))
                freq = float(row[min(idx, width - 1)])
        frequencies[ids[rank]] = freq
        # Line 8 generalized: the user's actual upload-finish time under
        # FIFO channel queueing. Without clamping this reduces to the
        # paper's T_q = T_q^cal + T_q^com exactly (compute lands at the
        # previous finish, so upload_start == compute_end).
        compute_end = cycles[rank] / freq
        upload_start = max(compute_end, previous_finish)
        previous_finish = upload_start + uploads[rank]
    return frequencies


class HelcflDvfsPolicy(FrequencyPolicy):
    """Algorithm 3 packaged as a :class:`FrequencyPolicy`.

    Args:
        clamp: see :func:`determine_frequencies`; policies used inside
            a real trainer must clamp (the TDMA simulator validates
            frequencies against device ranges).
        quantize: snap onto discrete DVFS ladders when present.
    """

    def __init__(self, clamp: bool = True, quantize: bool = False) -> None:
        _check_modes(clamp, quantize)
        self.clamp = bool(clamp)
        self.quantize = bool(quantize)

    def assign(
        self,
        population: DevicePopulation,
        payload_bits: float,
        bandwidth_hz: float,
        *,
        round_index: int = 0,
    ) -> Dict[int, float]:
        del round_index  # Algorithm 3 is stateless across rounds.
        return determine_frequencies(
            population,
            payload_bits,
            bandwidth_hz,
            clamp=self.clamp,
            quantize=self.quantize,
        )
