"""Scalar per-device reference implementations of the scheduler kernels.

The library schedules on :class:`~repro.devices.DevicePopulation`
arrays only. These loops over :class:`~repro.devices.UserDevice`
objects are the independent oracles the parity tests diff the array
kernels against, bit for bit: they use nothing but the scalar
``UserDevice``/``DvfsCpu``/``Radio`` methods, in the operation order
the paper's equations are written in.

``benchmarks/bench_scalability.py`` times the same loops as its
object-path baseline, so run it with the repository root on
``PYTHONPATH`` (``PYTHONPATH=src:.``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.utility import decayed_utility
from repro.devices.device import UserDevice
from repro.errors import SelectionError
from repro.fl.strategy import selection_count

__all__ = [
    "object_utility_scores",
    "object_greedy_decay_rounds",
    "object_determine_frequencies",
    "object_tdma_staging",
    "object_over_selection_extras",
]


def object_utility_scores(
    devices: Sequence[UserDevice],
    appearance_counts: Mapping[int, int],
    payload_bits: float,
    bandwidth_hz: float,
    decay: float,
) -> Dict[int, float]:
    """Eq. (20) per device, keyed by device id."""
    scores: Dict[int, float] = {}
    for device in devices:
        scores[device.device_id] = decayed_utility(
            appearance_count=int(appearance_counts.get(device.device_id, 0)),
            compute_delay=device.compute_delay(device.cpu.f_max),
            upload_delay=device.upload_delay(payload_bits, bandwidth_hz),
            decay=decay,
        )
    return scores


def object_greedy_decay_rounds(
    devices: Sequence[UserDevice],
    rounds: int,
    fraction: float,
    payload_bits: float,
    bandwidth_hz: float,
    decay: float,
) -> List[List[UserDevice]]:
    """Algorithm 2 for ``rounds`` rounds: full sort, dict counters."""
    counts: Dict[int, int] = {}
    count = selection_count(len(devices), fraction)
    picks = []
    for _ in range(rounds):
        scores = object_utility_scores(
            devices, counts, payload_bits, bandwidth_hz, decay
        )
        ranked = sorted(
            devices, key=lambda d: (-scores[d.device_id], d.device_id)
        )
        selected = ranked[:count]
        for device in selected:
            counts[device.device_id] = counts.get(device.device_id, 0) + 1
        picks.append(selected)
    return picks


def object_determine_frequencies(
    selected: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    clamp: bool = True,
    quantize: bool = False,
) -> Dict[int, float]:
    """Algorithm 3 as the paper writes it, keyed in chain order."""
    if not selected:
        raise SelectionError("cannot determine frequencies for no devices")
    # Line 1: ascending max-frequency compute delay (ties by id).
    ordered = sorted(
        selected,
        key=lambda d: (d.compute_delay(d.cpu.f_max), d.device_id),
    )
    frequencies: Dict[int, float] = {}
    previous_finish = 0.0
    for position, device in enumerate(ordered):
        if position == 0:
            freq = device.cpu.f_max
        else:
            target = device.frequency_for_compute_delay(previous_finish)
            freq = device.cpu.clamp(target) if clamp else target
        if quantize:
            freq = device.cpu.quantize(freq)
        frequencies[device.device_id] = freq
        compute_end = device.cpu.cycles_for(device.num_samples) / freq
        upload_start = max(compute_end, previous_finish)
        previous_finish = upload_start + device.upload_delay(
            payload_bits, bandwidth_hz
        )
    return frequencies


def object_tdma_staging(
    devices: Sequence[UserDevice],
    payload_bits: float,
    bandwidth_hz: float,
    frequencies: Dict[int, float],
    payloads: Dict[int, float],
) -> Tuple[List[int], List[float], List[float], List[float], List[float], List[float]]:
    """The TDMA simulator's per-device staging (Eqs. 4/5/7/8)."""
    ids: List[int] = []
    freqs: List[float] = []
    compute_delay: List[float] = []
    compute_energy: List[float] = []
    upload_delay: List[float] = []
    upload_energy: List[float] = []
    for device in devices:
        freq = frequencies.get(device.device_id, device.cpu.f_max)
        freq = device.cpu.validate_frequency(freq)
        payload = payloads.get(device.device_id, payload_bits)
        ids.append(device.device_id)
        freqs.append(freq)
        compute_delay.append(device.compute_delay(freq))
        compute_energy.append(device.compute_energy(freq))
        upload_delay.append(device.upload_delay(payload, bandwidth_hz))
        upload_energy.append(device.upload_energy(payload, bandwidth_hz))
    return ids, freqs, compute_delay, compute_energy, upload_delay, upload_energy


def object_over_selection_extras(
    devices: Sequence[UserDevice],
    selected: Sequence[UserDevice],
    margin: int,
    payload_bits: float,
    bandwidth_hz: float,
) -> List[UserDevice]:
    """The ``margin`` fastest unselected devices by Eq. (9), ties by id."""
    chosen = {device.device_id for device in selected}
    pool = [device for device in devices if device.device_id not in chosen]
    pool.sort(
        key=lambda d: (d.total_delay(payload_bits, bandwidth_hz), d.device_id)
    )
    return pool[:margin]
