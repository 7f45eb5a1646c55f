"""Shared fixtures for the HELCFL reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.devices.cpu import DvfsCpu
from repro.devices.device import UserDevice
from repro.devices.population import DevicePopulation
from repro.devices.radio import Radio


def make_device(
    device_id: int = 0,
    f_max: float = 1.0e9,
    f_min: float = 0.3e9,
    num_samples: int = 40,
    cycles_per_sample: float = 1e7,
    transmit_power: float = 0.2,
    channel_gain: float = 1.0,
    noise_power: float = 1e-2,
    input_dim: int = 4,
    num_classes: int = 3,
    seed: int = 0,
) -> UserDevice:
    """Build a small fully-specified device for unit tests."""
    rng = np.random.default_rng(seed + device_id)
    inputs = rng.normal(size=(num_samples, input_dim))
    labels = rng.integers(0, num_classes, size=num_samples)
    return UserDevice(
        device_id=device_id,
        cpu=DvfsCpu(f_min=f_min, f_max=f_max, cycles_per_sample=cycles_per_sample),
        radio=Radio(
            transmit_power=transmit_power,
            channel_gain=channel_gain,
            noise_power=noise_power,
        ),
        dataset=ArrayDataset(inputs, labels),
    )


def make_heterogeneous_devices(count: int = 6, seed: int = 0):
    """A small fleet with spread-out maximum frequencies."""
    rng = np.random.default_rng(seed)
    devices = []
    for idx in range(count):
        f_max = float(rng.uniform(0.4e9, 2.0e9))
        devices.append(make_device(device_id=idx, f_max=f_max, seed=seed))
    return devices


def select_devices(strategy, round_index, devices):
    """Run ``strategy.select`` on a snapshot of ``devices``.

    Returns the picked device objects in the strategy's ranked order.
    """
    population = DevicePopulation.from_devices(devices)
    positions = strategy.select(round_index, population)
    return [devices[position] for position in positions.tolist()]


def assign_devices(policy, devices, *args, **kwargs):
    """Run ``policy.assign`` on a snapshot of ``devices``."""
    return policy.assign(DevicePopulation.from_devices(devices), *args, **kwargs)


@pytest.fixture
def device():
    """A single mid-range device."""
    return make_device()


@pytest.fixture
def hetero_devices():
    """Six devices with heterogeneous maximum frequencies."""
    return make_heterogeneous_devices()


@pytest.fixture
def tiny_dataset():
    """A 30-sample, 3-class, 4-feature dataset."""
    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    return ArrayDataset(inputs, labels)
