"""Tests for strategy base classes and built-ins."""

import pytest

from repro.errors import DeviceError
from repro.fl.strategy import (
    FrequencyPolicy,
    FullParticipation,
    MaxFrequencyPolicy,
    SelectionStrategy,
)
from tests.conftest import (
    assign_devices,
    make_heterogeneous_devices,
    select_devices,
)


class TestBases:
    def test_selection_strategy_abstract(self):
        with pytest.raises(NotImplementedError):
            select_devices(SelectionStrategy(), 1, make_heterogeneous_devices(2))

    def test_frequency_policy_abstract(self):
        with pytest.raises(NotImplementedError):
            assign_devices(FrequencyPolicy(), make_heterogeneous_devices(2), 1e6, 2e6)

    def test_reset_is_noop_by_default(self):
        SelectionStrategy().reset()

    def test_observe_losses_is_noop_by_default(self):
        # The trainer calls the hook unconditionally every round; the
        # base class must accept and ignore the feedback.
        SelectionStrategy().observe_losses({0: 1.0, 1: 0.5})

    def test_assign_accepts_round_index_keyword(self):
        devices = make_heterogeneous_devices(3)
        policy = MaxFrequencyPolicy()
        plain = assign_devices(policy, devices, 1e6, 2e6)
        with_round = assign_devices(policy, devices, 1e6, 2e6, round_index=12)
        assert plain == with_round

    def test_assign_round_index_is_keyword_only(self):
        with pytest.raises(TypeError):
            assign_devices(MaxFrequencyPolicy(), make_heterogeneous_devices(2), 1e6, 2e6, 3)


class TestFullParticipation:
    def test_selects_everyone(self):
        devices = make_heterogeneous_devices(7)
        selected = select_devices(FullParticipation(), 1, devices)
        assert len(selected) == 7

    def test_empty_population_raises(self):
        # Strategies select from a DevicePopulation, which cannot be
        # empty: the snapshot itself rejects a fleet of no devices.
        with pytest.raises(DeviceError):
            select_devices(FullParticipation(), 1, [])


class TestMaxFrequencyPolicy:
    def test_assigns_fmax(self):
        devices = make_heterogeneous_devices(5)
        freqs = assign_devices(MaxFrequencyPolicy(), devices, 1e6, 2e6)
        for device in devices:
            assert freqs[device.device_id] == device.cpu.f_max

    def test_covers_all_selected(self):
        devices = make_heterogeneous_devices(4)
        freqs = assign_devices(MaxFrequencyPolicy(), devices, 1e6, 2e6)
        assert set(freqs) == {d.device_id for d in devices}
