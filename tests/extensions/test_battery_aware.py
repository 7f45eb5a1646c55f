"""Tests for battery-aware selection gating."""

import pytest

from repro.baselines.classic import RandomSelection
from repro.core.selection import GreedyDecaySelection
from repro.devices.battery import Battery
from repro.errors import ConfigurationError, SelectionError
from repro.extensions.battery_aware import BatteryAwareSelection
from repro.extensions.oort import OortSelection
from repro.fl.strategy import FullParticipation
from tests.conftest import make_heterogeneous_devices, select_devices
from tests.integration.test_population_parity import build_run


def with_batteries(devices, levels):
    for device, level in zip(devices, levels):
        device.battery = Battery(100.0, charge_joules=level * 100.0)
    return devices


class TestEligibility:
    def test_filters_low_battery_devices(self):
        devices = with_batteries(
            make_heterogeneous_devices(4), [1.0, 0.05, 1.0, 0.02]
        )
        strategy = BatteryAwareSelection(FullParticipation(), min_level=0.1)
        selected = select_devices(strategy, 1, devices)
        assert {d.device_id for d in selected} == {0, 2}

    def test_devices_without_battery_always_eligible(self):
        devices = make_heterogeneous_devices(3)
        strategy = BatteryAwareSelection(FullParticipation(), min_level=0.9)
        assert len(select_devices(strategy, 1, devices)) == 3

    def test_round_budget_requirement(self):
        devices = make_heterogeneous_devices(2)
        # Plenty of level but absolute charge below one round's cost.
        cost = devices[0].compute_energy() + devices[0].upload_energy(1e6, 2e6)
        devices[0].battery = Battery(cost / 2.0)
        devices[1].battery = Battery(cost * 100.0)
        strategy = BatteryAwareSelection(
            FullParticipation(),
            min_level=0.0,
            require_round_budget=True,
            payload_bits=1e6,
            bandwidth_hz=2e6,
        )
        selected = select_devices(strategy, 1, devices)
        assert [d.device_id for d in selected] == [1]

    def test_fallback_when_everyone_filtered(self):
        devices = with_batteries(make_heterogeneous_devices(3), [0.0, 0.0, 0.0])
        strategy = BatteryAwareSelection(FullParticipation(), min_level=0.5)
        assert len(select_devices(strategy, 1, devices)) == 3

    def test_strict_raises_when_everyone_filtered(self):
        devices = with_batteries(make_heterogeneous_devices(3), [0.0, 0.0, 0.0])
        strategy = BatteryAwareSelection(
            FullParticipation(), min_level=0.5, strict=True
        )
        with pytest.raises(SelectionError):
            select_devices(strategy, 1, devices)

    def test_delegates_to_inner_strategy(self):
        devices = with_batteries(
            make_heterogeneous_devices(10), [1.0] * 10
        )
        inner = RandomSelection(0.3, seed=0)
        strategy = BatteryAwareSelection(inner, min_level=0.1)
        assert len(select_devices(strategy, 1, devices)) == 3

    def test_reset_propagates(self):
        inner = RandomSelection(0.5, seed=1)
        strategy = BatteryAwareSelection(inner, min_level=0.1)
        devices = make_heterogeneous_devices(6)
        first = [d.device_id for d in select_devices(strategy, 1, devices)]
        strategy.reset()
        again = [d.device_id for d in select_devices(strategy, 1, devices)]
        assert first == again


class TestInnerForwarding:
    def test_state_dict_is_the_inner_strategys(self):
        inner = GreedyDecaySelection(0.5, 0.7, 1e6, 2e6)
        strategy = BatteryAwareSelection(inner, min_level=0.1)
        select_devices(strategy, 1, make_heterogeneous_devices(6))
        state = strategy.state_dict()
        assert state == inner.state_dict()
        assert state["appearance_counts"]

        fresh = BatteryAwareSelection(
            GreedyDecaySelection(0.5, 0.7, 1e6, 2e6), min_level=0.1
        )
        fresh.load_state_dict(state)
        assert fresh.inner.appearance_counts == inner.appearance_counts

    def test_losses_reach_a_wrapped_oort(self):
        inner = OortSelection(0.5, 1e6, 2e6, seed=0)
        strategy = BatteryAwareSelection(inner, min_level=0.1)
        strategy.observe_losses({0: 2.5, 3: 0.5})
        assert inner.last_losses == {0: 2.5, 3: 0.5}

    @pytest.mark.parametrize("cut_round", [2, 5])
    def test_resumed_battery_aware_helcfl_is_bitwise_identical(self, cut_round):
        kwargs = dict(
            scheme="battery-helcfl", rounds=8, battery_j=0.6, fading=False
        )
        reference = build_run(3, **kwargs).run()
        paused = build_run(3, **kwargs)
        paused.run(stop_after=cut_round)
        resumed = build_run(3, **kwargs).run(
            resume_from=paused.last_checkpoint
        )
        assert resumed.to_json() == reference.to_json()


class TestValidation:
    def test_inner_must_be_strategy(self):
        with pytest.raises(ConfigurationError):
            BatteryAwareSelection("nope")

    def test_min_level_range(self):
        with pytest.raises(ConfigurationError):
            BatteryAwareSelection(FullParticipation(), min_level=1.5)

    def test_round_budget_needs_network_params(self):
        with pytest.raises(ConfigurationError):
            BatteryAwareSelection(
                FullParticipation(), require_round_budget=True
            )
