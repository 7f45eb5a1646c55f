"""Battery-aware selection gating (extension).

The paper motivates its energy optimization with battery-powered
devices: "energy of user devices is quickly exhausted or even device
shutdown occurs during FL training" (Section I). A natural
system-level complement to HELCFL is to stop *selecting* users whose
battery is nearly empty — they would either shut down mid-round
(losing their update) or be pushed into shutdown by participating.

:class:`BatteryAwareSelection` is a decorator: it filters the
population by battery level (and, optionally, by whether the device
can afford its own worst-case round cost) before delegating to any
inner strategy — HELCFL's greedy-decay, random, FedCS, anything.
It reads charge levels from the population's battery arrays, which the
trainer keeps live (``DevicePopulation.set_battery_charges``), and it
forwards state, checkpoints and loss feedback to the inner strategy.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.devices.population import DevicePopulation
from repro.errors import ConfigurationError, SelectionError
from repro.fl.strategy import SelectionStrategy

__all__ = ["BatteryAwareSelection"]


class BatteryAwareSelection(SelectionStrategy):
    """Filter out energy-starved devices, then delegate selection.

    Devices without a battery are always eligible. If filtering leaves
    nobody, the strategy falls back to the full population (training
    must proceed; the trainer's battery enforcement will handle the
    consequences) unless ``strict`` is set.

    Args:
        inner: the wrapped selection strategy.
        min_level: minimum battery level (fraction of capacity) to be
            eligible, in ``[0, 1]``.
        require_round_budget: additionally require that the device can
            afford one worst-case round (max-frequency compute plus
            one upload) from its remaining charge.
        payload_bits: payload used for the round-budget estimate
            (required when ``require_round_budget``).
        bandwidth_hz: bandwidth for the round-budget estimate.
        strict: raise :class:`SelectionError` instead of falling back
            when every device is filtered out.
    """

    def __init__(
        self,
        inner: SelectionStrategy,
        min_level: float = 0.1,
        require_round_budget: bool = False,
        payload_bits: Optional[float] = None,
        bandwidth_hz: Optional[float] = None,
        strict: bool = False,
    ) -> None:
        if not isinstance(inner, SelectionStrategy):
            raise ConfigurationError(
                f"inner must be a SelectionStrategy, got {type(inner)!r}"
            )
        if not 0.0 <= min_level <= 1.0:
            raise ConfigurationError(
                f"min_level must be in [0, 1], got {min_level}"
            )
        if require_round_budget and (
            payload_bits is None or bandwidth_hz is None
        ):
            raise ConfigurationError(
                "require_round_budget needs payload_bits and bandwidth_hz"
            )
        self.inner = inner
        self.min_level = float(min_level)
        self.require_round_budget = bool(require_round_budget)
        self.payload_bits = payload_bits
        self.bandwidth_hz = bandwidth_hz
        self.strict = bool(strict)

    def reset(self) -> None:
        """Reset the wrapped strategy."""
        self.inner.reset()

    def state_dict(self) -> Dict:
        """The wrapped strategy's checkpoint snapshot."""
        return self.inner.state_dict()

    def load_state_dict(self, state: Dict) -> None:
        """Restore the wrapped strategy's snapshot."""
        self.inner.load_state_dict(state)

    def observe_losses(self, losses: Dict[int, float]) -> None:
        """Pass the round's loss feedback to the wrapped strategy."""
        self.inner.observe_losses(losses)

    def _eligible(self, population: DevicePopulation) -> np.ndarray:
        """Boolean mask of devices allowed into the inner selection."""
        # Devices without a battery carry NaN charges, which compare
        # False here and are let through by the last line.
        ok = population.battery_level >= self.min_level
        if self.require_round_budget:
            worst_case = population.compute_energy() + population.upload_energy(
                self.payload_bits, self.bandwidth_hz
            )
            ok &= population.battery_charge >= worst_case
        return ok | np.isnan(population.battery_capacity)

    def select(
        self, round_index: int, population: DevicePopulation
    ) -> np.ndarray:
        eligible = np.flatnonzero(self._eligible(population))
        if eligible.size == 0:
            if self.strict:
                raise SelectionError(
                    "every device is below the battery eligibility threshold"
                )
            eligible = np.arange(len(population))
        # Map the inner strategy's sub-population positions back.
        return eligible[self.inner.select(round_index, population.take(eligible))]

    def __repr__(self) -> str:
        return (
            f"BatteryAwareSelection(min_level={self.min_level}, "
            f"inner={self.inner!r})"
        )
