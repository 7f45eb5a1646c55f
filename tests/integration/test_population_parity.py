"""Parity suite: the population scheduler kernels, bit for bit.

Two kinds of oracle pin the array code the trainer schedules with:

* the scalar per-device loops in :mod:`tests.scalar_oracles` — Eq. (20)
  utilities, Algorithm 2 rounds, Algorithm 3, TDMA staging and
  over-selection are diffed against them to the last bit on seeded
  random fleets (plain and sharded, clamped and quantized);
* golden digests of whole training runs — the sha256 of
  ``TrainingHistory.to_json()`` plus the ledger's exact total joules —
  recorded while the per-device object scheduler still shipped as a
  runtime option and was proven bitwise identical to the population
  path. They cover fading channels, seeded fault plans, every
  execution backend, and every selection strategy and frequency
  policy, so any drift in selection, DVFS, staging, fault handling or
  battery accounting fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.fedcs import FedCsSelection
from repro.baselines.registry import build_strategy
from repro.core.frequency import HelcflDvfsPolicy, determine_frequencies
from repro.core.selection import GreedyDecaySelection
from repro.core.utility import utility_scores
from repro.data.dataset import ArrayDataset
from repro.devices.fleet import FleetSpec, make_fleet
from repro.devices.population import DevicePopulation
from repro.extensions.battery_aware import BatteryAwareSelection
from repro.extensions.oort import OortSelection
from repro.faults import (
    BatteryDeathFault,
    ChannelFault,
    DropoutFault,
    FaultPlan,
    StragglerFault,
)
from repro.fl.server import FederatedServer
from repro.fl.strategy import over_selection_extras_population
from repro.fl.trainer import FederatedTrainer, TrainerConfig
from repro.network.channel import RayleighFadingChannel
from repro.network.tdma import _stage_population, simulate_tdma_round
from repro.nn.architectures import build_mlp
from tests.backends import PARITY_BACKENDS, make_backend
from tests.scalar_oracles import (
    object_determine_frequencies,
    object_greedy_decay_rounds,
    object_over_selection_extras,
    object_tdma_staging,
    object_utility_scores,
)

PAYLOAD = 1e6
BANDWIDTH = 2e6
SEEDS = (0, 1, 2)

# Recorded runs: (sha256 of the history JSON, ledger total joules as
# float.hex()). Every execution backend produces the "faults2" digest.
TRAINER_GOLDENS = {
    "seed0": (
        "f89bbf1c76e7747499dd0826e2bedc20a58a2ce44ba16006c6e4002af796ec14",
        "0x1.1b357b0e6827ap+1",
    ),
    "seed1": (
        "06df83ccccb35c0537eee361080a71aefb5564b483a80e8db27b5a508109a520",
        "0x1.ac87e41d98e3cp+1",
    ),
    "seed2": (
        "ab763f9e4d54855707cb3308fb530305c275e047a16b90a06a3f1417ca0e4a50",
        "0x1.fec411d57f84fp+1",
    ),
    "faults9": (
        "32f99b42b291e026bcf1ff9c114177efefe6c98f7121a0628ecbdd9050e0a88a",
        "0x1.90221c55cefeep+2",
    ),
    "faults2": (
        "6ac6ed9e2f91ffd6f2c1b66c0f15a609297515e014e93facb4c04c6f6e10b394",
        "0x1.3af2e7c1d0afep+2",
    ),
}

SCHEME_GOLDENS = {
    "helcfl-nodvfs": (
        "a6dcfa649deca1ed6c139096fc4f70dbc025a13cda0367995418912c27663747",
        "0x1.b90d5048a0b0cp+2",
    ),
    "classic": (
        "7ad7fdeb8c1afd3ec3f59692eb25e3c2133ce6eafca55ca44b9c69269f8cd02c",
        "0x1.6e0611bd9c06fp+2",
    ),
    "fedcs": (
        "c29233742c029ba853249831d6c939d780eadca924e41fda1aa0a71962cf3ede",
        "0x1.64bfb74e66ed8p+2",
    ),
    "fedl": (
        "a430f267723f2bc37d63aec400a42fc6affe82b4f0aa75c437d24a7c7bdca251",
        "0x1.788d8669c5398p+1",
    ),
    "full": (
        "8f85a253fdbc90257c573ac0f326e75f35ada0e03003b35473cae226451f4976",
        "0x1.a9da9f258750ap+3",
    ),
    "oort": (
        "5de11d27546da87a868f64e477c540da1c61d16682c5a731051c73e8baddd036",
        "0x1.564e4abf752f9p+2",
    ),
    "battery-helcfl": (
        "5a26e40aaaba9a57971b46a4cfe2d28b16d05be0d20113480e0d444b8dd137bb",
        "0x1.0988ee93d8db7p+2",
    ),
}


def random_fleet(seed, count=40, ladders=False, battery_j=None):
    """A seeded heterogeneous fleet with varied dataset sizes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 200, size=count)
    partitions = [
        ArrayDataset(
            rng.normal(size=(int(s), 4)), rng.integers(0, 3, size=int(s))
        )
        for s in sizes
    ]
    spec = FleetSpec(
        channel_gain_range=(1e-7, 1e-6),
        frequency_levels=(0.25, 0.5, 0.75, 1.0) if ladders else None,
        battery_capacity_j=battery_j,
    )
    return make_fleet(partitions, spec, seed=seed + 1000)


def lossy_plan(extra=()):
    return FaultPlan(
        seed=21,
        faults=(
            DropoutFault(phase="before_compute", probability=0.2),
            DropoutFault(
                phase="during_compute", progress=0.5, probability=0.1
            ),
            StragglerFault(slowdown=2.0, probability=0.2),
            ChannelFault(mode="degrade", rate_scale=0.5, probability=0.2),
            ChannelFault(mode="outage", probability=0.1),
        )
        + tuple(extra),
    )


def _scheme(name, devices, seed):
    """(selection, frequency policy) for one golden scheme."""
    if name == "helcfl":
        return (
            GreedyDecaySelection(0.4, 0.7, PAYLOAD, BANDWIDTH),
            HelcflDvfsPolicy(),
        )
    if name == "oort":
        return (
            OortSelection(0.4, PAYLOAD, BANDWIDTH, seed=seed + 5),
            HelcflDvfsPolicy(),
        )
    if name == "fedcs":
        # A deadline that binds under the faded gains (the registry
        # derives its deadline from the pre-fading fleet).
        return (
            FedCsSelection(
                0.9,
                PAYLOAD,
                BANDWIDTH,
                candidate_fraction=0.75,
                seed=seed + 5,
            ),
            None,
        )
    if name == "battery-helcfl":
        inner = GreedyDecaySelection(0.4, 0.7, PAYLOAD, BANDWIDTH)
        return (
            BatteryAwareSelection(
                inner,
                min_level=0.35,
                require_round_budget=True,
                payload_bits=PAYLOAD,
                bandwidth_hz=BANDWIDTH,
            ),
            HelcflDvfsPolicy(),
        )
    selection, policy = build_strategy(
        name,
        devices=devices,
        fraction=0.4,
        payload_bits=PAYLOAD,
        bandwidth_hz=BANDWIDTH,
        decay=0.7,
        seed=seed + 5,
    )
    return selection, policy


def build_run(
    seed,
    scheme="helcfl",
    backend=None,
    faults=None,
    rounds=4,
    battery_j=None,
    fading=True,
):
    """One short seeded run's trainer (per-round fading unless
    ``fading`` is off, a round deadline, one-device over-selection)."""
    devices = random_fleet(seed, count=12, battery_j=battery_j)
    rng = np.random.default_rng(seed + 77)
    test = ArrayDataset(
        rng.normal(size=(40, 4)), rng.integers(0, 3, size=40)
    )
    model = build_mlp(4, 3, hidden_sizes=(8,), seed=seed)
    server = FederatedServer(model, test_dataset=test, payload_bits=PAYLOAD)
    selection, policy = _scheme(scheme, devices, seed)
    return FederatedTrainer(
        server=server,
        devices=devices,
        selection=selection,
        frequency_policy=policy,
        config=TrainerConfig(
            rounds=rounds,
            bandwidth_hz=BANDWIDTH,
            learning_rate=0.2,
            over_select_margin=1,
            round_deadline_s=80.0,
            enforce_battery=battery_j is not None,
        ),
        channel_models=(
            {
                d.device_id: RayleighFadingChannel(
                    mean_gain=1.0, seed=300 + d.device_id
                )
                for d in devices
            }
            if fading
            else None
        ),
        backend=backend,
        faults=faults,
    )


def digest(history, trainer):
    """(sha256 of the history JSON, exact ledger total as float.hex)."""
    sha = hashlib.sha256(history.to_json().encode("utf-8")).hexdigest()
    return sha, float(trainer.ledger.total_joules).hex()


def run_digest(seed, **kwargs):
    trainer = build_run(seed, **kwargs)
    return digest(trainer.run(), trainer)


class TestUtilityParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scores_bitwise_equal(self, seed):
        devices = random_fleet(seed)
        population = DevicePopulation.from_devices(devices)
        rng = np.random.default_rng(seed)
        counts = {
            d.device_id: int(rng.integers(0, 6)) for d in devices
        }
        by_id = object_utility_scores(
            devices, counts, PAYLOAD, BANDWIDTH, 0.7
        )
        array = utility_scores(population, counts, PAYLOAD, BANDWIDTH, 0.7)
        for position, device in enumerate(devices):
            assert array[position] == by_id[device.device_id]


class TestSelectionParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rounds_of_selection_bitwise_equal(self, seed):
        devices = random_fleet(seed)
        population = DevicePopulation.from_devices(devices)
        strategy = GreedyDecaySelection(0.2, 0.6, PAYLOAD, BANDWIDTH)
        expected = object_greedy_decay_rounds(
            devices, 15, 0.2, PAYLOAD, BANDWIDTH, 0.6
        )
        for round_index, picked in enumerate(expected, start=1):
            positions = strategy.select(round_index, population)
            assert population.device_ids[positions].tolist() == [
                d.device_id for d in picked
            ]

    @pytest.mark.parametrize("shard_size", (1, 7, 16, 1000))
    def test_sharded_equals_plain(self, shard_size):
        devices = random_fleet(3)
        population = DevicePopulation.from_devices(devices)
        plain = GreedyDecaySelection(0.25, 0.6, PAYLOAD, BANDWIDTH)
        sharded = GreedyDecaySelection(
            0.25, 0.6, PAYLOAD, BANDWIDTH, shard_size=shard_size
        )
        for round_index in range(1, 11):
            assert np.array_equal(
                plain.select(round_index, population),
                sharded.select(round_index, population),
            )

    @pytest.mark.parametrize("margin", (0, 1, 5, 100))
    def test_over_selection_extras_bitwise_equal(self, margin):
        devices = random_fleet(6)
        population = DevicePopulation.from_devices(devices)
        positions = np.array([3, 17, 8])
        expected = object_over_selection_extras(
            devices,
            [devices[p] for p in positions],
            margin,
            PAYLOAD,
            BANDWIDTH,
        )
        extras = over_selection_extras_population(
            population, positions, margin, PAYLOAD, BANDWIDTH
        )
        assert population.device_ids[extras].tolist() == [
            d.device_id for d in expected
        ]


class TestFrequencyParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "clamp,quantize", ((True, False), (False, False), (True, True))
    )
    def test_algorithm3_bitwise_equal(self, seed, clamp, quantize):
        devices = random_fleet(seed, ladders=quantize)
        population = DevicePopulation.from_devices(devices)
        by_id = object_determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, clamp=clamp, quantize=quantize
        )
        # Same keys, same chain order, same floats.
        for selected in (population, devices):
            keyed = determine_frequencies(
                selected, PAYLOAD, BANDWIDTH, clamp=clamp, quantize=quantize
            )
            assert list(keyed.items()) == list(by_id.items())

    def test_policy_dict_matches_object_path_exactly(self):
        devices = random_fleet(4, ladders=True)
        population = DevicePopulation.from_devices(devices)
        via_objects = object_determine_frequencies(
            devices, PAYLOAD, BANDWIDTH, quantize=True
        )
        via_population = HelcflDvfsPolicy(quantize=True).assign(
            population, PAYLOAD, BANDWIDTH
        )
        assert via_population == via_objects
        # Key order is part of the trace contract.
        assert list(via_population) == list(via_objects)


class TestTdmaParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_timeline_bitwise_equal(self, seed):
        devices = random_fleet(seed, count=20)
        population = DevicePopulation.from_devices(devices)
        frequencies = object_determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        assert _stage_population(
            population, PAYLOAD, BANDWIDTH, frequencies, {}
        ) == object_tdma_staging(devices, PAYLOAD, BANDWIDTH, frequencies, {})
        assert simulate_tdma_round(
            devices, PAYLOAD, BANDWIDTH, frequencies
        ) == simulate_tdma_round(population, PAYLOAD, BANDWIDTH, frequencies)

    def test_timeline_with_faults_bitwise_equal(self):
        devices = random_fleet(5, count=16)
        population = DevicePopulation.from_devices(devices)
        frequencies = object_determine_frequencies(devices, PAYLOAD, BANDWIDTH)
        ids = [d.device_id for d in devices]
        payloads = {ids[4]: 0.25 * PAYLOAD, ids[5]: 3.0 * PAYLOAD}
        assert _stage_population(
            population, PAYLOAD, BANDWIDTH, frequencies, payloads
        ) == object_tdma_staging(
            devices, PAYLOAD, BANDWIDTH, frequencies, payloads
        )
        kwargs = dict(
            compute_scale={ids[0]: 2.0},
            drop_during={ids[1]: 0.5},
            upload_outage={ids[2]},
            upload_scale={ids[3]: 0.5},
            round_deadline=30.0,
        )
        assert simulate_tdma_round(
            devices, PAYLOAD, BANDWIDTH, frequencies, payloads, **kwargs
        ) == simulate_tdma_round(
            population, PAYLOAD, BANDWIDTH, frequencies, payloads, **kwargs
        )


class TestTrainerParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_histories_and_ledgers_bitwise_equal(self, seed):
        assert run_digest(seed) == TRAINER_GOLDENS[f"seed{seed}"]

    def test_parity_holds_under_seeded_faults(self):
        assert run_digest(9, faults=lossy_plan()) == TRAINER_GOLDENS["faults9"]

    @pytest.mark.parametrize("backend_name", PARITY_BACKENDS)
    def test_parity_on_every_backend(self, backend_name):
        with make_backend(backend_name, workers=2) as backend:
            got = run_digest(2, backend=backend, faults=lossy_plan())
        assert got == TRAINER_GOLDENS["faults2"]


class TestSchemeGoldens:
    @pytest.mark.parametrize(
        "scheme", ("helcfl-nodvfs", "classic", "fedcs", "fedl", "full", "oort")
    )
    def test_faulted_scheme(self, scheme):
        got = run_digest(4, scheme=scheme, rounds=6, faults=lossy_plan())
        assert got == SCHEME_GOLDENS[scheme]

    def test_battery_aware_helcfl_with_enforced_batteries(self):
        got = run_digest(
            3,
            scheme="battery-helcfl",
            rounds=8,
            battery_j=0.6,
            faults=lossy_plan((BatteryDeathFault(probability=0.05),)),
        )
        assert got == SCHEME_GOLDENS["battery-helcfl"]
