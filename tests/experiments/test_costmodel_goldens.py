"""Golden values of the training-free paper-scale cost model.

These are the exact floats behind EXPERIMENTS.md's "Paper-scale cost
model" and "Scalability" tables (Eqs. 4–11, Algorithms 2–3, the
Classic/FedCS/FEDL baselines). They carry no tolerance: any change to
the cost model, a scheduler, or the study's RNG plumbing must update
them here, visibly.

Each summary is ``(round delay, round energy, slack, saving)`` with
every entry a ``(mean, std)`` pair.
"""

import pytest

from repro.experiments.costmodel import run_cost_model_study

PAPER_SCALE = {
    "helcfl": (
        (48.21563052327285, 0.17300071218854549),
        (11.511585378488746, 0.22503962615249468),
        (93.67764918686854, 1.052597953040048),
        (0.49668513745189663, 0.04515857262612206),
    ),
    "classic": (
        (48.24578471441056, 0.23052359028388167),
        (16.866324361130754, 1.8249740282363334),
        (175.28213490242535, 10.948860513347645),
        (0.0, 0.0),
    ),
    "fedcs": (
        (48.05392379127499, 0.02513008374883936),
        (27.401355123674122, 0.6195668164123835),
        (203.92660853796028, 0.42219415553353007),
        (0.0, 0.0),
    ),
    "fedl": (
        (50.53404973939059, 1.4210854715202004e-14),
        (13.050556574357694, 0.5271676979680909),
        (190.26517708203662, 9.069032554419946),
        (0.22331435928776494, 0.06426726295449739),
    ),
}

HELCFL_BY_Q = {
    50: (
        (25.471497998236767, 0.22829765520778025),
        (6.711971083835827, 0.2560909412403556),
        (4.2706817671900446, 0.31883504056883477),
        (0.4328071600821611, 0.046868713649784975),
    ),
    100: (
        (48.1835268804233, 0.1370348797138842),
        (11.5499648590486, 0.1893428651301821),
        (93.47965682981958, 0.8222092782833024),
        (0.5228949824188626, 0.035879991333021145),
    ),
    200: (
        (93.72478366643377, 0.14718332140257737),
        (21.09852032081589, 0.2023436014389382),
        (613.6667955405618, 2.354933142441248),
        (0.5571322385597365, 0.03556565669909315),
    ),
}


def _fields(summary):
    return (
        summary.round_delay_s,
        summary.round_energy_j,
        summary.slack_s,
        summary.dvfs_saving_fraction,
    )


def test_paper_scale_table_is_pinned():
    result = run_cost_model_study(
        strategies=("helcfl", "classic", "fedcs", "fedl"),
        trials=15,
        rounds_per_trial=10,
        seed=7,
    )
    assert {
        name: _fields(summary) for name, summary in result.summaries.items()
    } == PAPER_SCALE


@pytest.mark.parametrize("num_users", sorted(HELCFL_BY_Q))
def test_population_sweep_is_pinned(num_users):
    result = run_cost_model_study(
        strategies=("helcfl",),
        num_users=num_users,
        trials=8,
        rounds_per_trial=6,
        seed=7,
    )
    assert _fields(result.summaries["helcfl"]) == HELCFL_BY_Q[num_users]
