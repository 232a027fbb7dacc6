"""The live runtime is assembled by the simulator's own assembler.

Structural parity: one :class:`ExperimentConfig` built through
``build_system`` and through ``LiveRuntime`` yields the same per-node
hosts (fleet draws and resource pools included) and the same migration
coordinator.  Settings the live transport has no route for are refused
by ``LiveConfig`` with the offending field named.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.live import LiveConfig, LiveRuntime
from repro.network.impairments import ImpairmentConfig
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig, FleetSpec

MIXED = ExperimentConfig(
    nodes=16,
    arrival_rate=8.0,
    horizon=5.0,
    seed=11,
    extra_resources=(("bandwidth", 100.0), ("memory", 64.0)),
    demand_means=(("bandwidth", 10.0),),
    fleet=FleetConfig(
        name="mixed",
        capacity=FleetSpec("uniform", (60.0, 140.0)),
        speed=FleetSpec("choice", (0.5, 1.0, 2.0)),
        threshold=FleetSpec("uniform", (0.85, 0.95)),
        resource_scale=FleetSpec("uniform", (0.5, 2.0)),
    ),
    migration_retry_budget=1,
)


def _node_specs(hosts):
    return {
        nid: (
            host.queue.capacity,
            host.monitor.threshold,
            host.queue.speed,
            None if host.pool is None else dict(host.pool.specs),
        )
        for nid, host in hosts.items()
    }


def test_live_and_sim_assemble_the_same_system():
    sim = build_system(MIXED)
    live = LiveRuntime(LiveConfig(experiment=MIXED)).system
    sim_specs = _node_specs(sim.hosts)
    assert _node_specs(live.hosts) == sim_specs
    # the config really is heterogeneous and pooled, so equality means
    # something
    assert len({spec[0] for spec in sim_specs.values()}) > 1
    assert all(spec[3] for spec in sim_specs.values())
    assert (
        live.coordinator.silent_retry_budget
        == sim.coordinator.silent_retry_budget
        == 1
    )


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("unicast_cost", {"unicast_cost": "hops"}),
        ("impairments", {"impairments": ImpairmentConfig(loss_rate=0.1)}),
        ("per_hop_latency", {"per_hop_latency": 0.01}),
        ("churn", {"churn": ChurnConfig(join_rate=0.1)}),
    ],
)
def test_live_config_rejects_what_live_cannot_honour(field, overrides):
    with pytest.raises(ValueError, match=field):
        LiveConfig(experiment=ExperimentConfig(**overrides))
