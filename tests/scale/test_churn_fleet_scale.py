"""2500-node heterogeneous-fleet churn scenario: grouped ≡ per-receiver delivery.

The acceptance scenario for the fleet/churn axes at scale: a 50x50 torus
with per-node capacity/speed/threshold draws and live join/leave churn
must produce the identical event trace and run summary whether the
transport delivers each send as one event per arrival instant (the
production path) or one event per receiver (the test reference).  This
is the same observational-equivalence gate the plain fast-path suite
applies, extended to the new axes.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.workload.churn import ChurnConfig
from repro.workload.fleet import FleetConfig

from tests.reference_transport import traced_run

NODES = 2500

CFG = ExperimentConfig(
    protocol="realtor",
    topology="torus",
    nodes=NODES,
    # offered load 1.2 at task mean 5: hot nodes call for HELP, so
    # delivery and migration run, not only arrivals and churn
    arrival_rate=600.0,
    horizon=15.0,
    seed=13,
    trace=True,
    fleet=FleetConfig.heterogeneous(),
    churn=ChurnConfig(join_rate=1.0, leave_rate=0.6),
)


class TestHeterogeneousChurnAt2500:
    def test_scalar_and_batched_loops_identical(self):
        grouped = traced_run(CFG)
        reference = traced_run(CFG, reference=True)
        assert grouped[0] == reference[0]
        assert grouped[1] == reference[1]
        # the scenario must actually exercise both axes, not vacuously pass
        extra = grouped[1]["extra"]
        assert extra["churn_scheduled"] > 0
        assert extra["fleet_speed_cv"] > 0.0
        assert extra["sent_messages"] > 0
        assert extra["delivered_messages"] > 0
        assert grouped[1]["admitted_migrated"] > 0

    def test_fleet_materialisation_is_node_keyed(self):
        """Fleet draws come from per-node substreams: the same node gets
        the same parameters in two independent builds."""
        a = build_system(CFG).fleet_params
        b = build_system(CFG).fleet_params
        assert a == b
        assert len(a) >= NODES
