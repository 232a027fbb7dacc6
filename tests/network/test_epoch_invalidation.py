"""Regression tests: epoch-scoped flood structure vs. liveness changes.

The transport's live router derives its overlay — distance rows,
component labels, receiver tuples, link counts — per *liveness epoch*,
the ``(topology version, fault-manager version)`` key.  These tests pin
the invalidation contract the caching must honour: failing a bridge link
mid-run partitions every subsequent flood, restoring it reconnects them,
and the live router's distances flip in the same stroke.  A stale epoch
here would silently deliver floods across a dead link — the exact bug
class the epoch key exists to prevent.
"""

from __future__ import annotations

from repro.network.faults import FaultManager
from repro.network.topology import Topology
from repro.network.transport import Transport
from repro.sim.kernel import Simulator


def two_triangles_with_bridge() -> Topology:
    """0-1-2 and 3-4-5 triangles joined by the single bridge link 2-3."""
    topo = Topology(nodes=range(6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
        topo.add_link(a, b)
    return topo


def wired_transport():
    sim = Simulator()
    topo = two_triangles_with_bridge()
    faults = FaultManager(sim, topo)
    costs = []
    transport = Transport(
        sim,
        topo,
        is_up=faults.can_communicate,
        link_up=faults.link_up,
        liveness_version=lambda: faults.version,
        on_cost=lambda kind, cost: costs.append((kind, cost)),
    )
    received = []
    for node in range(6):
        transport.register(
            node, "adv", lambda d: received.append((d.dst, d.payload))
        )
    return sim, faults, transport, received, costs


class TestBridgePartition:
    def test_flood_partitions_and_reconnects_mid_run(self):
        """Fail the bridge between floods of one run; every flood sees
        the overlay as it is *at delivery time*, not as it was cached."""
        sim, faults, transport, received, costs = wired_transport()

        sim.after(1.0, lambda: transport.flood(0, "adv", "before"))
        sim.after(2.0, lambda: faults.fail_link(2, 3))
        sim.after(3.0, lambda: transport.flood(0, "adv", "cut"))
        sim.after(3.5, lambda: transport.flood(4, "adv", "farside"))
        sim.after(4.0, lambda: faults.restore_link(2, 3))
        sim.after(5.0, lambda: transport.flood(0, "adv", "after"))
        sim.run()

        by_payload = {}
        for dst, payload in received:
            by_payload.setdefault(payload, set()).add(dst)
        assert by_payload["before"] == {1, 2, 3, 4, 5}
        # the cut flood stops at the bridge; the far side floods among itself
        assert by_payload["cut"] == {1, 2}
        assert by_payload["farside"] == {3, 5}
        assert by_payload["after"] == {1, 2, 3, 4, 5}

    def test_flood_cost_tracks_live_component_links(self):
        """Paper accounting: a flood costs the #links of the sender's live
        component — 7 connected, 3 per triangle while partitioned."""
        sim, faults, transport, received, costs = wired_transport()
        transport.flood(0, "adv", None)
        sim.run()
        faults.fail_link(2, 3)
        transport.flood(0, "adv", None)
        transport.flood(4, "adv", None)
        sim.run()
        faults.restore_link(2, 3)
        transport.flood(0, "adv", None)
        sim.run()
        assert [c for _, c in costs] == [7.0, 3.0, 3.0, 7.0]

    def test_live_router_invalidates_with_the_same_epoch(self):
        sim, faults, transport, received, costs = wired_transport()
        assert transport.live_router().distance(0, 5) == 3
        faults.fail_link(2, 3)
        assert transport.live_router().distance(0, 5) == -1
        assert transport.live_router().distance(0, 1) == 1
        faults.restore_link(2, 3)
        assert transport.live_router().distance(0, 5) == 3

    def test_unicast_across_failed_bridge_is_dropped_and_charged(self):
        sim, faults, transport, received, costs = wired_transport()
        faults.fail_link(2, 3)
        ok = transport.unicast(0, 5, "adv", "x")
        sim.run()
        assert not ok
        assert transport.dropped_messages == 1
        assert received == []
        # the attempt still costs: packets traverse until dropped
        assert len(costs) == 1 and costs[0][1] >= 1.0

    def test_crash_also_moves_the_epoch(self):
        """Node liveness rides the same version counter as links."""
        sim, faults, transport, received, costs = wired_transport()
        transport.flood(0, "adv", "a")
        sim.run()
        faults.crash(4)
        transport.flood(0, "adv", "b")
        sim.run()
        got_b = {dst for dst, p in received if p == "b"}
        assert got_b == {1, 2, 3, 5}
        faults.recover(4)
        transport.flood(0, "adv", "c")
        sim.run()
        got_c = {dst for dst, p in received if p == "c"}
        assert got_c == {1, 2, 3, 4, 5}

    def test_topology_growth_moves_the_epoch(self):
        """The epoch key's other half: topology mutations drop the caches."""
        sim, faults, transport, received, costs = wired_transport()
        transport.flood(0, "adv", "a")
        sim.run()
        topo = transport.topo
        topo.add_node(6)
        topo.add_link(5, 6)
        transport.register(6, "adv", lambda d: received.append((6, d.payload)))
        transport.flood(0, "adv", "b")
        sim.run()
        got_b = {dst for dst, p in received if p == "b"}
        assert got_b == {1, 2, 3, 4, 5, 6}
