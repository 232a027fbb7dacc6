"""Grouped delivery is observationally identical to per-receiver delivery.

The transport schedules a send as one kernel event per arrival instant.
The per-receiver schedule it replaced is kept as a test reference
(:class:`tests.reference_transport.PerReceiverTransport`); over drawn
small topologies, per-hop latencies, impairments, send scripts and
handlers that crash or unregister a later receiver mid-group, both must
deliver the same ``(time, src, dst, kind)`` sequence with the same
``sent``/``delivered``/``dropped`` counters.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.generators import mesh, random_regularish, torus
from repro.network.impairments import ImpairmentConfig, NetworkImpairments
from repro.network.transport import Transport
from repro.sim.events import Priority
from repro.sim.kernel import Simulator

from tests.reference_transport import PerReceiverTransport

TOPOLOGIES = {
    "mesh": lambda: mesh(3, 3),
    "torus": lambda: torus(3, 4),
    "random": lambda: random_regularish(10, 3, rng=np.random.default_rng(5)),
}

IMPAIRED = ImpairmentConfig(loss_rate=0.2, jitter=0.005, duplicate_rate=0.3)

sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.005, 0.01]),  # send time
        st.sampled_from(["flood", "neighbors", "unicast", "multicast"]),
        st.integers(0, 9),  # source
        st.lists(st.integers(0, 9), min_size=1, max_size=4),  # destinations
    ),
    min_size=1,
    max_size=6,
)

#: node -> what its handler does on every delivery of kind "M"
actions = st.dictionaries(
    st.integers(0, 8),
    st.tuples(st.sampled_from(["crash", "unregister", "reply"]), st.integers(1, 9)),
    max_size=4,
)


def _run(transport_cls, topology, latency, impaired, script, behaviour, seed):
    sim = Simulator(seed=0)
    topo = TOPOLOGIES[topology]()
    nodes = topo.nodes()
    down = set()
    transport = transport_cls(
        sim,
        topo,
        is_up=lambda n: n not in down,
        liveness_version=lambda: len(down),
        per_hop_latency=latency,
        impairments=(
            NetworkImpairments(IMPAIRED, np.random.default_rng(seed))
            if impaired else None
        ),
    )
    log = []

    def handler(node):
        action, offset = behaviour.get(node, (None, 0))
        # a later receiver: higher id, so later in a flood's sorted group
        target = nodes[min(nodes.index(node) + offset, len(nodes) - 1)]

        def on_message(d):
            log.append((sim.now, d.src, d.dst, d.kind))
            if d.kind != "M":
                return
            if action == "crash":
                down.add(target)
            elif action == "unregister":
                transport.unregister(target)
            elif action == "reply":
                transport.unicast(node, d.src, "R", None)

        return on_message

    for node in nodes:
        h = handler(node)
        transport.register(node, "M", h)
        transport.register(node, "R", h)

    def send(op, src, dests):
        src = nodes[src % len(nodes)]
        dests = [nodes[d % len(nodes)] for d in dests]
        if op == "flood":
            transport.flood(src, "M", None)
        elif op == "neighbors":
            transport.flood(src, "M", None, neighbors_only=True)
        elif op == "unicast":
            transport.unicast(src, dests[0], "M", None)
        else:
            transport.multicast(src, dests, "M", None)

    for t, op, src, dests in script:
        sim.at(t, send, op, src, dests, priority=Priority.MESSAGE)
    sim.run()
    counters = (
        transport.sent_messages,
        transport.delivered_messages,
        transport.dropped_messages,
    )
    return log, counters, sim.events_executed


class TestGroupedEqualsPerReceiver:
    @settings(max_examples=80, deadline=None)
    @given(
        topology=st.sampled_from(sorted(TOPOLOGIES)),
        latency=st.sampled_from([0.0, 0.01]),
        impaired=st.booleans(),
        script=sends,
        behaviour=actions,
        seed=st.integers(0, 2**16),
    )
    def test_same_deliveries_and_counters(
        self, topology, latency, impaired, script, behaviour, seed
    ):
        args = (topology, latency, impaired, script, behaviour, seed)
        grouped_log, grouped_counters, grouped_events = _run(Transport, *args)
        reference_log, reference_counters, reference_events = _run(
            PerReceiverTransport, *args
        )
        assert grouped_log == reference_log
        assert grouped_counters == reference_counters
        assert grouped_events <= reference_events

    def test_different_delays_one_arrival_instant(self):
        """Depths 1-4 at a 1e-17 s hop latency are different delays that
        all round to the same arrival time at t=1: grouping by the time
        keeps receiver order, where grouping by delay would not."""
        latency = 1e-17
        assert latency * 1 != latency * 2
        assert 1.0 + latency * 1 == 1.0 + latency * 2 == 1.0 + latency * 4

        def run(cls):
            sim = Simulator()
            topo = mesh(3, 3)
            transport = cls(sim, topo, per_hop_latency=latency)
            log = []
            for node in topo.nodes():
                transport.register(
                    node, "M", lambda d: log.append((sim.now, d.src, d.dst, d.kind))
                )
            sim.at(1.0, transport.flood, 0, "M", None)
            sim.run()
            return log, sim.events_executed

        grouped, grouped_events = run(Transport)
        reference, reference_events = run(PerReceiverTransport)
        assert grouped == reference
        assert [dst for _, _, dst, _ in grouped] == list(range(1, 9))
        assert {t for t, _, _, _ in grouped} == {1.0}
        assert grouped_events == 2  # the send, then one delivery event
        assert reference_events == 9
