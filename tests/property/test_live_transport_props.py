"""The live transport sends by the simulated transport's rules.

Over drawn small mesh, ring and random topologies with crashed nodes and
failed links, the same send script runs through
:class:`~repro.network.transport.Transport` on the simulator and through
:class:`~repro.live.transport.LiveTransport` (``inproc``, zero latency)
on the live scheduler, both with one fixed-cost :class:`CostModel` and
the same liveness predicates.  Every run must give the same send return
values, the same ``on_cost`` charges, the same
``sent``/``delivered``/``dropped`` counters and the same multiset of
delivered ``(src, dst, kind)``.  Partitions and failed links are where a
transport with its own flood and unicast rules would differ: floods
must reach only the sender's live component and charge its links.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveTransport
from repro.network.generators import mesh, random_regularish, ring
from repro.network.transport import CostModel, Transport, UnicastCostMode
from repro.sim.kernel import Simulator

TOPOLOGIES = {
    "mesh": lambda: mesh(3, 3),
    "ring": lambda: ring(8),
    "random": lambda: random_regularish(10, 3, rng=np.random.default_rng(3)),
}
KINDS = ("A", "B")


def sends(nodes):
    return st.lists(
        st.tuples(
            st.sampled_from(["unicast", "flood", "neighbors", "multicast"]),
            st.sampled_from(nodes),  # source
            # the first is a unicast's destination; multicasts also
            # name ids outside the overlay, which both transports skip
            st.lists(st.integers(0, 11), min_size=1, max_size=4).map(
                lambda ds: [nodes[ds[0] % len(nodes)]] + ds[1:]
            ),
            st.sampled_from(KINDS),
        ),
        min_size=1,
        max_size=8,
    )


def _cost_model() -> CostModel:
    return CostModel(unicast_mode=UnicastCostMode.FIXED, fixed_unicast_cost=2.0)


def _script(transport, registered, script):
    """Register handlers and run ``script``; return (returns, log)."""
    log = []
    for nid, kind in registered:
        transport.register(nid, kind, lambda d: log.append((d.src, d.dst, d.kind)))
    returns = []
    for op, src, dests, kind in script:
        if op == "unicast":
            returns.append(transport.unicast(src, dests[0], kind, None))
        elif op == "multicast":
            returns.append(transport.multicast(src, dests, kind, None))
        else:
            returns.append(
                transport.flood(src, kind, None, neighbors_only=op == "neighbors")
            )
    return returns, log


def _counters(transport):
    return (
        transport.sent_messages,
        transport.delivered_messages,
        transport.dropped_messages,
    )


def _sim_run(topology, crashed, failed, registered, script):
    topo = TOPOLOGIES[topology]()
    sim = Simulator(seed=0)
    charges = []
    transport = Transport(
        sim,
        topo,
        is_up=lambda n: n not in crashed,
        link_up=lambda u, v: frozenset((u, v)) not in failed,
        cost_model=_cost_model(),
        on_cost=lambda kind, cost: charges.append((kind, cost)),
    )
    returns, log = _script(transport, registered, script)
    sim.run()
    return returns, charges, _counters(transport), Counter(log)


def _live_run(topology, crashed, failed, registered, script):
    topo = TOPOLOGIES[topology]()
    charges = []

    async def run():
        transport = LiveTransport(
            LiveScheduler(time_scale=1000.0),
            topo,
            is_up=lambda n: n not in crashed,
            link_up=lambda u, v: frozenset((u, v)) not in failed,
            cost_model=_cost_model(),
            latency=0.0,
            on_cost=lambda kind, cost: charges.append((kind, cost)),
        )
        await transport.start()
        try:
            returns, log = _script(transport, registered, script)
        finally:
            # closing drains every mailbox before its node task exits
            await transport.aclose()
        return returns, transport, log

    returns, transport, log = asyncio.run(run())
    assert transport.handler_error is None
    return returns, charges, _counters(transport), Counter(log)


@st.composite
def scenarios(draw):
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[topology]()
    links = [frozenset(link) for link in topo.links()]
    crashed = draw(st.sets(st.sampled_from(topo.nodes()), max_size=3))
    failed = draw(st.sets(st.sampled_from(links), max_size=4))
    registered = draw(
        st.sets(st.tuples(st.sampled_from(topo.nodes()), st.sampled_from(KINDS)),
                min_size=1)
    )
    return topology, crashed, failed, registered, draw(sends(topo.nodes()))


@given(scenario=scenarios())
@settings(max_examples=60, deadline=None)
def test_live_transport_matches_simulated_transport(scenario):
    assert _live_run(*scenario) == _sim_run(*scenario)


def test_partitioned_flood_reaches_and_charges_the_live_component():
    # ring(8) cut at links 1-2 and 5-6: node 0's component is
    # {6, 7, 0, 1} with three links; nodes 2..5 are out of reach
    registered = {(n, "A") for n in range(8)}
    scenario = (
        "ring", set(), {frozenset((1, 2)), frozenset((5, 6))}, registered,
        [("flood", 0, [0], "A"), ("unicast", 0, [3], "A")],
    )
    live = _live_run(*scenario)
    assert live == _sim_run(*scenario)
    returns, charges, counters, _log = live
    assert returns == [[1, 6, 7], False]
    assert charges == [("A", 3.0), ("A", 2.0)]
    assert counters == (2, 3, 1)
