"""Message transport with the paper's cost accounting.

Section 5 of the paper counts protocol overhead as follows:

* a *flood* (HELP invitation, or a PUSH advertisement "to the network")
  costs the number of links of the overlay — each link carries the message
  exactly once (reverse-path flooding / spanning broadcast),
* a *unicast* (PLEDGE reply, admission-control negotiation) costs the
  shortest-path hop count; the paper approximates this with the network
  average (4 on the 5x5 mesh).

:class:`Transport` implements delivery plus this accounting.  Delivery
honours the fault model: crashed nodes neither send nor receive, and
floods only reach the sender's connected component of the *live* overlay.

Latency is configurable (per-hop seconds).  The paper's simulation treats
dissemination as instantaneous relative to task times, so the default is
zero latency — messages are still delivered via the event queue (never by
synchronous call) so handler re-entrancy cannot occur.

Every send is one kernel event per *arrival instant*: the receivers a
send reaches at the same absolute time are delivered in one callback,
in receiver order.  A zero-latency flood is therefore one event however
many nodes it reaches.  Per-receiver events would take consecutive seqs
at one ``(time, priority)``, so nothing could run between them; grouped,
the order is the same, and events a handler schedules at that instant
still run after the whole group.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING,
)

# Delivery and Priority live on the runtime seam (shared with the live
# transport); re-exported here for every existing import site.
from ..runtime.api import Delivery, Priority
from .impairments import NetworkImpairments
from .routing import Router
from .topology import NodeId, Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI

__all__ = ["Transport", "Delivery", "CostModel", "UnicastCostMode"]


Handler = Callable[["Delivery"], None]
#: ``(receiver, delay)`` pairs of one send, in receiver order
Arrivals = List[Tuple[NodeId, float]]
CostSink = Callable[[str, float], None]
LinkPredicate = Callable[[NodeId, NodeId], bool]


class UnicastCostMode(str, Enum):
    """How a unicast message is charged.

    ``HOPS``  — exact shortest-path hop count (our default; most faithful).
    ``MEAN``  — network mean shortest path (recomputed on topology change).
    ``FIXED`` — a constant supplied by the experiment (the paper uses 4).
    """

    HOPS = "hops"
    MEAN = "mean"
    FIXED = "fixed"


@dataclass
class CostModel:
    """Message-cost accounting parameters.

    ``flood_cost_override`` lets the cluster emulation model IP multicast
    on a LAN (one wire message regardless of group size).
    """

    unicast_mode: UnicastCostMode = UnicastCostMode.HOPS
    fixed_unicast_cost: float = 4.0
    flood_cost_override: Optional[float] = None

    def unicast_cost(self, router: Router, hops: int) -> float:
        """Charge for a delivered unicast whose route is ``hops`` long."""
        if self.unicast_mode is UnicastCostMode.FIXED:
            return self.fixed_unicast_cost
        if self.unicast_mode is UnicastCostMode.MEAN:
            return router.mean_shortest_path()
        return float(max(hops, 0))

    def dead_unicast_cost(self, router: Router, hops: int) -> float:
        """Charge for a message whose destination is dead or unreachable.

        The packets still traverse the network until dropped, so the
        attempted route is charged through the same mode switch as a
        delivered unicast.  ``hops`` is the attempted route length
        (``-1`` when no route exists at all); with no route the best
        attempt estimate is the mean path of what *is* reachable,
        floored at one hop — the packet at least leaves the source.
        """
        if self.unicast_mode is UnicastCostMode.FIXED:
            return self.fixed_unicast_cost
        if self.unicast_mode is UnicastCostMode.MEAN:
            return router.mean_shortest_path()
        if hops >= 0:
            return float(max(hops, 1))
        return max(router.mean_shortest_path(), 1.0)


class Transport:
    """Delivers messages over the live overlay and accounts their cost.

    Parameters
    ----------
    sim:
        The scheduler seam (simulation kernel, or any other
        :class:`~repro.runtime.api.SchedulerAPI`) used for delayed
        delivery.
    topo:
        The *full* overlay; liveness is consulted per send via ``is_up``.
    is_up:
        Predicate for node liveness; defaults to "always up".  The fault
        model (:mod:`repro.network.faults`) supplies the real one.
    link_up:
        Predicate ``(u, v) -> bool`` for link liveness; defaults to
        "all links up".  The fault model's
        :meth:`~repro.network.faults.FaultManager.link_up` supplies the
        real one so ``fail_link`` severs floods and unicasts (the live
        overlay is the one of
        :meth:`~repro.network.faults.FaultManager.live_topology`).
    cost_model:
        See :class:`CostModel`.
    per_hop_latency:
        Seconds of delay per hop (floods use the BFS depth per receiver).
    on_cost:
        Callback ``(message kind, cost)`` invoked once per send; the
        metrics collector hooks in here.
    impairments:
        Optional :class:`~repro.network.impairments.NetworkImpairments`.
        Installed on the delivery path only when its config enables at
        least one impairment; a ``None`` or fully-disabled engine leaves
        every path byte-identical to an impairment-free transport.
    """

    def __init__(
        self,
        sim: "SchedulerAPI",
        topo: Topology,
        *,
        is_up: Optional[Callable[[NodeId], bool]] = None,
        link_up: Optional[LinkPredicate] = None,
        liveness_version: Optional[Callable[[], int]] = None,
        cost_model: Optional[CostModel] = None,
        per_hop_latency: float = 0.0,
        on_cost: Optional[CostSink] = None,
        impairments: Optional[NetworkImpairments] = None,
    ) -> None:
        self.sim = sim
        self.topo = topo
        self.router = Router(topo)
        self.is_up = is_up if is_up is not None else (lambda _n: True)
        self.link_up = link_up
        #: liveness mutation counter; the live router re-derives its
        #: overlay when it (or the topology version) moves.  The default
        #: constant works with the default always-up predicate.
        self.liveness_version = (
            liveness_version if liveness_version is not None else (lambda: 0)
        )
        #: with neither a liveness nor a link predicate the live overlay
        #: *is* the full topology, and one router serves both
        self._live = (
            Router(topo, is_up=is_up, link_up=link_up,
                   liveness_version=self.liveness_version)
            if is_up is not None or link_up is not None
            else self.router
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.per_hop_latency = float(per_hop_latency)
        self.on_cost = on_cost
        self.impairments = impairments
        #: hot-path hook: non-None only when impairments are actually on
        self._impair = (
            impairments if impairments is not None and impairments.enabled else None
        )
        self._handlers: Dict[NodeId, Dict[str, Handler]] = {}
        self.sent_messages = 0
        self.delivered_messages = 0
        self.dropped_messages = 0

    # Registration --------------------------------------------------------

    def register(self, node: NodeId, kind: str, handler: Handler) -> None:
        """Subscribe ``handler`` to messages of ``kind`` addressed to ``node``."""
        if not self.topo.has_node(node):
            raise KeyError(f"no such node: {node}")
        self._handlers.setdefault(node, {})[kind] = handler

    def unregister(self, node: NodeId) -> None:
        """Drop all handlers of ``node`` (called when a node crashes)."""
        self._handlers.pop(node, None)

    # Sending -----------------------------------------------------------

    def unicast(self, src: NodeId, dst: NodeId, kind: str, payload: Any) -> bool:
        """Send point-to-point.  Returns ``True`` if the message was
        dispatched (receiver may still be down on arrival).

        The cost is charged iff the message leaves the source — a down
        source sends nothing and costs nothing.
        """
        if not self.is_up(src):
            return False
        if not self.topo.has_node(dst):
            raise KeyError(f"no such node: {dst}")
        self.sent_messages += 1
        if not self.is_up(dst):
            # Dead destination: the packets still traverse the (full)
            # overlay toward it until dropped; charge the attempted route
            # through the cost model's mode switch.
            hops = self.router.distance(src, dst)
            self._charge(kind, self.cost_model.dead_unicast_cost(self.router, hops))
            self.dropped_messages += 1
            return False
        router = self._live
        hops = router.distance(src, dst)
        if hops < 0:
            # Live but unreachable (partition / failed links): same
            # dead-charge path, priced on the live overlay.
            self._charge(kind, self.cost_model.dead_unicast_cost(router, hops))
            self.dropped_messages += 1
            return False
        self._charge(kind, self.cost_model.unicast_cost(router, hops))
        self._send(src, self._plan(src, dst, hops, []), kind, payload)
        return True

    def flood(
        self, src: NodeId, kind: str, payload: Any, *, neighbors_only: bool = False
    ) -> List[NodeId]:
        """Broadcast to every live node reachable from ``src``.

        Costs ``#links`` of the live component (or the override), matching
        the paper's "number of messages ... counted as the number of
        links".  With ``neighbors_only`` the delivery scope is the direct
        topology neighbours (Section 5: "the topology represents the
        limited scope of neighbors for REALTOR and all other four
        resource discovery schemes"), while the charged cost is unchanged
        ("this assumption does not affect the performance comparison").
        Returns the list of receivers.
        """
        if not self.is_up(src):
            return []
        self.sent_messages += 1
        if neighbors_only:
            link_up = self.link_up
            receivers = tuple(
                n for n in self.topo.neighbors(src)
                if self.is_up(n) and (link_up is None or link_up(src, n))
            )
            links = self._live.component(src)[1]
        else:
            receivers, links = self._flood_structure(src)
        # Hop depths are only consulted with per-hop latency or
        # impairments installed; every neighbours-only receiver is depth
        # 1.  Lookups answer in O(1) from src's row, which the component
        # query usually computed and which is otherwise computed once.
        depth = None if neighbors_only else self._live.distance
        cost = self.cost_model.flood_cost_override
        self._charge(kind, float(links) if cost is None else cost)
        if self._impair is None and self.per_hop_latency == 0.0:
            # every receiver arrives now: skip the depth lookups
            arrivals = [(dst, 0.0) for dst in receivers]
        else:
            arrivals = []
            for dst in receivers:
                self._plan(src, dst, 1 if depth is None else depth(src, dst), arrivals)
        self._send(src, arrivals, kind, payload)
        return list(receivers)

    def _flood_structure(self, src: NodeId) -> tuple:
        """(receivers, link count) of ``src``'s live component."""
        members, links = self._live.component(src)
        i = bisect_left(members, src)
        return members[:i] + members[i + 1:], links

    def multicast(
        self,
        src: NodeId,
        dests: Iterable[NodeId],
        kind: str,
        payload: Any,
        *,
        cost: Optional[float] = None,
    ) -> List[NodeId]:
        """Send to an explicit receiver set.

        Default cost is the sum of unicast costs; the cluster emulation
        passes ``cost=1.0`` to model LAN IP multicast.
        """
        if not self.is_up(src):
            return []
        self.sent_messages += 1
        router = self._live
        receivers: List[NodeId] = []
        arrivals: Arrivals = []
        total = 0.0
        for dst in sorted(set(dests)):
            if dst == src or not self.topo.has_node(dst) or not self.is_up(dst):
                continue
            hops = router.distance(src, dst)
            if hops < 0:
                continue
            total += self.cost_model.unicast_cost(router, hops)
            receivers.append(dst)
            self._plan(src, dst, hops, arrivals)
        self._charge(kind, cost if cost is not None else total)
        self._send(src, arrivals, kind, payload)
        return receivers

    # Internals ------------------------------------------------------------

    def live_router(self) -> Router:
        """Routing oracle over the live overlay.

        The full-topology router when no fault predicates are installed
        (the two are identical then); otherwise one router for the whole
        run that masks its topology CSR with the current liveness.
        """
        return self._live

    def _charge(self, kind: str, cost: float) -> None:
        if self.on_cost is not None:
            self.on_cost(kind, cost)

    def _plan(self, src: NodeId, dst: NodeId, hops: int, arrivals: Arrivals) -> Arrivals:
        """Append ``dst``'s arrivals over a ``hops``-long route; return the list.

        One arrival after the per-hop latency, unless the impairment
        engine drops the message (counted; the cost was charged at
        send), delays it, or duplicates it.
        """
        delay = self.per_hop_latency * max(hops, 0)
        if self._impair is None:
            arrivals.append((dst, delay))
            return arrivals
        extras = self._impair.plan(src, dst, hops)
        if extras is None:
            self.dropped_messages += 1
            return arrivals
        arrivals.extend((dst, delay + extra) for extra in extras)
        return arrivals

    def _send(self, src: NodeId, arrivals: Arrivals, kind: str, payload: Any) -> None:
        """Schedule one :meth:`_deliver` event per arrival instant.

        Arrivals are grouped by absolute time ``now + delay``, not by
        delay (two delays can round to the same instant); each group
        keeps receiver order.
        """
        now = self.sim.now
        groups: Dict[float, List[NodeId]] = {}
        for dst, delay in arrivals:
            groups.setdefault(now + delay, []).append(dst)
        for time, receivers in groups.items():
            self.sim.at(time, self._deliver, src, receivers, kind, payload, now,
                        priority=Priority.MESSAGE)

    def _deliver(
        self, src: NodeId, receivers: List[NodeId], kind: str, payload: Any,
        sent_at: float,
    ) -> None:
        """Event callback for one arrival instant of a send.

        Liveness and the handler table are re-checked per receiver: a
        handler earlier in the group may crash a later receiver or
        unregister its handlers.  The clock cannot move inside a group
        (``run`` is not reentrant), so it is read once.
        """
        is_up = self.is_up
        by_node = self._handlers
        now = self.sim.now
        for dst in receivers:
            if not is_up(dst):
                self.dropped_messages += 1
                continue
            handlers = by_node.get(dst)
            handler = handlers.get(kind) if handlers is not None else None
            if handler is None:
                self.dropped_messages += 1
                continue
            self.delivered_messages += 1
            handler(Delivery(src, dst, kind, payload, sent_at, now))
