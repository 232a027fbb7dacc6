"""Live message transport: the simulated transport over a real wire.

:class:`LiveTransport` *is* a :class:`~repro.network.transport.Transport`.
Registration, ``unicast``/``flood``/``multicast``, cost charging,
liveness and link checks, the live-overlay router and the
``sent``/``delivered``/``dropped`` counters are all inherited, so a
live run follows the simulator's rules exactly: floods reach the
sender's component of the live overlay and charge its links (or the
cost model's override), unicasts to a partitioned or crashed node are
dropped and charged as attempted routes.  What live adds is the wire
that carries each arrival to its receiver, plus
:meth:`~repro.network.transport.Transport._deliver` on the far side:

* ``inproc`` — every node is its **own asyncio task** draining a
  mailbox queue; a send enqueues onto the destination's mailbox and the
  node task delivers it.  This is the default: no serialisation, no
  sockets, deterministic enough for the live-vs-sim equivalence tests.
* ``udp`` — every node binds a real UDP datagram endpoint on the
  loopback interface; a pickled envelope crosses the kernel socket
  layer while the payload object rides a per-message side table.
  Exercises a genuine wire (socket scheduling, kernel buffering)
  while staying single-machine.  The side table is deliberate, not a
  shortcut: the paper's admission protocol settles a migration by the
  *responder mutating the requester's Task object* (speculative
  reservation), a shared-memory contract the simulator provides by
  reference.  Serialising the payload would hand the responder a copy
  and silently break settlement, so the envelope carries only a token
  and object identity is preserved in-process.

Timing defaults come from the cluster emulation's
:class:`~repro.cluster.rmi.LanParameters` (Section 6's switched-Ethernet
testbed): the per-message one-way latency is applied in *virtual*
seconds — divided by the scheduler's ``time_scale`` on the wire — and
the default cost model is :func:`~repro.cluster.rmi.LanCostModel`
(IP-multicast flood = 1 message, switched unicast = 1 message).

A handler that raises does not take its node's mailbox down with it:
the first exception is kept in :attr:`LiveTransport.handler_error` and
the scheduler is stopped, and the live runtime re-raises it after
teardown, as an exception in a handler ends ``Simulator.run``.
"""

from __future__ import annotations

import asyncio
import pickle
from typing import Any, Callable, Dict, Optional

from ..cluster.rmi import LanCostModel, LanParameters
from ..network.topology import NodeId, Topology
from ..network.transport import Arrivals, CostModel, CostSink, LinkPredicate, Transport

from .scheduler import LiveScheduler

__all__ = ["LiveTransport", "BACKENDS"]

BACKENDS = ("inproc", "udp")

#: mailbox sentinel that terminates a node task
_SHUTDOWN = object()


class _NodeEndpoint(asyncio.DatagramProtocol):
    """Loopback UDP endpoint of one node (``udp`` backend)."""

    def __init__(self, transport_ref: "LiveTransport", node: NodeId) -> None:
        self.ref = transport_ref
        self.node = node

    def datagram_received(self, data: bytes, addr) -> None:  # pragma: no cover - thin
        try:
            src, kind, token, sent_at = pickle.loads(data)
            payload = self.ref._payloads.pop(token)
        except Exception:
            # Garbled, duplicate or forged datagram: nothing to deliver.
            self.ref.dropped_messages += 1
            return
        self.ref._arrive(self.node, src, kind, payload, sent_at)


class LiveTransport(Transport):
    """The simulated transport's rules, delivered by mailboxes or sockets.

    Parameters
    ----------
    sim:
        The live scheduler (clock + virtual/wall conversion).
    topo:
        Overlay topology, as for :class:`Transport`.
    backend:
        ``"inproc"`` (default) or ``"udp"`` — see the module docstring.
    is_up / link_up / liveness_version / on_cost:
        As for :class:`Transport`.
    cost_model:
        Defaults to :func:`~repro.cluster.rmi.LanCostModel` — the LAN
        accounting of Section 6, not the WAN hop counting of Section 5.
    lan:
        Socket timing defaults; ``lan.latency`` is the per-message
        one-way delay in virtual seconds.
    latency:
        Overrides ``lan.latency``.
    """

    def __init__(
        self,
        sim: LiveScheduler,
        topo: Topology,
        *,
        backend: str = "inproc",
        is_up: Optional[Callable[[NodeId], bool]] = None,
        link_up: Optional[LinkPredicate] = None,
        liveness_version: Optional[Callable[[], int]] = None,
        cost_model: Optional[CostModel] = None,
        lan: Optional[LanParameters] = None,
        latency: Optional[float] = None,
        on_cost: Optional[CostSink] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
        super().__init__(
            sim,
            topo,
            is_up=is_up,
            link_up=link_up,
            liveness_version=liveness_version,
            cost_model=cost_model if cost_model is not None else LanCostModel(),
            on_cost=on_cost,
        )
        self.backend = backend
        if latency is None:
            latency = (lan if lan is not None else LanParameters()).latency
        #: one-way delivery delay, virtual seconds (LAN default 0.2 ms)
        self.latency = float(latency)
        #: first exception a message handler raised (None while all is well)
        self.handler_error: Optional[Exception] = None
        self._mailboxes: Dict[NodeId, asyncio.Queue] = {}
        self._node_tasks: Dict[NodeId, asyncio.Task] = {}
        self._endpoints: Dict[NodeId, tuple] = {}  # node -> (transport, addr)
        # udp backend: in-flight payload objects keyed by wire token (see
        # the module docstring for why payloads never get pickled).
        self._payloads: Dict[int, Any] = {}
        self._next_token = 0
        self._started = False
        self._closed = False

    # Lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up one mailbox task (or UDP endpoint) per overlay node."""
        if self._started:
            raise RuntimeError("transport already started")
        self._started = True
        nodes = self.topo.nodes()
        if self.backend == "inproc":
            for nid in nodes:
                queue: asyncio.Queue = asyncio.Queue()
                self._mailboxes[nid] = queue
                self._node_tasks[nid] = asyncio.create_task(
                    self._node_loop(nid, queue), name=f"live-node-{nid}"
                )
            return
        loop = asyncio.get_running_loop()
        for nid in nodes:
            transport, protocol = await loop.create_datagram_endpoint(
                lambda nid=nid: _NodeEndpoint(self, nid),
                local_addr=("127.0.0.1", 0),
            )
            addr = transport.get_extra_info("sockname")
            self._endpoints[nid] = (transport, addr)

    async def aclose(self) -> None:
        """Drain and tear down every node task / endpoint (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for queue in self._mailboxes.values():
            queue.put_nowait(_SHUTDOWN)
        if self._node_tasks:
            await asyncio.gather(
                *self._node_tasks.values(), return_exceptions=True
            )
        self._node_tasks.clear()
        self._mailboxes.clear()
        for transport, _addr in self._endpoints.values():
            transport.close()
        self._endpoints.clear()
        self._payloads.clear()

    @property
    def node_task_count(self) -> int:
        """Live mailbox tasks (diagnostics / clean-shutdown check)."""
        return sum(1 for t in self._node_tasks.values() if not t.done())

    # The wire -------------------------------------------------------------

    def _send(self, src: NodeId, arrivals: Arrivals, kind: str, payload: Any) -> None:
        """Put every arrival of one send on its receiver's wire.

        Live transports take neither per-hop latency nor impairments, so
        every delay is zero; the one-way LAN latency is applied by the
        receiving node task.
        """
        sent_at = self.sim.now
        if self.backend == "inproc":
            for dst, _delay in arrivals:
                queue = self._mailboxes.get(dst)
                if queue is None:
                    self.dropped_messages += 1
                    continue
                queue.put_nowait((src, kind, payload, sent_at))
            return
        sender = self._endpoints.get(src)
        for dst, _delay in arrivals:
            endpoint = self._endpoints.get(dst)
            if endpoint is None or sender is None:
                self.dropped_messages += 1
                continue
            token = self._next_token
            self._next_token += 1
            try:
                data = pickle.dumps((src, kind, token, sent_at))
            except Exception:
                self.dropped_messages += 1
                continue
            self._payloads[token] = payload
            sender[0].sendto(data, endpoint[1])

    async def _node_loop(self, node: NodeId, queue: asyncio.Queue) -> None:
        """One node's mailbox task: serialise deliveries like a NIC would.

        The per-message latency sleep is the LAN one-way delay converted
        to wall time; messages to one node are delivered in FIFO order
        behind it, so a hot receiver naturally queues.
        """
        wall_latency = self.latency / self.sim.time_scale
        while True:
            item = await queue.get()
            if item is _SHUTDOWN:
                break
            if wall_latency > 0:
                await asyncio.sleep(wall_latency)
            self._arrive(node, *item)

    def _arrive(
        self, node: NodeId, src: NodeId, kind: str, payload: Any, sent_at: float
    ) -> None:
        """Deliver one arrived message; keep the first handler exception
        and stop the scheduler on it."""
        try:
            self._deliver(src, (node,), kind, payload, sent_at)
        except Exception as exc:
            if self.handler_error is None:
                self.handler_error = exc
                self.sim.stop()
