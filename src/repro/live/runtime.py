"""Live system assembly: the simulated wiring, minus the simulator.

:class:`LiveRuntime` mirrors :func:`~repro.experiments.runner.build_system`
component for component — topology, fault manager, transport, hosts,
discovery agents, admission controls, migration coordinator, workload —
but on the live side of the runtime seam: a
:class:`~repro.live.scheduler.LiveScheduler` for time and a
:class:`~repro.live.transport.LiveTransport` for messaging.  Every
protocol/migration module in between is the **same module object** the
simulator runs; nothing is subclassed or adapted.

Additions that only make sense live:

* the Agile Objects :class:`~repro.cluster.naming.NamingService` is
  promoted to the runtime's name service — every node registers itself
  at startup and every admitted task's location is registered through
  the collector's admission observers;
* per-task **settlement latency** (arrival to admission/rejection, wall
  milliseconds) feeds a :class:`~repro.obs.registry.Histogram` in the
  run's :class:`~repro.obs.registry.MetricsRegistry` plus an exact
  sample list for the report percentiles;
* graceful drain: after the horizon the runtime keeps the clock running
  until every generated task settles (or a drain timeout expires), then
  stops agents, closes the transport and reports whether shutdown was
  clean.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..cluster.naming import NamingService
from ..metrics.collector import MetricsCollector
from ..migration.admission import AdmissionControl
from ..migration.migrator import MigrationCoordinator
from ..migration.policy import make_policy
from ..network import generators
from ..network.faults import FaultManager
from ..network.topology import Topology
from ..node.host import Host
from ..node.state_arrays import NodeStateArrays
from ..node.task import Task
from ..obs.registry import MetricsRegistry, install_run_probes
from ..obs.telemetry import ProtocolRollup
from ..protocols.base import DiscoveryAgent, ProtocolConfig, ProtocolContext
from ..protocols.registry import make_agent
from ..workload.arrivals import ArrivalGenerator, PoissonArrivals
from ..workload.fleet import FleetConfig, node_params
from ..workload.sizes import make_sampler

from .scheduler import LiveScheduler
from .transport import BACKENDS, LiveTransport

__all__ = ["LiveConfig", "LiveRuntime", "run_live"]

#: settlement-latency histogram bin edges, wall milliseconds
LATENCY_EDGES_MS = (
    0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 5000.0,
)


@dataclass(frozen=True)
class LiveConfig:
    """Everything one live run needs (the live analogue of
    :class:`~repro.experiments.config.ExperimentConfig`)."""

    #: overlay size and shape
    nodes: int = 25
    topology: str = "mesh"
    #: discovery protocol (any registry name: "realtor", "push-1", ...)
    protocol: str = "realtor"
    #: Poisson arrival rate, tasks per *virtual* second
    arrival_rate: float = 6.0
    #: virtual seconds of load generation
    horizon: float = 30.0
    seed: int = 42
    #: virtual seconds per wall second (1 = real time)
    time_scale: float = 1.0
    #: transport backend: "inproc" or "udp"
    backend: str = "inproc"
    queue_capacity: float = 100.0
    task_mean: float = 5.0
    size_dist: str = "exp"
    policy: str = "one-shot"
    protocol_config: ProtocolConfig = field(default_factory=ProtocolConfig)
    #: per-message one-way latency in virtual seconds; None = the LAN
    #: default (:class:`~repro.cluster.rmi.LanParameters`, 0.2 ms)
    latency: Optional[float] = None
    prime_views: bool = True
    #: metrics-registry sampling cadence, virtual seconds
    sample_interval: float = 1.0
    #: extra virtual seconds allowed for in-flight tasks to settle
    drain_timeout: float = 30.0
    #: naming-service propagation delay, virtual seconds
    naming_delay: float = 0.0
    #: progress-line cadence, virtual seconds (None = silent)
    progress_interval: Optional[float] = None
    obs_stride: int = 4
    #: heterogeneous-fleet axis — the *same* ``fleet[n]`` named RNG
    #: substreams as :func:`~repro.experiments.runner.build_system`, so a
    #: live run and a sim run with one seed materialise the identical
    #: fleet.  ``None`` keeps the uniform fleet (no stream touched).
    #: Continuous churn has no live analogue yet: live overlays change
    #: only through :class:`~repro.network.faults.FaultManager` scripts.
    fleet: Optional["FleetConfig"] = None

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("need at least two nodes")
        if self.arrival_rate <= 0 or self.horizon <= 0:
            raise ValueError("arrival_rate and horizon must be positive")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout cannot be negative")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; known: {BACKENDS}")


def _build_topology(cfg: LiveConfig) -> Topology:
    n = cfg.nodes
    if cfg.topology == "mesh":
        return generators.square_mesh(n)
    if cfg.topology == "torus":
        return generators.square_torus(n)
    if cfg.topology == "ring":
        return generators.ring(n)
    if cfg.topology == "star":
        return generators.star(n)
    if cfg.topology == "full":
        return generators.full_mesh(n)
    raise ValueError(f"unknown topology: {cfg.topology!r}")


class _LiveMetrics(MetricsCollector):
    """The run collector plus live settlement-latency observation.

    Settlement is the admission decision (admitted, rejected, or lost
    before deciding) — the quantity the paper's admission probability is
    over — measured in wall milliseconds from the arrival callback.
    """

    def __init__(self, runtime: "LiveRuntime") -> None:
        super().__init__()
        self._runtime = runtime

    def task_admitted(self, task: Task) -> None:
        self._runtime._settled(task)
        super().task_admitted(task)

    def task_rejected(self, task: Task) -> None:
        self._runtime._settled(task)
        super().task_rejected(task)

    def task_lost(self, task: Task) -> None:
        # Only a task lost *before* any admission decision still counts
        # toward the unsettled balance; an admitted-then-lost task was
        # already settled (and its latency recorded) at admission.
        if self._runtime._settled(task):
            self._runtime._lost_unadmitted += 1
        super().task_lost(task)

    @property
    def unsettled(self) -> int:
        t = self.tasks
        settled = t.admitted_local + t.admitted_migrated + t.rejected
        # lost tasks that were never admitted settled through task_lost;
        # admitted-then-lost ones were already counted at admission
        return max(0, t.generated - settled - self._runtime._lost_unadmitted)


class LiveRuntime:
    """A fully wired live system; drive it with :meth:`run`."""

    def __init__(self, cfg: LiveConfig) -> None:
        self.cfg = cfg
        self.sim = LiveScheduler(seed=cfg.seed, time_scale=cfg.time_scale)
        self.topo = _build_topology(cfg)
        self.faults = FaultManager(self.sim, self.topo)
        self.metrics = _LiveMetrics(self)
        self.transport = LiveTransport(
            self.sim,
            self.topo,
            backend=cfg.backend,
            is_up=self.faults.can_communicate,
            link_up=self.faults.link_up,
            latency=cfg.latency,
            on_cost=self.metrics.on_cost,
        )
        self.naming = NamingService(self.sim, propagation_delay=cfg.naming_delay)
        nodes = self.topo.nodes()

        self.hosts: Dict[int, Host] = {}
        for nid in nodes:
            params = node_params(
                cfg.fleet,
                self.sim.streams,
                nid,
                default_capacity=cfg.queue_capacity,
                default_threshold=cfg.protocol_config.threshold,
            )
            self.hosts[nid] = Host(
                self.sim,
                nid,
                capacity=params.capacity,
                threshold=params.threshold,
                speed=params.speed,
                on_complete=self.metrics.task_completed,
            )
        self.state = NodeStateArrays(nodes)
        for nid in nodes:
            self.hosts[nid].bind_state(self.state)
        self.faults.attach_state(self.state)

        shared_nodes = list(nodes)
        self.agents: Dict[int, DiscoveryAgent] = {}
        for nid in nodes:
            ctx = ProtocolContext(
                sim=self.sim,
                transport=self.transport,
                host=self.hosts[nid],
                config=cfg.protocol_config,
                all_nodes=shared_nodes,
                is_safe=(lambda nid=nid: self.faults.is_up(nid)),
            )
            agent = make_agent(cfg.protocol, ctx)
            self.agents[nid] = agent
            agent.start()
            self.naming.register(f"node/{nid}", nid)

        if cfg.prime_views:
            for agent in self.agents.values():
                agent.prime_view(self.hosts)

        self.admissions: Dict[int, AdmissionControl] = {}
        for nid in nodes:
            agent = self.agents[nid]
            pledge_policy = getattr(agent, "pledges", None) or getattr(
                agent, "pledge_policy", None
            )
            self.admissions[nid] = AdmissionControl(
                self.sim,
                self.transport,
                self.hosts[nid],
                on_request_observed=(
                    pledge_policy.observe_request if pledge_policy else None
                ),
                accepting=(lambda nid=nid: self.faults.is_up(nid)),
            )

        policy = make_policy(
            cfg.policy, all_nodes=shared_nodes, rng=self.sim.streams.stream("policy")
        )
        self.coordinator = MigrationCoordinator(
            self.sim,
            self.hosts,
            self.agents,
            self.admissions,
            self.metrics,
            policy=policy,
            is_up=self.faults.is_up,
        )
        self.faults.on_change(self.coordinator.handle_fault)

        # Name service promotion: admitted components register their
        # (possibly migrated) location; the admission-observer hook is
        # the same one the cluster emulation uses.
        self.metrics.admission_observers.append(self._register_location)

        # Workload — identical streams and draw order to build_system, so
        # a live run and a simulated run with the same seed generate the
        # same (gap, origin, size) sequence.
        self._sizes = make_sampler(
            cfg.size_dist,
            self.sim.streams.stream("sizes"),
            mean=cfg.task_mean,
            cap=cfg.queue_capacity,
        )
        arrivals = PoissonArrivals(
            cfg.arrival_rate, self.sim.streams.stream("arrivals")
        )
        self._demand_rng = self.sim.streams.stream("demands")
        self._task_ids = iter(range(1 << 62))
        self.generator = ArrivalGenerator(
            self.sim, arrivals, self._emit, self.faults.up_nodes, until=cfg.horizon
        )

        # Observability: the PR-8 registry sampling over the live clock
        # through the exact same shared-round seam the simulator uses.
        self.registry = MetricsRegistry(self.sim, interval=cfg.sample_interval)
        install_run_probes(
            self.registry,
            state=self.state,
            collector=self.metrics,
            transport=self.transport,
            coordinator=self.coordinator,
            admissions=self.admissions.values(),
            agents=self.agents.values(),
            stride=cfg.obs_stride,
        )
        self.latency_hist = self.registry.histogram(
            "settlement_latency_ms", LATENCY_EDGES_MS
        )
        #: exact settlement latencies, wall ms (report percentiles)
        self.latencies_ms: List[float] = []
        self._arrival_wall: Dict[int, float] = {}
        self._lost_unadmitted = 0
        self._progress_handle = None
        self._wall_elapsed = 0.0
        self.clean_shutdown = False
        self.drained = False

    # Workload ----------------------------------------------------------

    def _emit(self, origin: int) -> None:
        size = self._sizes.sample()
        task = Task(
            size=size,
            arrival_time=self.sim.now,
            origin=origin,
            task_id=next(self._task_ids),
        )
        self._arrival_wall[task.task_id] = perf_counter()
        self.coordinator.place_task(task)

    def _settled(self, task: Task) -> bool:
        """Record one settlement latency; ``False`` on a re-settlement
        (e.g. the evacuation of an already-admitted task)."""
        t0 = self._arrival_wall.pop(task.task_id, None)
        if t0 is None:
            return False
        ms = (perf_counter() - t0) * 1000.0
        self.latencies_ms.append(ms)
        self.latency_hist.observe(ms)
        return True

    def _register_location(self, task: Task) -> None:
        where = task.admitted_at if task.admitted_at is not None else task.origin
        self.naming.register(f"task/{task.task_id}", where)

    # Execution ----------------------------------------------------------

    async def run(self) -> Dict[str, object]:
        """Generate load to the horizon, drain, shut down, report."""
        cfg = self.cfg
        await self.transport.start()
        self.registry.start()
        if cfg.progress_interval is not None:
            self._progress_handle = self.sim.shared_periodic(
                cfg.progress_interval, self._progress_line
            )
        wall0 = perf_counter()
        await self.sim.run(until=cfg.horizon)
        # Graceful drain: in-flight negotiations settle through their own
        # timers/timeouts; keep the clock running in short slices until
        # nothing is outstanding or the drain budget is spent.
        deadline = self.sim.now + cfg.drain_timeout
        slice_ = max(cfg.drain_timeout / 20.0, 1e-3)
        while self.metrics.unsettled > 0 and self.sim.now < deadline:
            await self.sim.run(until=min(self.sim.now + slice_, deadline))
        self._wall_elapsed = perf_counter() - wall0
        self.drained = self.metrics.unsettled == 0
        # Teardown: progress + sampling off, agents stopped, node
        # tasks/endpoints closed.
        if self._progress_handle is not None:
            self._progress_handle.stop()
        self.registry.finish()
        for agent in self.agents.values():
            agent.stop()
        self.generator.stop()
        await self.transport.aclose()
        self.clean_shutdown = (
            self.drained and self.transport.node_task_count == 0
        )
        return self.report()

    # Reporting ----------------------------------------------------------

    def _percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def _progress_line(self) -> None:
        t = self.metrics.tasks
        admitted = t.admitted_local + t.admitted_migrated
        sys.stderr.write(
            f"[live] t={self.sim.now:.1f} gen={t.generated} adm={admitted} "
            f"rej={t.rejected} p50={self._percentile(50):.2f}ms "
            f"p99={self._percentile(99):.2f}ms "
            f"msgs={self.transport.sent_messages}\n"
        )
        sys.stderr.flush()

    def report(self) -> Dict[str, object]:
        """JSON-ready run summary (the CLI prints / uploads this)."""
        cfg = self.cfg
        t = self.metrics.tasks
        admitted = t.admitted_local + t.admitted_migrated
        wall = self._wall_elapsed
        result = self.metrics.result(
            {
                "protocol": cfg.protocol,
                "lambda": cfg.arrival_rate,
                "seed": cfg.seed,
                "nodes": cfg.nodes,
                "backend": cfg.backend,
                "live": True,
            },
            self.sim.now,
            None,
        )
        # The PR-8 sweep rollup, reused for the single live run so live
        # and simulated reports share one vocabulary.
        rollup = ProtocolRollup()
        rollup.add(result)
        return {
            "config": {
                "nodes": cfg.nodes,
                "topology": cfg.topology,
                "protocol": cfg.protocol,
                "arrival_rate": cfg.arrival_rate,
                "horizon": cfg.horizon,
                "seed": cfg.seed,
                "time_scale": cfg.time_scale,
                "backend": cfg.backend,
            },
            "tasks": {
                "generated": t.generated,
                "admitted": admitted,
                "admitted_local": t.admitted_local,
                "admitted_migrated": t.admitted_migrated,
                "rejected": t.rejected,
                "completed": t.completed,
                "lost": t.lost,
            },
            "admission_probability": result.admission_probability,
            "rollup": {
                "message_rate": rollup.message_rate,
                "loss_rate": rollup.loss_rate,
                "admission": rollup.admission,
            },
            "latency_ms": {
                "count": len(self.latencies_ms),
                "p50": self._percentile(50),
                "p90": self._percentile(90),
                "p99": self._percentile(99),
                "max": max(self.latencies_ms) if self.latencies_ms else float("nan"),
                "histogram_p50": self.latency_hist.percentile(50),
                "histogram_p99": self.latency_hist.percentile(99),
            },
            "throughput": {
                "wall_seconds": wall,
                "tasks_per_wall_second": (t.generated / wall) if wall > 0 else 0.0,
                "virtual_seconds": self.sim.now,
            },
            "messages": {
                "sent": self.transport.sent_messages,
                "delivered": self.transport.delivered_messages,
                "dropped": self.transport.dropped_messages,
            },
            "naming": {
                "bindings": len(self.naming),
                "lookups": self.naming.lookups,
                "updates": self.naming.updates,
            },
            "scheduler": {
                "events_executed": self.sim.events_executed,
                "late_events": self.sim.late_events,
                "worst_lag": self.sim.worst_lag,
            },
            "drained": self.drained,
            "clean_shutdown": self.clean_shutdown,
            "series": self.registry.to_payload(),
        }


async def run_live(cfg: LiveConfig) -> Dict[str, object]:
    """Build a :class:`LiveRuntime` for ``cfg``, run it, return the report."""
    return await LiveRuntime(cfg).run()
