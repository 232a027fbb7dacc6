"""System assembly and single-run execution.

:func:`assemble` wires every substrate for one
:class:`~repro.experiments.config.ExperimentConfig` against a scheduler
and transport factory from either side of the runtime seam
(:mod:`repro.runtime.api`).  :func:`build_system` hands it the
simulator and the simulated transport, and the live runtime
(:mod:`repro.live.runtime`) hands it the wall-clock ones, so sim and
live build the same hosts, agents, admission controls, coordinator and
workload.  :func:`run_experiment` drives a simulated system to the
horizon and returns the :class:`~repro.metrics.collector.RunResult`.
The assembled :class:`System` is also exposed directly for tests and
examples that need to poke at internals mid-run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.realtor import RealtorAgent
from ..metrics.collector import MetricsCollector, RunResult
from ..migration.admission import AdmissionControl
from ..migration.migrator import MigrationCoordinator
from ..migration.policy import make_policy
from ..network import generators
from ..network.faults import FaultManager
from ..network.impairments import NetworkImpairments
from ..network.topology import Topology
from ..network.transport import CostModel, Transport, UnicastCostMode
from ..node.host import Host
from ..node.state_arrays import NodeStateArrays
from ..node.task import Task
from ..obs.recorder import FlightRecorder, cell_identity
from ..obs.registry import MetricsRegistry, install_run_probes
from ..protocols.adaptive_pull import AdaptivePullAgent
from ..protocols.base import DiscoveryAgent, ProtocolContext
from ..protocols.registry import make_agent
from ..sim.kernel import Simulator
from ..sim.trace import Tracer
from ..workload.arrivals import ArrivalGenerator, PoissonArrivals
from ..workload.attack import AttackPlan
from ..workload.churn import poisson_churn
from ..workload.fleet import NodeParams, fleet_summary, node_params
from ..workload.sizes import make_sampler
from .config import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.api import SchedulerAPI, TransportAPI

__all__ = ["System", "assemble", "build_system", "run_experiment"]


def _build_topology(cfg: ExperimentConfig) -> Topology:
    n = cfg.num_nodes
    if cfg.topology == "mesh":
        if cfg.nodes is not None:
            return generators.square_mesh(n)
        return generators.mesh(cfg.rows, cfg.cols)
    if cfg.topology == "torus":
        if cfg.nodes is not None:
            return generators.square_torus(n)
        return generators.torus(cfg.rows, cfg.cols)
    if cfg.topology == "ring":
        return generators.ring(n)
    if cfg.topology == "star":
        return generators.star(n)
    if cfg.topology == "full":
        return generators.full_mesh(n)
    if cfg.topology == "tree":
        depth = max(1, (n).bit_length() - 1)
        return generators.binary_tree(depth)
    if cfg.topology in ("random", "scale-free"):
        return generators.scenario_topology(
            cfg.topology, n, degree=cfg.topology_degree, seed=cfg.topology_seed
        )
    raise ValueError(f"unknown topology: {cfg.topology!r}")


def _build_pool(cfg: ExperimentConfig, node_id: int, scale: float = 1.0):
    """Per-host resource pool for the multi-resource extension, or None.

    ``scale`` is the fleet's per-node resource multiplier: consumable
    capacities scale with it, LEVEL resources (security) do not — a
    bigger machine has more bandwidth, not a higher clearance.
    """
    if not cfg.extra_resources and not cfg.security_levels:
        return None
    from ..node.resources import ResourceKind, ResourcePool, ResourceSpec

    pool = ResourcePool()
    for name, capacity in cfg.extra_resources:
        pool.declare(ResourceSpec(name, capacity * scale))
    if cfg.security_levels:
        level = cfg.security_levels[node_id % len(cfg.security_levels)]
        pool.declare(ResourceSpec("security", level, ResourceKind.LEVEL))
    return pool


def _cost_model(cfg: ExperimentConfig) -> CostModel:
    mode = {
        "fixed": UnicastCostMode.FIXED,
        "hops": UnicastCostMode.HOPS,
        "mean": UnicastCostMode.MEAN,
    }.get(cfg.unicast_cost)
    if mode is None:
        raise ValueError(f"unknown unicast_cost: {cfg.unicast_cost!r}")
    return CostModel(
        unicast_mode=mode,
        fixed_unicast_cost=cfg.fixed_unicast_cost,
        flood_cost_override=cfg.flood_cost_override,
    )


@dataclass
class System:
    """A fully wired system, ready to run.

    ``sim`` and ``transport`` are the simulated ones from
    :func:`build_system`, or the live ones when the live runtime
    assembled it (:meth:`run` and :meth:`result` are simulator-only).
    """

    cfg: ExperimentConfig
    sim: "SchedulerAPI"
    topo: Topology
    faults: FaultManager
    transport: "TransportAPI"
    hosts: Dict[int, Host]
    agents: Dict[int, DiscoveryAgent]
    admissions: Dict[int, AdmissionControl]
    coordinator: MigrationCoordinator
    metrics: MetricsCollector
    generator: ArrivalGenerator
    #: shared numpy mirror of per-node queue/monitor/liveness state;
    #: hosts built at t=0 write through, later joiners do not (their
    #: scalar state remains authoritative either way)
    state: Optional[NodeStateArrays] = None
    #: run-wide metrics registry + flight recorder, installed only when
    #: ``cfg.obs`` enables them (None keeps the run byte-identical)
    registry: Optional[MetricsRegistry] = None
    recorder: Optional[FlightRecorder] = None
    #: materialised per-node fleet parameters (None for a uniform fleet);
    #: joiners drawn mid-run are appended so the spread summary covers
    #: every node that ever existed
    fleet_params: Optional[Dict[int, NodeParams]] = None
    #: continuous-churn accounting (see the runner's churn installer)
    churn_joins: int = 0
    churn_leaves: int = 0
    churn_skipped: int = 0
    churn_scheduled: int = 0

    def run(self, until: Optional[float] = None) -> float:
        """Drive the kernel to the horizon."""
        return self.sim.run(until=until if until is not None else self.cfg.horizon)

    # Churn (nodes joining/leaving the live system) ---------------------

    def add_node(self, node_id: int, attach_to: Optional[List[int]] = None) -> None:
        """A fresh host joins the overlay mid-run.

        The newcomer links to ``attach_to`` (default: the lowest-id live
        node), gets the full per-node stack, and discovers the rest of
        the system purely through its protocol — its view starts empty.
        """
        if self.topo.has_node(node_id):
            raise ValueError(f"node already present: {node_id}")
        peers = attach_to if attach_to else self.faults.up_nodes()[:1]
        if not peers:
            raise RuntimeError("no live node to attach to")
        self.topo.add_node(node_id)
        for peer in peers:
            self.topo.add_link(node_id, peer)

        # A joiner draws from the same per-node fleet stream it would
        # have used at build time (streams are seeded by name, not by
        # creation order), so a node's parameters do not depend on when
        # it joins — part of the churn determinism contract.
        host, agent, admission = _build_node(
            self.cfg,
            self.sim,
            self.transport,
            self.faults,
            self.metrics,
            node_id,
            self.topo.nodes(),
            self.fleet_params,
        )
        self.hosts[node_id] = host
        self.agents[node_id] = agent
        self.admissions[node_id] = admission
        self.sim.trace.emit(self.sim.now, "join", node=node_id, peers=list(peers))

    def remove_node(self, node_id: int, *, graceful: bool = True) -> None:
        """A host leaves.  ``graceful`` evacuates queued components first
        (voluntary leave); otherwise resident work is lost (crash)."""
        if node_id not in self.hosts:
            raise KeyError(f"no such node: {node_id}")
        if graceful:
            # evacuation uses the compromise path: the node stops taking
            # work and moves its components, then falls silent
            self.faults.compromise(node_id)
            self.faults.crash(node_id)
        else:
            self.faults.crash(node_id)
        self.sim.trace.emit(self.sim.now, "leave", node=node_id, graceful=graceful)

    def mean_help_interval(self) -> Optional[float]:
        """Average adaptive HELP interval across agents, if applicable."""
        intervals: List[float] = []
        for agent in self.agents.values():
            if isinstance(agent, (RealtorAgent, AdaptivePullAgent)):
                intervals.append(agent.help.interval)
        if not intervals:
            return None
        return sum(intervals) / len(intervals)

    def mean_view_staleness(self) -> float:
        """Average age of the availability beliefs across all agents.

        The quantity behind the Figure 8 discussion: pull-based
        information "can be out-of-dated rather easily" — this makes the
        staleness measurable per protocol.
        """
        now = self.sim.now
        vals = [a.view.mean_staleness(now) for a in self.agents.values()]
        return sum(vals) / len(vals) if vals else 0.0

    def flight_dump(self, error: str) -> Optional[dict]:
        """The recorder's crash dump for this system (None when off)."""
        if self.recorder is None:
            return None
        return self.recorder.dump(
            cell=cell_identity(self.cfg), sim=self.sim, error=error
        )

    def result(self) -> RunResult:
        # actual wire traffic, next to the paper's weighted accounting:
        # the weighted totals charge every flood #links (the paper's
        # proxy), while these count real deliveries — what the
        # size-independence claim is actually about
        self.metrics.extra["sent_messages"] = float(self.transport.sent_messages)
        self.metrics.extra["delivered_messages"] = float(
            self.transport.delivered_messages
        )
        self.metrics.extra["view_staleness"] = self.mean_view_staleness()
        # Hardening counters: message fates under impairments and what the
        # protocols did about them (retries, fallbacks).
        self.metrics.extra["dropped_messages"] = float(self.transport.dropped_messages)
        self.metrics.extra["help_retries"] = float(
            sum(
                agent.help.retries
                for agent in self.agents.values()
                if hasattr(agent, "help")
            )
        )
        self.metrics.extra["migration_fallbacks"] = float(
            self.coordinator.silent_fallbacks
        )
        self.metrics.extra["negotiation_timeouts"] = float(
            sum(a.timeouts_fired for a in self.admissions.values())
        )
        # Ranking-quality scorecard: how often the top-ranked candidate
        # failed (mis-rank) and how deep granted placements had to walk
        # (fallback depth) — the per-policy comparison axis.
        for key, value in self.coordinator.ranking_stats().items():
            self.metrics.extra[key] = value
        # Churn accounting (all zero on a static overlay).
        if self.cfg.churn is not None and self.cfg.churn.active:
            self.metrics.extra["churn_scheduled"] = float(self.churn_scheduled)
            self.metrics.extra["churn_joins"] = float(self.churn_joins)
            self.metrics.extra["churn_leaves"] = float(self.churn_leaves)
            self.metrics.extra["churn_skipped"] = float(self.churn_skipped)
            self.metrics.extra["nodes_final"] = float(len(self.faults.up_nodes()))
        # Fleet spread diagnostics (absent for the uniform fleet).
        if self.fleet_params:
            for key, value in fleet_summary(self.fleet_params.values()).items():
                self.metrics.extra[key] = value
        if self.transport.impairments is not None:
            for key, value in self.transport.impairments.counters().items():
                self.metrics.extra[f"impairment_{key}"] = float(value)
        series_payload = None
        if self.registry is not None:
            self.registry.finish()
            if self.cfg.obs is None or self.cfg.obs.record_series:
                series_payload = self.registry.to_payload()
        return self.metrics.result(
            self.cfg.params(),
            self.sim.now,
            self.mean_help_interval(),
            series=series_payload,
        )


def _build_node(
    cfg: ExperimentConfig,
    sim: "SchedulerAPI",
    transport: "TransportAPI",
    faults: FaultManager,
    metrics: MetricsCollector,
    node_id: int,
    all_nodes: List[int],
    fleet_params: Optional[Dict[int, NodeParams]],
    state: Optional[NodeStateArrays] = None,
) -> Tuple[Host, DiscoveryAgent, AdmissionControl]:
    """One node's stack — host, started discovery agent, admission control.

    Shared by the t=0 build and churn joins.  ``state`` is the shared
    numpy mirror the host writes through (None for joiners, whose scalar
    state stays authoritative).
    """
    # Heterogeneous fleet: (capacity, speed, threshold, resource scale)
    # come from the node's own named stream; fleet=None keeps the uniform
    # paper fleet and touches no stream at all.
    params = node_params(
        cfg.fleet,
        sim.streams,
        node_id,
        default_capacity=cfg.queue_capacity,
        default_threshold=cfg.protocol_config.threshold,
    )
    if fleet_params is not None:
        fleet_params[node_id] = params
    host = Host(
        sim,
        node_id,
        capacity=params.capacity,
        threshold=params.threshold,
        pool=_build_pool(cfg, node_id, params.resource_scale),
        on_complete=metrics.task_completed,
        speed=params.speed,
    )
    if state is not None:
        host.bind_state(state)

    def is_up() -> bool:
        return faults.is_up(node_id)

    ctx = ProtocolContext(
        sim=sim,
        transport=transport,
        host=host,
        config=cfg.protocol_config,
        all_nodes=all_nodes,
        is_safe=is_up,
    )
    agent = make_agent(cfg.protocol, ctx)
    pledge_policy = getattr(agent, "pledges", None) or getattr(
        agent, "pledge_policy", None
    )
    admission = AdmissionControl(
        sim,
        transport,
        host,
        on_request_observed=(
            pledge_policy.observe_request if pledge_policy is not None else None
        ),
        accepting=is_up,
    )
    agent.start()
    return host, agent, admission


def build_system(cfg: ExperimentConfig) -> System:
    """Assemble every component for ``cfg`` (nothing runs yet)."""
    sim = Simulator(seed=cfg.seed, trace=Tracer(enabled=cfg.trace))
    metrics = MetricsCollector()

    def make_transport(topo: Topology, faults: FaultManager) -> Transport:
        # The impairment engine gets its own named substream so lossy
        # runs share common random numbers (arrivals, sizes...) with
        # clean ones; when disabled the stream is never instantiated.
        impairments = None
        if cfg.impairments is not None and cfg.impairments.enabled:
            impairments = NetworkImpairments(
                cfg.impairments, sim.streams.stream("impairments")
            )
        return Transport(
            sim,
            topo,
            # the transport's liveness is communication ability: a
            # compromised node still talks (to evacuate); only crashed
            # nodes fall silent
            is_up=faults.can_communicate,
            # failed links drop out of floods and unicast routes alike
            link_up=faults.link_up,
            liveness_version=lambda: faults.version,
            cost_model=_cost_model(cfg),
            per_hop_latency=cfg.per_hop_latency,
            on_cost=metrics.on_cost,
            impairments=impairments,
        )

    return assemble(cfg, sim, metrics, make_transport)


def assemble(
    cfg: ExperimentConfig,
    sim: "SchedulerAPI",
    metrics: MetricsCollector,
    make_transport: Callable[[Topology, FaultManager], "TransportAPI"],
) -> System:
    """Wire one system for ``cfg`` on whichever side of the runtime seam
    ``sim`` and ``make_transport(topo, faults)`` belong to.

    :func:`build_system` passes the :class:`Simulator` and the simulated
    :class:`Transport`; the live runtime passes its wall-clock scheduler
    and live transport.  Everything between them is built here, once.
    """
    topo = _build_topology(cfg)
    faults = FaultManager(sim, topo)
    transport = make_transport(topo, faults)
    nodes = topo.nodes()

    # Shared numpy mirror of per-node state: every queue/monitor mutation
    # and every liveness transition writes through, so overlay-wide
    # censuses (view priming, availability snapshots) are one array op
    # instead of V Python calls.
    state = NodeStateArrays(nodes)
    faults.attach_state(state)

    # One shared (never-mutated) node list across all agent contexts —
    # per-agent copies are O(V^2) memory once the topology axis reaches
    # thousands of nodes.
    shared_nodes = list(nodes)
    fleet_params: Optional[Dict[int, NodeParams]] = (
        {} if cfg.fleet is not None else None
    )
    hosts: Dict[int, Host] = {}
    agents: Dict[int, DiscoveryAgent] = {}
    admissions: Dict[int, AdmissionControl] = {}
    for nid in nodes:
        hosts[nid], agents[nid], admissions[nid] = _build_node(
            cfg, sim, transport, faults, metrics, nid, shared_nodes,
            fleet_params, state,
        )

    if cfg.prime_views:
        # One vectorized snapshot of every host feeds all V primings —
        # the per-agent scalar path re-derived each backlog O(V) or
        # O(deg) times over.  Values are bit-identical to
        # Host.snapshot(): same formulas over the written-through state.
        _, usage_col, headroom_col, avail_col = state.snapshot_columns(sim.now)
        snapshots = {
            nid: (float(headroom_col[i]), float(usage_col[i]), bool(avail_col[i]))
            for i, nid in enumerate(state.ids)
        }
        for agent in agents.values():
            agent.prime_view(hosts, snapshots=snapshots)

    rng_streams = sim.streams
    policy = make_policy(
        cfg.policy, all_nodes=list(nodes), rng=rng_streams.stream("policy")
    )
    coordinator = MigrationCoordinator(
        sim,
        hosts,
        agents,
        admissions,
        metrics,
        policy=policy,
        is_up=faults.is_up,
        silent_retry_budget=cfg.migration_retry_budget,
    )
    faults.on_change(coordinator.handle_fault)

    sizes = make_sampler(
        cfg.size_dist,
        rng_streams.stream("sizes"),
        mean=cfg.task_mean,
        cap=cfg.queue_capacity if cfg.cap_task_sizes else None,
    )
    if cfg.arrival_process == "deterministic":
        from ..workload.arrivals import DeterministicArrivals

        arrivals: object = DeterministicArrivals(gap=1.0 / cfg.arrival_rate)
    else:
        arrivals = PoissonArrivals(cfg.arrival_rate, rng_streams.stream("arrivals"))

    demand_rng = rng_streams.stream("demands")
    demand_means = dict(cfg.demand_means)

    # Per-run task ids: the module-global Task counter would drift between
    # runs in one process (and between pool workers), breaking bit-identical
    # traces for identical seeds.  Each system numbers its tasks from 0.
    task_ids = itertools.count()

    def emit(origin: int) -> None:
        demand: Dict[str, float] = {}
        for name, mean in demand_means.items():
            demand[name] = float(demand_rng.exponential(mean))
        if cfg.secure_task_fraction > 0 and (
            float(demand_rng.uniform()) < cfg.secure_task_fraction
        ):
            demand["security"] = 1.0
        size = sizes.sample()
        deadline = (
            cfg.deadline_factor * size if cfg.deadline_factor is not None else None
        )
        task = Task(
            size=size,
            arrival_time=sim.now,
            origin=origin,
            relative_deadline=deadline,
            demand=demand,
            task_id=next(task_ids),
        )
        coordinator.place_task(task)

    generator = ArrivalGenerator(
        sim, arrivals, emit, faults.up_nodes, until=cfg.horizon
    )

    # Observability layer: built last so its probes see every component,
    # started so the t=0 baseline lands before any event fires.  The
    # registry holds one shared-round heap entry at SAMPLING priority and
    # touches no RNG stream, so enabling it changes no behaviour.
    registry: Optional[MetricsRegistry] = None
    recorder: Optional[FlightRecorder] = None
    if cfg.obs is not None and cfg.obs.enabled:
        registry = MetricsRegistry(
            sim, interval=cfg.obs.effective_interval(cfg.horizon)
        )
        install_run_probes(
            registry,
            state=state,
            collector=metrics,
            transport=transport,
            coordinator=coordinator,
            admissions=admissions.values(),
            agents=agents.values(),
            stride=cfg.obs.agent_stride,
            usage_bins=cfg.obs.usage_bins,
        )
        recorder = FlightRecorder(
            max_events=cfg.obs.max_flight_events,
            max_snapshots=cfg.obs.max_flight_snapshots,
        )
        recorder.attach_tracer(sim.trace)
        registry.attach_recorder(recorder)
        registry.start()

    system = System(
        cfg=cfg,
        sim=sim,
        topo=topo,
        faults=faults,
        transport=transport,
        hosts=hosts,
        agents=agents,
        admissions=admissions,
        coordinator=coordinator,
        metrics=metrics,
        generator=generator,
        state=state,
        registry=registry,
        recorder=recorder,
        fleet_params=fleet_params,
    )

    # Continuous churn: the schedule is generated up front from the
    # kernel's named "churn" substream (same seed => same schedule,
    # serial or parallel, scalar or batched) and installed as kernel
    # events.  Callbacks are guarded — by the time an event fires, the
    # population may have shifted under faults/chaos layers, so a join
    # re-targets dead attach points and a leave of an already-down or
    # last-remaining node is skipped, not an error.
    if cfg.churn is not None and cfg.churn.active:
        _install_churn(system)

    return system


def _install_churn(system: System) -> None:
    cfg = system.cfg
    churn = cfg.churn
    schedule = poisson_churn(
        system.topo.nodes(),
        horizon=cfg.horizon,
        join_rate=churn.join_rate,
        leave_rate=churn.leave_rate,
        rng=system.sim.streams.stream("churn"),
        attach_degree=churn.attach_degree,
    )
    system.churn_scheduled = len(schedule)

    def on_join(node_id: int, attach_to) -> None:
        live = [
            p
            for p in attach_to
            if system.topo.has_node(p) and system.faults.is_up(p)
        ]
        try:
            # dead attach targets fall back to the lowest-id live node
            system.add_node(node_id, attach_to=live or None)
        except (RuntimeError, ValueError):
            system.churn_skipped += 1
            return
        system.churn_joins += 1

    def on_leave(node_id: int) -> None:
        if node_id not in system.hosts or not system.faults.is_up(node_id):
            system.churn_skipped += 1
            return
        if len(system.faults.up_nodes()) <= 2:
            system.churn_skipped += 1  # keep a minimal system alive
            return
        system.remove_node(node_id, graceful=churn.graceful)
        system.churn_leaves += 1

    schedule.install(system.sim, on_join, on_leave)


def run_experiment(
    cfg: ExperimentConfig,
    attack: Optional[AttackPlan] = None,
) -> RunResult:
    """Build, optionally arm an attack plan, run to the horizon, summarise.

    Wrap the call in ``with KernelProfiler() as prof:`` to attribute its
    wall time per subsystem; inspect ``prof.report()`` afterwards.
    """
    system = build_system(cfg)
    if attack is not None:
        attack.install(system.faults)
    try:
        system.run()
    except Exception as exc:
        _attach_flight_dump(system, exc)
        raise
    return system.result()


def _attach_flight_dump(system: System, exc: BaseException) -> None:
    """Pin the recorder's crash dump onto ``exc`` as ``flight_dump``.

    The plan executor reads the attribute back via ``getattr`` so the
    dump survives the trip through worker-process pickling as plain
    data; exceptions that refuse attribute assignment lose the dump but
    still propagate.
    """
    if system.recorder is None:
        return
    try:
        exc.flight_dump = system.flight_dump(  # type: ignore[attr-defined]
            f"{type(exc).__name__}: {exc}"
        )
    except AttributeError:  # slotted/extension exception type
        pass
