"""Live system assembly: the simulated wiring, minus the simulator.

:class:`LiveRuntime` builds its system with the simulator's own
assembler, :func:`~repro.experiments.runner.assemble`, from the same
:class:`~repro.experiments.config.ExperimentConfig`, handing it the live
side of the runtime seam: a :class:`~repro.live.scheduler.LiveScheduler`
for time, a :class:`~repro.live.transport.LiveTransport` for messaging
(the simulated transport over a real wire, wired to the fault manager
and collector by the simulator's own
:func:`~repro.experiments.runner.transport_wiring`) and a collector
that times settlements.  Topology, hosts (fleet
parameters and resource pools included), discovery agents, admission
controls, the migration coordinator, the workload and the metrics
registry are therefore built by the one code path the simulator uses;
every protocol/migration module in between is the **same module
object** the simulator runs, and nothing is subclassed or adapted.

:class:`LiveConfig` is that experiment config plus the options that
only mean something live.  Settings the live transport cannot honour
(hop-counted unicast cost, impairments, per-hop latency, churn) are
rejected up front.

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
  clean.  A message handler that raises ends the run instead: the
  exception propagates from :meth:`LiveRuntime.run` after teardown.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..cluster.naming import NamingService
from ..experiments.config import ExperimentConfig
from ..experiments.runner import assemble, transport_wiring
from ..metrics.collector import MetricsCollector
from ..network.faults import FaultManager
from ..network.topology import Topology
from ..node.task import Task
from ..obs.config import ObsConfig
from ..obs.registry import Histogram
from ..obs.telemetry import ProtocolRollup
from ..sim.trace import Tracer

from .scheduler import LiveScheduler
from .transport import BACKENDS, LiveTransport

__all__ = ["LiveConfig", "LiveRuntime", "run_live"]

#: settlement-latency histogram bin edges, wall milliseconds
LATENCY_EDGES_MS = (
    0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 5000.0,
)

#: registry cadence of a live run: one sample per virtual second, deep
#: probes every fourth tick (used when ``experiment.obs`` is None)
LIVE_OBS = ObsConfig(sample_interval=1.0, agent_stride=4)


def _default_experiment() -> ExperimentConfig:
    # the CLI defaults, with the LAN message accounting of Section 6
    return ExperimentConfig(
        nodes=25,
        arrival_rate=6.0,
        horizon=30.0,
        seed=42,
        fixed_unicast_cost=1.0,
        flood_cost_override=1.0,
    )


@dataclass(frozen=True)
class LiveConfig:
    """One live run: an :class:`ExperimentConfig` plus live-only options.

    ``experiment.horizon`` is the virtual seconds of load generation and
    ``experiment.arrival_rate`` is per *virtual* second.  With
    ``experiment.obs`` None the registry samples at :data:`LIVE_OBS`.
    """

    experiment: ExperimentConfig = field(default_factory=_default_experiment)
    #: virtual seconds per wall second (1 = real time)
    time_scale: float = 1.0
    #: transport backend: "inproc" or "udp"
    backend: str = "inproc"
    #: per-message one-way latency in virtual seconds; None = the LAN
    #: default (:class:`~repro.cluster.rmi.LanParameters`, 0.2 ms)
    latency: Optional[float] = None
    #: extra virtual seconds allowed for in-flight tasks to settle
    drain_timeout: float = 30.0
    #: naming-service propagation delay, virtual seconds
    naming_delay: float = 0.0
    #: progress-line cadence, virtual seconds (None = silent)
    progress_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout cannot be negative")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; known: {BACKENDS}")
        exp = self.experiment
        # Settings LiveTransport / LiveRuntime have no route for.
        if exp.unicast_cost != "fixed":
            raise ValueError(
                "unicast_cost: a live unicast is one switched-LAN message; "
                "use \"fixed\""
            )
        if exp.impairments is not None and exp.impairments.enabled:
            raise ValueError("impairments: the live transport has no impairment hook")
        if exp.per_hop_latency != 0:
            raise ValueError("per_hop_latency: live runs take `latency` instead")
        if exp.churn is not None and exp.churn.active:
            raise ValueError(
                "churn: live endpoints exist only for nodes present at start()"
            )
        if exp.obs is None:
            object.__setattr__(self, "experiment", exp.with_(obs=LIVE_OBS))
        elif not exp.obs.enabled:
            raise ValueError("obs: the live report needs the metrics registry")


class _SettlementMetrics(MetricsCollector):
    """The run collector plus live settlement-latency observation.

    Settlement is the admission decision (admitted, rejected, or lost
    before deciding) — the quantity the paper's admission probability is
    over — measured in wall milliseconds from the task's arrival.
    """

    def __init__(self) -> None:
        super().__init__()
        #: exact settlement latencies, wall ms (report percentiles)
        self.latencies_ms: List[float] = []
        #: registry histogram fed alongside (set once the registry exists)
        self.histogram: Optional[Histogram] = None
        self._arrival_wall: Dict[int, float] = {}
        self._lost_unadmitted = 0

    def task_generated(self, task: Optional[Task] = None) -> None:
        super().task_generated(task)
        if task is not None:
            self._arrival_wall[task.task_id] = perf_counter()

    def _settled(self, task: Task) -> bool:
        """Record one settlement latency; ``False`` on a re-settlement
        (e.g. the evacuation of an already-admitted task)."""
        t0 = self._arrival_wall.pop(task.task_id, None)
        if t0 is None:
            return False
        ms = (perf_counter() - t0) * 1000.0
        self.latencies_ms.append(ms)
        if self.histogram is not None:
            self.histogram.observe(ms)
        return True

    def task_admitted(self, task: Task) -> None:
        self._settled(task)
        super().task_admitted(task)

    def task_rejected(self, task: Task) -> None:
        self._settled(task)
        super().task_rejected(task)

    def task_lost(self, task: Task) -> None:
        # Only a task lost *before* any admission decision still counts
        # toward the unsettled balance; an admitted-then-lost task was
        # already settled (and its latency recorded) at admission.
        if self._settled(task):
            self._lost_unadmitted += 1
        super().task_lost(task)

    @property
    def unsettled(self) -> int:
        t = self.tasks
        settled = t.admitted_local + t.admitted_migrated + t.rejected
        # lost tasks that were never admitted settled through task_lost;
        # admitted-then-lost ones were already counted at admission
        return max(0, t.generated - settled - self._lost_unadmitted)


class LiveRuntime:
    """A fully wired live system; drive it with :meth:`run`."""

    def __init__(self, cfg: LiveConfig) -> None:
        self.cfg = cfg
        exp = cfg.experiment
        self.sim = LiveScheduler(
            seed=exp.seed, trace=Tracer(enabled=exp.trace), time_scale=cfg.time_scale
        )
        self.metrics = _SettlementMetrics()

        def make_transport(topo: Topology, faults: FaultManager) -> LiveTransport:
            return LiveTransport(
                self.sim,
                topo,
                backend=cfg.backend,
                latency=cfg.latency,
                **transport_wiring(exp, faults, self.metrics),
            )

        self.system = assemble(exp, self.sim, self.metrics, make_transport)
        self.transport: LiveTransport = self.system.transport  # type: ignore[assignment]
        self.registry = self.system.registry
        assert self.registry is not None  # LiveConfig guarantees obs
        self.latency_hist = self.metrics.histogram = self.registry.histogram(
            "settlement_latency_ms", LATENCY_EDGES_MS
        )

        # Name service promotion: every node registers at startup and
        # admitted components register their (possibly migrated)
        # location; the admission-observer hook is the same one the
        # cluster emulation uses.
        self.naming = NamingService(self.sim, propagation_delay=cfg.naming_delay)
        for nid in self.system.hosts:
            self.naming.register(f"node/{nid}", nid)
        self.metrics.admission_observers.append(self._register_location)

        self._progress_handle = None
        self._wall_elapsed = 0.0
        self.clean_shutdown = False
        self.drained = False

    def _register_location(self, task: Task) -> None:
        where = task.admitted_at if task.admitted_at is not None else task.origin
        self.naming.register(f"task/{task.task_id}", where)

    # Execution ----------------------------------------------------------

    async def run(self) -> Dict[str, object]:
        """Generate load to the horizon, drain, shut down, report.

        The first exception a message handler raised ends the run; it
        propagates from here after teardown.
        """
        cfg = self.cfg
        transport = self.transport
        await transport.start()
        if cfg.progress_interval is not None:
            self._progress_handle = self.sim.shared_periodic(
                cfg.progress_interval, self._progress_line
            )
        wall0 = perf_counter()
        await self.sim.run(until=cfg.experiment.horizon)
        # Graceful drain: in-flight negotiations settle through their own
        # timers/timeouts; keep the clock running in short slices until
        # nothing is outstanding or the drain budget is spent.
        deadline = self.sim.now + cfg.drain_timeout
        slice_ = max(cfg.drain_timeout / 20.0, 1e-3)
        while (
            transport.handler_error is None
            and self.metrics.unsettled > 0
            and self.sim.now < deadline
        ):
            await self.sim.run(until=min(self.sim.now + slice_, deadline))
        self._wall_elapsed = perf_counter() - wall0
        self.drained = self.metrics.unsettled == 0
        # Teardown: progress + sampling off, agents stopped, node
        # tasks/endpoints closed.
        if self._progress_handle is not None:
            self._progress_handle.stop()
        self.registry.finish()
        for agent in self.system.agents.values():
            agent.stop()
        self.system.generator.stop()
        await transport.aclose()
        if transport.handler_error is not None:
            raise transport.handler_error
        self.clean_shutdown = self.drained and transport.node_task_count == 0
        return self.report()

    # Reporting ----------------------------------------------------------

    def _percentile(self, q: float) -> float:
        latencies = self.metrics.latencies_ms
        if not latencies:
            return float("nan")
        return float(np.percentile(np.asarray(latencies), q))

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
        exp = cfg.experiment
        t = self.metrics.tasks
        admitted = t.admitted_local + t.admitted_migrated
        wall = self._wall_elapsed
        latencies = self.metrics.latencies_ms
        result = self.metrics.result(
            {
                "protocol": exp.protocol,
                "lambda": exp.arrival_rate,
                "seed": exp.seed,
                "nodes": exp.num_nodes,
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
                "nodes": exp.num_nodes,
                "topology": exp.topology,
                "protocol": exp.protocol,
                "arrival_rate": exp.arrival_rate,
                "horizon": exp.horizon,
                "seed": exp.seed,
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
                "count": len(latencies),
                "p50": self._percentile(50),
                "p90": self._percentile(90),
                "p99": self._percentile(99),
                "max": max(latencies) if latencies else float("nan"),
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
