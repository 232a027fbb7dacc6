"""Which program functions the benchmark wraps, per layer.

Layers are named after the modules under ``src/repro``.  Two sets:

* :func:`install_timers` -- a handful of per-cell entry points (system
  assembly, the kernel run, result, store, the cell itself).  Installed
  on every run, traced or not: they are called once per cell, so they
  cost nothing measurable, and they give ``setup_s`` and the
  determinism check their inputs.
* :func:`install_layers` -- the public functions of every layer, for the
  traced run only.  Message handlers are wrapped as they are registered
  with a transport, and named by message kind.

Only public functions are wrapped.  Time spent in a private function
that an event fires directly (a queue completion, a timer tick, the
transport's delivery loop) lands in the self time of the nearest
wrapped caller, usually ``Simulator.run``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from repro.core.algorithm_h import HelpScheduler
from repro.core.algorithm_p import PledgePolicy
from repro.experiments import executor, runner
from repro.experiments.store import RunStore
from repro.metrics.collector import MetricsCollector
from repro.migration.admission import AdmissionControl
from repro.migration.migrator import MigrationCoordinator
from repro.migration.policy import MigrationPolicy
from repro.network.faults import FaultManager
from repro.network.routing import Router
from repro.network.transport import Transport
from repro.node.host import Host
from repro.node.monitor import ThresholdMonitor
from repro.node.queue import WorkQueue
from repro.protocols.registry import PAPER_PROTOCOLS  # also loads every agent class
from repro.protocols.base import DiscoveryAgent
from repro.protocols.view import ResourceView
from repro.sim.kernel import Simulator
from repro.workload.arrivals import ArrivalProcess
from repro.workload.sizes import SizeSampler

from tracer import Tracer

__all__ = [
    "CELL_PREFIX",
    "Probes",
    "install_layers",
    "install_timers",
    "layer_metrics",
]

#: span name prefix of one stored cell, suffixed with its protocol
CELL_PREFIX = "experiments.cell."

#: message kinds whose handlers are counted, by handler layer
HANDLER_KINDS = {
    "protocols": ("HELP", "PLEDGE", "ADV"),
    "migration": ("ADMIT_REQ", "ADMIT_REP"),
}


class Probes:
    """Counters read from program objects while a traced run executes.

    Instances (routers, transports, admission controls) are harvested
    when their cell's result is taken, so a sweep holds at most one
    cell's objects at a time.
    """

    def __init__(self) -> None:
        #: (events_executed, cohort_stats) per finished ``Simulator.run``
        self.kernel_runs: List[tuple] = []
        self.routers: List[Router] = []
        self.transports: List[Any] = []
        self.admissions: List[AdmissionControl] = []
        self.rows_computed = 0
        self.delivered = 0
        self.requests_received = 0
        self.requests_granted = 0
        self.accepted = 0

    def harvest(self) -> None:
        self.rows_computed += sum(r.rows_computed for r in self.routers)
        self.delivered += sum(t.delivered_messages for t in self.transports)
        self.requests_received += sum(a.requests_received for a in self.admissions)
        self.requests_granted += sum(a.requests_granted for a in self.admissions)
        self.routers.clear()
        self.transports.clear()
        self.admissions.clear()


# Per-cell timers -------------------------------------------------------------


def install_timers(tracer: Tracer, probes: Probes) -> None:
    """Wrap the per-cell entry points (see the module docstring)."""

    def kernel_done(_result: Any, sim: Simulator, *_a: Any, **_k: Any) -> None:
        probes.kernel_runs.append((sim.events_executed, sim.cohort_stats()))

    tracer.wrap(runner, "build_system", "experiments.build_system", "experiments",
                keep=True)
    tracer.wrap(Simulator, "run", "sim.run", "sim", on_result=kernel_done)
    tracer.wrap(
        runner.System,
        "result",
        "experiments.result",
        "experiments",
        on_result=lambda *_a, **_k: probes.harvest(),
    )
    tracer.wrap(RunStore, "put", "experiments.store.put", "experiments")
    tracer.wrap(RunStore, "flush", "experiments.store.flush", "experiments")
    tracer.wrap(
        executor,
        "run_cell",
        CELL_PREFIX,
        "experiments",
        name_of=lambda cell: CELL_PREFIX + cell.config.protocol,
    )


# Every layer -------------------------------------------------------------------


def _subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _wrap_methods(
    tracer: Tracer,
    layer: str,
    classes: Iterable[type],
    names: Sequence[str],
    **hooks: Any,
) -> None:
    """Wrap each of ``names`` on every class that defines it itself.

    A name no class defines is an error, so a renamed method cannot
    silently drop out of the trace.
    """
    classes = list(classes)
    for name in names:
        owners = [cls for cls in classes if name in vars(cls)]
        if not owners:
            raise AttributeError(f"no class in {classes} defines {name!r}")
        for cls in owners:
            tracer.wrap(cls, name, f"{layer}.{cls.__name__}.{name}", layer, **hooks)


def _handler_layer(handler: Any) -> str:
    """Layer of a message handler, from the module that defines it."""
    module = getattr(handler, "__module__", "") or ""
    return "migration" if module.startswith("repro.migration") else "protocols"


def _traced_register(tracer: Tracer, original: Any) -> Any:
    def register(self: Any, node: Any, kind: str, handler: Any) -> None:
        layer = _handler_layer(handler)
        return original(
            self, node, kind, tracer.traced(handler, f"{layer}.handler.{kind}", layer)
        )

    return register


def install_layers(tracer: Tracer, probes: Probes) -> None:
    """Wrap the public functions of every layer (traced runs only)."""

    def collect(into: List[Any]) -> Any:
        return lambda _result, obj, *_a, **_k: into.append(obj)

    # sim: scheduling calls (Simulator.run is a timer)
    _wrap_methods(tracer, "sim", [Simulator], ["at", "after", "cancel", "periodic"])

    # network.routing
    _wrap_methods(tracer, "network.routing", [Router], ["__init__"],
                  on_result=collect(probes.routers))
    _wrap_methods(
        tracer,
        "network.routing",
        [Router],
        ["distance", "reachable", "distances_from", "within", "eccentricity",
         "mean_shortest_path", "diameter", "matrix"],
    )

    # network.transport, and message handlers by kind
    _wrap_methods(tracer, "network.transport", [Transport], ["__init__"],
                  on_result=collect(probes.transports))
    _wrap_methods(tracer, "network.transport", [Transport],
                  ["unicast", "flood", "multicast", "live_router"])
    tracer.patch(
        Transport, "register", _traced_register(tracer, vars(Transport)["register"])
    )

    # network.faults: liveness queries and transitions
    _wrap_methods(
        tracer,
        "network.faults",
        [FaultManager],
        ["state", "is_up", "can_communicate", "is_compromised", "up_nodes",
         "link_up", "crash", "compromise", "recover", "live_topology"],
    )

    # node: host, queue, threshold monitor
    def accepted(result: Any, *_a: Any, **_k: Any) -> None:
        if result is not None:
            probes.accepted += 1

    _wrap_methods(tracer, "node", [Host], ["try_accept"], on_result=accepted)
    _wrap_methods(
        tracer,
        "node",
        [Host],
        ["snapshot", "can_accept", "accept", "usage", "availability",
         "availability_vector", "is_available", "evacuable_tasks", "withdraw",
         "crash"],
    )
    _wrap_methods(
        tracer,
        "node",
        [WorkQueue],
        ["backlog", "usage", "headroom", "fits", "resident_tasks", "admit",
         "try_admit", "drop_all", "remove"],
    )
    _wrap_methods(tracer, "node", [ThresholdMonitor],
                  ["usage", "available", "notify_change"])

    # protocols: agents (every subclass override), views, Algorithms H and P
    _wrap_methods(
        tracer,
        "protocols",
        _subclasses(DiscoveryAgent),
        ["notify_task_arrival", "candidates", "flood", "prime_view", "start",
         "stop", "usage_with", "would_exceed_threshold"],
    )
    _wrap_methods(
        tracer,
        "protocols",
        [ResourceView],
        ["update", "candidates", "best", "forget", "evict_stale",
         "fresh_entries", "observe_latency", "observe_outcome"],
    )
    _wrap_methods(tracer, "protocols", [HelpScheduler], ["maybe_send", "on_pledge"])
    _wrap_methods(
        tracer,
        "protocols",
        [PledgePolicy],
        ["should_pledge_on_help", "observe_request", "make_pledge"],
    )

    # migration
    _wrap_methods(tracer, "migration", [AdmissionControl], ["__init__"],
                  on_result=collect(probes.admissions))
    _wrap_methods(tracer, "migration", [AdmissionControl], ["negotiate"])
    _wrap_methods(tracer, "migration", [MigrationCoordinator],
                  ["place_task", "evacuate", "handle_fault"])
    _wrap_methods(tracer, "migration", _subclasses(MigrationPolicy), ["select"])

    # workload: arrival processes and size samplers
    _wrap_methods(tracer, "workload", _subclasses(ArrivalProcess),
                  ["next_gap", "next_origin"])
    _wrap_methods(tracer, "workload", _subclasses(SizeSampler), ["sample"])

    # metrics: the run collector
    _wrap_methods(
        tracer,
        "metrics",
        [MetricsCollector],
        ["on_cost", "task_generated", "task_admitted", "task_rejected",
         "task_completed", "task_lost", "migration_attempt", "evacuation",
         "result"],
    )


# Metrics ---------------------------------------------------------------------------


def _sum_calls(tracer: Tracer, layer: str, method: str) -> int:
    suffix = "." + method
    return sum(
        rec.calls
        for name, rec in tracer.spans.items()
        if rec.layer == layer and name.endswith(suffix)
    )


def layer_metrics(tracer: Tracer, probes: Probes, untraced_run_s: float) -> Dict[str, float]:
    """The per-layer metric table of one traced run (see README.md).

    ``untraced_run_s`` is ``Simulator.run`` wall time of the untraced
    reference run, so ``sim.us_per_event`` is free of tracing overhead.
    """
    probes.harvest()
    calls = tracer.calls
    selfs = tracer.layer_self()
    events = sum(e for e, _ in probes.kernel_runs)
    batched = sum(c["batched_events"] for _, c in probes.kernel_runs)
    row_queries = sum(
        calls(f"network.routing.Router.{m}")
        for m in ("distance", "reachable", "distances_from", "within", "eccentricity")
    )
    tried = calls("node.Host.try_accept")
    handlers = {
        f"{layer}.handler.{kind}.calls": calls(f"{layer}.handler.{kind}")
        for layer, kinds in HANDLER_KINDS.items()
        for kind in kinds
    }
    out: Dict[str, float] = {
        "sim.events": events,
        "sim.us_per_event": untraced_run_s / events * 1e6 if events else 0.0,
        "sim.cohort_batched_share": batched / events if events else 0.0,
        "sim.self_s": selfs.get("sim", 0.0),
        "network.routing.distance.calls": calls("network.routing.Router.distance"),
        "network.routing.rows_computed": probes.rows_computed,
        "network.routing.row_hit_ratio": (
            max(0.0, 1.0 - probes.rows_computed / row_queries) if row_queries else 0.0
        ),
        "network.routing.routers_built": calls("network.routing.Router.__init__"),
        "network.routing.self_s": selfs.get("network.routing", 0.0),
        "network.transport.flood.calls": calls("network.transport.Transport.flood"),
        "network.transport.unicast.calls": calls("network.transport.Transport.unicast"),
        "network.transport.delivered": probes.delivered,
        "network.transport.self_s": selfs.get("network.transport", 0.0),
        "network.faults.liveness.calls": sum(
            calls(f"network.faults.FaultManager.{m}")
            for m in ("is_up", "can_communicate", "state")
        ),
        "network.faults.self_s": selfs.get("network.faults", 0.0),
        "node.try_accept.calls": tried,
        "node.accept_ratio": probes.accepted / tried if tried else 0.0,
        "node.snapshot.calls": calls("node.Host.snapshot"),
        "node.self_s": selfs.get("node", 0.0),
        **{k: v for k, v in handlers.items() if k.startswith("protocols.")},
        "protocols.view.update.calls": calls("protocols.ResourceView.update"),
        "protocols.view.candidates.calls": calls("protocols.ResourceView.candidates"),
        "protocols.self_s": selfs.get("protocols", 0.0),
        "migration.place_task.calls": calls("migration.MigrationCoordinator.place_task"),
        "migration.negotiate.calls": calls("migration.AdmissionControl.negotiate"),
        **{k: v for k, v in handlers.items() if k.startswith("migration.")},
        "migration.grant_ratio": (
            probes.requests_granted / probes.requests_received
            if probes.requests_received
            else 0.0
        ),
        "migration.self_s": selfs.get("migration", 0.0),
        "workload.next_origin.calls": _sum_calls(tracer, "workload", "next_origin"),
        "workload.next_gap.calls": _sum_calls(tracer, "workload", "next_gap"),
        "workload.self_s": selfs.get("workload", 0.0),
        "metrics.self_s": selfs.get("metrics", 0.0),
        "experiments.build_system.s": tracer.seconds("experiments.build_system"),
        "experiments.result.s": tracer.seconds("experiments.result"),
        "experiments.store.s": tracer.seconds("experiments.store.put")
        + tracer.seconds("experiments.store.flush"),
        **{
            f"{CELL_PREFIX}{proto}.s": tracer.seconds(CELL_PREFIX + proto)
            for proto in PAPER_PROTOCOLS
        },
        "experiments.self_s": selfs.get("experiments", 0.0),
    }
    return out
