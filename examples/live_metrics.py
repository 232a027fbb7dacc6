#!/usr/bin/env python
"""Instrumenting a run: time series, the metrics registry and terminal charts.

The figure harness reports end-of-run aggregates; this walk-through
shows the *trajectory* instrumentation: `MetricsRegistry` gauges record
mean queue usage and REALTOR's adaptive HELP interval over time, and the
ASCII renderer draws them — watch the interval pin itself at
Upper_limit as a load burst arrives, and release afterwards (the
Algorithm H dynamics of the paper, live).

Run:  python examples/live_metrics.py
"""

import itertools

from repro import paper_config, build_system
from repro.analysis.ascii_chart import render
from repro.obs.registry import MetricsRegistry

#: burst tasks are numbered from here: the run numbers its own tasks
#: from 0, and two resident tasks sharing an id would collide in a
#: host's queue index
BURST_TASK_IDS = 1 << 40


def main() -> None:
    # moderate base load with an overload burst in the middle third
    cfg = paper_config("realtor", 4.0, horizon=1_800.0, seed=21)
    system = build_system(cfg)

    # burst: triple the arrival rate between t=600 and t=1200 by
    # injecting a second generator for that window
    from repro.node.task import Task
    from repro.workload.arrivals import ArrivalGenerator, PoissonArrivals

    burst_ids = itertools.count(BURST_TASK_IDS)

    def start_burst() -> None:
        burst = PoissonArrivals(8.0, system.sim.streams.stream("burst"))

        def emit(origin: int) -> None:
            task = Task(
                size=float(system.sim.streams.stream("burst-sizes").exponential(5.0)),
                arrival_time=system.sim.now,
                origin=origin,
                task_id=next(burst_ids),
            )
            system.coordinator.place_task(task)

        ArrivalGenerator(system.sim, burst, emit, system.faults.up_nodes,
                         until=1_200.0)

    system.sim.at(600.0, start_burst)

    registry = MetricsRegistry(system.sim, interval=20.0)
    registry.gauge(
        "mean-usage",
        lambda: sum(h.usage() for h in system.hosts.values()) / len(system.hosts),
    )
    registry.gauge("help-interval", lambda: system.mean_help_interval() or 0.0)
    registry.gauge("view-staleness", system.mean_view_staleness)
    registry.start()

    system.run()
    registry.finish()
    res = system.result()
    usage = registry.series["mean-usage"]
    interval = registry.series["help-interval"]
    staleness = registry.series["view-staleness"]

    xs = usage.times.tolist()
    print(render(
        xs,
        {"mean queue usage": usage.values.tolist()},
        title="Queue usage under a load burst (t=600..1200)",
        x_label="t (s)", y_min=0.0, y_max=1.0, height=12,
    ))
    print()
    print(render(
        xs,
        {"HELP interval (s)": interval.values.tolist()},
        title="Algorithm H: interval pinned at Upper_limit during overload",
        x_label="t (s)", height=12,
    ))
    print()
    print(render(
        xs,
        {"staleness (s)": staleness.values.tolist()},
        title="Mean view staleness",
        x_label="t (s)", height=10,
    ))
    print()
    print(
        f"run summary: P(admit)={res.admission_probability:.4f}, "
        f"messages={res.messages_total:,.0f}, "
        f"peak usage={usage.max():.2f}, "
        f"time-averaged usage={usage.time_average():.2f}"
    )


if __name__ == "__main__":
    main()
