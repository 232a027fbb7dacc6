"""The per-receiver delivery schedule, kept as a test reference.

The production :class:`~repro.network.transport.Transport` schedules one
kernel event per arrival instant of a send and delivers that instant's
receivers in one callback.  :class:`PerReceiverTransport` schedules one
event per receiver instead — the transport's behaviour before grouped
delivery — so tests can require that both produce the same deliveries,
in the same order, with the same counters.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, List, Tuple

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.network.topology import NodeId
from repro.network.transport import Transport
from repro.sim.events import Priority

__all__ = ["PerReceiverTransport", "per_receiver_delivery", "traced_run"]


class PerReceiverTransport(Transport):
    """One ``_deliver`` event per receiver, in receiver order."""

    def _send(
        self,
        src: NodeId,
        arrivals: List[Tuple[NodeId, float]],
        kind: str,
        payload: Any,
    ) -> None:
        now = self.sim.now
        for dst, delay in arrivals:
            self.sim.at(now + delay, self._deliver, src, (dst,), kind, payload,
                        now, priority=Priority.MESSAGE)


@contextmanager
def per_receiver_delivery() -> Iterator[None]:
    """Systems built by ``build_system`` inside the block use the reference."""
    saved = runner.Transport
    runner.Transport = PerReceiverTransport
    try:
        yield
    finally:
        runner.Transport = saved


def traced_run(
    cfg: ExperimentConfig, *, reference: bool = False, profiler=nullcontext()
):
    """Run ``cfg`` with tracing; return ``(trace, result dict, system)``.

    ``reference`` builds the system with :class:`PerReceiverTransport`;
    the run executes inside the ``profiler`` context.
    """
    with per_receiver_delivery() if reference else nullcontext():
        system = runner.build_system(cfg)
    with profiler:
        system.run()
    trace = [
        (rec.time, rec.category, tuple(sorted(rec.payload.items())))
        for rec in system.sim.trace.records
    ]
    return trace, dataclasses.asdict(system.result()), system
