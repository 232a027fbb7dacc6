"""A message handler that raises ends a live run, on both backends.

The simulator propagates a handler's exception out of ``Simulator.run``.
Live, handlers run inside node mailbox tasks or datagram callbacks, so
the transport keeps the first exception, stops the scheduler, and
:meth:`LiveRuntime.run` re-raises it once everything is torn down.  The
node's mailbox keeps serving later messages meanwhile.
"""

import asyncio

import pytest

from repro.experiments.config import ExperimentConfig
from repro.live import BACKENDS, LiveConfig, LiveRuntime
from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveTransport
from repro.network import generators


class Boom(RuntimeError):
    pass


def _boom(_delivery) -> None:
    raise Boom("handler failed")


@pytest.mark.parametrize("backend", BACKENDS)
def test_handler_exception_propagates_out_of_run_after_teardown(backend):
    exp = ExperimentConfig(nodes=9, arrival_rate=40.0, horizon=5.0, seed=7)
    runtime = LiveRuntime(
        LiveConfig(experiment=exp, time_scale=200.0, backend=backend, latency=0.0)
    )
    runtime.transport.register(1, "BOOM", _boom)
    runtime.sim.at(1.0, runtime.transport.unicast, 0, 1, "BOOM", None)
    with pytest.raises(Boom, match="handler failed"):
        asyncio.run(runtime.run())
    assert runtime.transport.node_task_count == 0
    assert not runtime.clean_shutdown
    # the run stopped at the failure instead of generating to the horizon
    assert runtime.metrics.tasks.generated < exp.arrival_rate * exp.horizon * 0.75


@pytest.mark.parametrize("backend", BACKENDS)
def test_mailbox_survives_a_raising_handler(backend):
    async def run():
        t = LiveTransport(
            LiveScheduler(time_scale=1000.0),
            generators.full_mesh(3),
            backend=backend,
            latency=0.0,
        )
        got = []
        t.register(1, "BOOM", _boom)
        t.register(1, "PING", got.append)
        await t.start()
        try:
            t.unicast(0, 1, "BOOM", None)
            t.unicast(0, 1, "PING", None)
            for _ in range(10):
                await asyncio.sleep(0.002)
        finally:
            await t.aclose()
        return t, got

    t, got = asyncio.run(run())
    assert isinstance(t.handler_error, Boom)
    assert len(got) == 1
    assert t.delivered_messages == 2 and t.dropped_messages == 0

