"""LiveScheduler: wall-clock seam semantics.

Everything runs at a large ``time_scale`` so virtual horizons of tens of
seconds finish in milliseconds of wall time — no test below sleeps for a
human-perceptible duration, and none asserts on wall-clock values (only
on event counts, ordering and virtual times), so they cannot flake under
CI load.
"""

import asyncio
from time import perf_counter

import pytest

from repro.live.scheduler import LiveScheduler
from repro.sim.kernel import Simulator


def go(coro):
    return asyncio.run(coro)


class TestScheduling:
    def test_same_instant_ordered_by_priority_then_seq(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            order = []
            sim.at(0.5, order.append, "late-priority")
            sim.at(0.5, order.append, "early-priority", priority=-5)
            sim.at(0.5, order.append, "same-priority-second")
            await sim.run(until=1.0)
            return order

        assert go(run()) == [
            "early-priority",
            "late-priority",
            "same-priority-second",
        ]

    def test_past_deadline_clamps_fires_and_counts(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            fired = []
            sim.at(-3.0, fired.append, "past")
            assert sim.late_events == 1
            await sim.run(until=0.5)
            return fired

        assert go(run()) == ["past"]

    def test_non_finite_deadline_rejected(self):
        sim = LiveScheduler()
        with pytest.raises(ValueError):
            sim.at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            sim.at(float("inf"), lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)

    def test_cancel_prevents_firing(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            fired = []
            keep = sim.at(0.1, fired.append, "keep")
            drop = sim.at(0.1, fired.append, "drop")
            sim.cancel(drop)
            sim.cancel(None)  # accepted, mirrors the kernel
            assert drop.cancelled and not keep.cancelled
            await sim.run(until=0.5)
            return fired

        assert go(run()) == ["keep"]

    def test_due_events_fire_even_when_wall_clock_passes_horizon(self):
        # pinning: at extreme time_scale the wall clock slips past the
        # horizon while due events are still queued; every event with a
        # deadline <= until must fire before run() returns anyway.
        async def run():
            sim = LiveScheduler(time_scale=1_000_000.0)
            fired = []
            for i in range(200):
                sim.at(i * 4.9, fired.append, i)  # all inside until=1000
            await sim.run(until=1000.0)
            return fired

        fired = go(run())
        assert fired == list(range(200))


def _stall(wall_seconds):
    end = perf_counter() + wall_seconds
    while perf_counter() < end:
        pass


class TestLagHold:
    def test_lagging_agenda_reads_event_deadlines(self):
        # a 20 ms stall at time_scale 1000 puts the wall clock ~20
        # virtual seconds past the next deadlines; their callbacks must
        # still read their own deadlines, not the wall clock
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            seen = []
            sim.at(1.0, _stall, 0.02)
            sim.at(2.0, lambda: seen.append(sim.now))
            sim.at(3.0, lambda: seen.append(sim.now))
            sim.at(3.0, lambda: sim.after(0.5, lambda: seen.append(sim.now)))
            end = await sim.run(until=30.0)
            return seen, end, sim.late_events, sim.worst_lag

        seen, end, late, lag = go(run())
        assert seen == [2.0, 3.0, 3.5]
        # the hold hides no lag: the deadline 3.5 was set behind the
        # wall clock, and the 2.0 event fired ~18 virtual seconds late
        assert late == 1
        assert lag >= 15.0
        assert end >= 30.0

    def test_hold_never_moves_the_clock_backwards(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            seen = []

            def stall_then_schedule_past():
                _stall(0.02)
                seen.append(sim.now)
                sim.at(0.5, lambda: seen.append(sim.now))  # already past

            sim.at(1.0, stall_then_schedule_past)
            sim.at(1.2, lambda: seen.append(sim.now))
            await sim.run(until=30.0)
            seen.append(sim.now)
            return seen

        seen = go(run())
        assert len(seen) == 4
        assert seen == sorted(seen)
        assert seen[0] == 1.0  # the stalling callback reads its deadline
        assert seen[-1] >= 30.0  # released to the wall clock afterwards


class TestExecution:
    def test_run_is_resumable(self):
        async def run():
            sim = LiveScheduler(time_scale=2000.0)
            fired = []
            sim.at(0.5, fired.append, "first-window")
            sim.at(1.5, fired.append, "second-window")
            t1 = await sim.run(until=1.0)
            mid = list(fired)
            t2 = await sim.run(until=2.0)
            return mid, fired, t1, t2

        mid, fired, t1, t2 = go(run())
        assert mid == ["first-window"]
        assert fired == ["first-window", "second-window"]
        assert t2 > t1 >= 1.0

    def test_stop_breaks_an_unbounded_run(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            fired = []

            def chain(i):
                fired.append(i)
                if i >= 5:
                    sim.stop()
                else:
                    sim.after(0.1, chain, i + 1)

            sim.after(0.1, chain, 0)
            await sim.run()  # until=None: only stop() can end this
            return fired

        assert go(run()) == [0, 1, 2, 3, 4, 5]

    def test_periodic_uses_kernel_timer(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            ticks = []
            handle = sim.periodic(1.0, lambda: ticks.append(sim.now))
            await sim.run(until=5.5)
            handle.stop()
            return ticks

        ticks = go(run())
        assert len(ticks) >= 3  # nominal 5; lateness may shave the tail
        assert all(t >= 1.0 for t in ticks)

    def test_shared_periodic_coalesces_same_cadence(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            a, b = [], []
            sim.shared_periodic(1.0, lambda: a.append(1))
            sim.shared_periodic(1.0, lambda: b.append(1))
            await sim.run(until=4.5)
            return a, b

        a, b = go(run())
        assert len(a) == len(b) >= 2  # one round drives both members

    def test_finalizers_run_once_when_run_returns(self):
        async def run():
            sim = LiveScheduler(time_scale=1000.0)
            calls = []
            sim.add_finalizer(lambda: calls.append(1))
            await sim.run(until=0.1)
            await sim.run(until=0.2)
            return calls

        assert go(run()) == [1]


class TestDeterminism:
    def test_streams_match_the_simulator(self):
        # the bridge the live-vs-sim equivalence tests stand on: equal
        # seeds derive identical named substreams on both runtimes
        live = LiveScheduler(seed=1234)
        sim = Simulator(seed=1234)
        for name in ("arrivals", "sizes", "demands", "policy"):
            a = live.streams.stream(name).random(8)
            b = sim.streams.stream(name).random(8)
            assert a.tolist() == b.tolist()
