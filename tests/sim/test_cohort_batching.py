"""One delivery event per arrival instant, pinned against the per-receiver schedule.

The transport schedules a send as one kernel event per arrival instant
and delivers that instant's receivers in one callback; the kernel has
one pop-and-call loop and no batching API.  These tests pin that
grouped delivery is *observationally identical* to the per-receiver
schedule kept as a test reference
(:class:`tests.reference_transport.PerReceiverTransport`): same trace,
same result fields and counters, at the 2500-node scaling tier with
impairments on and off, and across serial/parallel sweep execution.
Only ``events_executed`` differs — it counts arrival groups.  The unit
tests pin the group's ordering, budget and ``stop()`` semantics, and
that ``Simulator.cohort_stats()`` is a zero stub.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.experiments.sweep import run_sweep
from repro.network.generators import mesh
from repro.network.impairments import ImpairmentConfig
from repro.network.transport import Transport
from repro.obs.config import ObsConfig
from repro.obs.profiler import KernelProfiler
from repro.sim.events import Priority
from repro.sim.kernel import Simulator

from tests.reference_transport import (
    PerReceiverTransport,
    per_receiver_delivery,
    traced_run,
)


def _tier_config(
    nodes: int = 2500, *, impaired: bool = False, horizon: float = 4.0
) -> ExperimentConfig:
    """A top-tier cell kept short enough for tier-1 runtime.

    Load against a small queue keeps threshold crossings, HELP floods
    and migrations active from the first second, so the trace witnesses
    flood fan-out deliveries thousands of times.
    """
    return ExperimentConfig(
        protocol="realtor",
        topology="torus",
        nodes=nodes,
        arrival_rate=0.3 * nodes,
        queue_capacity=12.0,
        horizon=horizon,
        seed=11,
        trace=True,
        impairments=(
            ImpairmentConfig(loss_rate=0.02, jitter=0.001) if impaired else None
        ),
    )


def _assert_identical(run_a, run_b, label: str) -> None:
    trace_a, result_a, _ = run_a
    trace_b, result_b, _ = run_b
    assert len(trace_a) == len(trace_b), f"{label}: trace length differs"
    for i, (rec_a, rec_b) in enumerate(zip(trace_a, trace_b)):
        assert rec_a == rec_b, f"{label}: trace diverges at record {i}"
    assert result_a == result_b, f"{label}: result fields differ"


def _events(run) -> int:
    return run[2].sim.events_executed


def _recording_mesh(transport_cls=Transport, **kwargs):
    """A 3x3 mesh whose every node logs ``(now, src, dst, kind)``."""
    sim = Simulator()
    topo = mesh(3, 3)
    transport = transport_cls(sim, topo, **kwargs)
    log = []

    def record(d):
        log.append((sim.now, d.src, d.dst, d.kind))

    for node in topo.nodes():
        transport.register(node, "M", record)
    return sim, transport, log


class TestBatchedEqualsScalar:
    def test_2500_nodes_bit_identical(self):
        cfg = _tier_config()
        grouped = traced_run(cfg)
        reference = traced_run(cfg, reference=True)
        assert _events(reference) > 5_000  # the run is substantial
        _assert_identical(grouped, reference, "clean 2500-node tier")
        # grouping really happened: fewer events for the same deliveries
        assert _events(grouped) < _events(reference)

    def test_2500_nodes_impaired_bit_identical(self):
        """Loss/jitter/dup verdicts draw per receiver in receiver order —
        grouping by arrival instant must not reorder or coalesce them."""
        cfg = _tier_config(impaired=True)
        grouped = traced_run(cfg)
        reference = traced_run(cfg, reference=True)
        _assert_identical(grouped, reference, "impaired 2500-node tier")
        assert grouped[1]["extra"]["impairment_dropped"] > 0

    def test_impairments_actually_change_the_run(self):
        _, clean, _ = traced_run(_tier_config())
        _, lossy, _ = traced_run(_tier_config(impaired=True))
        assert clean != lossy


class TestProfiledLockstep:
    def test_profiled_run_bit_identical_to_plain(self):
        """A profiled run executes the same loop as a plain one: same
        trace, same result, same events, and grouped delivery ran."""
        cfg = _tier_config(nodes=250, horizon=10.0)
        plain = traced_run(cfg)
        profiler = KernelProfiler()
        profiled = traced_run(cfg, profiler=profiler)
        _assert_identical(plain, profiled, "profiled vs plain")
        assert _events(profiled) == _events(plain)
        report = profiler.report()
        deliver_calls = report.by_callback["Transport._deliver"].calls
        assert 0 < deliver_calls < profiled[2].transport.delivered_messages
        assert report.by_subsystem["transport"] > 0.0


class TestSweepEquivalence:
    def test_serial_vs_parallel_identical_at_2500_nodes(self):
        """Serial and parallel sweeps agree, and both equal a serial
        sweep over the per-receiver reference transport."""
        base = ExperimentConfig(
            topology="torus", nodes=2500, horizon=2.0, seed=3
        )
        protocols = ["realtor", "pure-push"]
        rates = [125.0]
        serial = run_sweep(protocols, rates, base, parallel=False)
        parallel = run_sweep(
            protocols, rates, base, parallel=True, max_workers=2
        )
        with per_receiver_delivery():
            reference = run_sweep(protocols, rates, base, parallel=False)
        for proto in protocols:
            for rate in rates:
                cell = dataclasses.asdict(serial[proto][rate])
                assert cell == dataclasses.asdict(
                    parallel[proto][rate]
                ), f"{proto}@{rate} differs serial vs parallel"
                assert cell == dataclasses.asdict(
                    reference[proto][rate]
                ), f"{proto}@{rate} differs from the per-receiver reference"


class TestKernelCohortMechanics:
    """Unit-level pins for arrival groups (the old cohort ids, kept)."""

    def test_cohort_handled_in_one_batch_call(self):
        """A zero-latency flood is one heap entry and one event however
        many nodes it reaches."""
        sim, transport, log = _recording_mesh()
        receivers = transport.flood(0, "M", None)
        assert len(receivers) == 8
        assert len(sim.queue) == 1
        sim.run()
        assert sim.events_executed == 1
        assert [dst for _, _, dst, _ in log] == receivers
        assert transport.delivered_messages == 8

    def test_lone_event_runs_scalar(self):
        """A unicast is one event for its one receiver; with per-hop
        latency a flood is one event per distinct arrival instant."""
        sim, transport, log = _recording_mesh()
        transport.unicast(0, 8, "M", None)
        sim.run()
        assert sim.events_executed == 1
        assert log == [(0.0, 0, 8, "M")]

        sim, transport, log = _recording_mesh(per_hop_latency=0.5)
        transport.flood(0, "M", None)
        sim.run()
        # corner of a 3x3 mesh: receivers at depths 1, 2, 3 and 4
        assert sim.events_executed == 4
        assert [(t, dst) for t, _, dst, _ in log] == [
            (0.5, 1), (0.5, 3), (1.0, 2), (1.0, 4), (1.0, 6),
            (1.5, 5), (1.5, 7), (2.0, 8),
        ]

    def test_priority_splits_cohorts(self):
        """A delivery group runs in the MESSAGE band: a same-instant
        STATE event runs before the whole group even when scheduled
        after it, an ARRIVAL event after it."""
        sim, transport, log = _recording_mesh()
        transport.flood(0, "M", None)
        sim.at(0.0, log.append, "arrival", priority=Priority.ARRIVAL)
        sim.at(0.0, log.append, "state", priority=Priority.STATE)
        sim.run()
        assert log[0] == "state"
        assert log[-1] == "arrival"
        assert len(log) == 10

    def test_interleaved_callbacks_split_cohorts(self):
        """Two sends at one instant stay two events in send order, and a
        same-band event scheduled between them runs between them — the
        order the per-receiver schedule gives."""
        runs = []
        for cls in (Transport, PerReceiverTransport):
            sim, transport, log = _recording_mesh(cls)
            transport.flood(0, "M", None)
            sim.at(0.0, log.append, "between", priority=Priority.MESSAGE)
            transport.flood(8, "M", None)
            sim.run()
            runs.append((log, sim.events_executed))
        (grouped, grouped_events), (reference, reference_events) = runs
        assert grouped == reference
        assert grouped[8] == "between"
        assert [src for _, src, _, _ in grouped[:8]] == [0] * 8
        assert grouped_events == 3
        assert reference_events == 17

    def test_cancelled_events_skipped_at_drain(self):
        """The one pop loop skips cancelled same-instant events and does
        not count them."""
        sim = Simulator()
        seen = []
        events = [sim.at(1.0, seen.append, i) for i in range(6)]
        sim.cancel(events[0])  # the instant's first event cancelled
        sim.cancel(events[3])  # one in the middle cancelled
        sim.run()
        assert seen == [1, 2, 4, 5]
        assert sim.events_executed == 4

    def test_events_scheduled_by_batch_run_after_cohort(self):
        """Events a handler schedules at the current instant carry later
        seqs, so they run after the whole arrival group."""
        sim, transport, log = _recording_mesh()

        def first(d):
            log.append((sim.now, d.src, d.dst, d.kind))
            sim.at(sim.now, log.append, "child")

        transport.register(1, "M", first)
        transport.flood(0, "M", None)
        sim.run()
        assert log[0][2] == 1  # the scheduling handler ran first
        assert log[-1] == "child"
        assert len(log) == 9

    def test_max_events_budget_respected_by_batching(self):
        """A fan-out is one event for the ``max_events`` budget, and a
        ``stop()`` from a handler takes effect after its group."""
        sim, transport, log = _recording_mesh()
        transport.flood(0, "M", None)
        later = []
        sim.at(1.0, later.append, "later")
        sim.run(max_events=1)
        assert len(log) == 8  # the whole group, in one budgeted event
        assert sim.events_executed == 1
        assert later == []

        sim, transport, log = _recording_mesh()
        transport.register(1, "M", lambda d: (log.append(d.dst), sim.stop()))
        transport.flood(0, "M", None)
        sim.at(1.0, later.append, "later")
        sim.run()
        assert len(log) == 8  # receivers after the stopper still got it
        assert later == []
        assert sim.now == 0.0

    def test_toggle_forces_scalar_path(self):
        """There is no batching toggle; the per-receiver schedule lives
        only in the test reference, which delivers the same messages
        with one event per receiver."""
        for name in ("register_batch", "set_cohort_batching", "cohort_batching"):
            assert not hasattr(Simulator, name)
        assert not hasattr(Transport, "_deliver_batch")
        sim, transport, log = _recording_mesh(PerReceiverTransport)
        transport.flood(0, "M", None)
        assert len(sim.queue) == 8
        sim.run()
        assert sim.events_executed == 8
        assert len(log) == 8


class TestFinalizerSemantics:
    def test_finalizers_run_and_clear_on_exception(self):
        """A raising callback must still run registered finalizers, and
        they must not leak into (replay on) a later run."""
        sim = Simulator()
        ran = []
        sim.add_finalizer(lambda: ran.append("f1"))

        def boom():
            raise RuntimeError("callback failure")

        sim.at(1.0, boom)
        with pytest.raises(RuntimeError, match="callback failure"):
            sim.run()
        assert ran == ["f1"]
        sim.at(2.0, lambda: None)
        sim.run()
        assert ran == ["f1"]  # not replayed

    def test_finalizers_run_once_on_clean_run(self):
        sim = Simulator()
        ran = []
        sim.add_finalizer(lambda: ran.append(1))
        sim.at(1.0, lambda: None)
        sim.run()
        sim.run()
        assert ran == [1]

    def test_profiled_run_finalizers_on_exception(self):
        sim = Simulator()
        ran = []
        sim.add_finalizer(lambda: ran.append("f"))
        sim.at(1.0, lambda: (_ for _ in ()).throw(ValueError("x")))
        with pytest.raises(ValueError):
            with KernelProfiler():
                sim.run()
        assert ran == ["f"]
        assert not sim._finalizers
        assert sys.getprofile() is None  # the profiler let go on the way out


class TestRoundDriver:
    def test_members_fire_in_join_order_once_per_round(self):
        sim = Simulator()
        order = []
        sim.shared_periodic(1.0, lambda: order.append("a"))
        sim.shared_periodic(1.0, lambda: order.append("b"))
        sim.run(until=2.5)
        assert order == ["a", "b", "a", "b"]

    def test_one_heap_entry_per_round(self):
        sim = Simulator()
        for i in range(100):
            sim.shared_periodic(1.0, lambda: None)
        # one driver event, not one hundred timer events
        assert len(sim.queue) == 1

    def test_distinct_cadences_get_distinct_drivers(self):
        sim = Simulator()
        ticks = {"fast": 0, "slow": 0}

        def bump(key):
            ticks[key] += 1

        sim.shared_periodic(1.0, lambda: bump("fast"))
        sim.shared_periodic(2.0, lambda: bump("slow"))
        sim.run(until=4.5)
        assert ticks == {"fast": 4, "slow": 2}

    def test_stop_removes_member_and_last_leave_cancels_event(self):
        sim = Simulator()
        fired = []
        m1 = sim.shared_periodic(1.0, lambda: fired.append(1))
        m2 = sim.shared_periodic(1.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1, 2]
        m1.stop()
        assert m1.stopped and not m2.stopped
        sim.run(until=2.5)
        assert fired == [1, 2, 2]
        m2.stop()
        assert len(sim.queue) == 0  # driver event cancelled with last member
        sim.run(until=10.0)
        assert fired == [1, 2, 2]

    def test_rejoin_after_dormancy_rearms(self):
        sim = Simulator()
        fired = []
        m = sim.shared_periodic(1.0, lambda: fired.append("x"))
        m.stop()
        sim.run(until=3.0)
        assert fired == []
        sim.shared_periodic(1.0, lambda: fired.append("y"))
        sim.run(until=5.5)
        assert fired == ["y", "y"]  # rearmed from t=3 -> fires at 4, 5

    def test_member_table_compacts_under_churn(self):
        sim = Simulator()
        members = [sim.shared_periodic(1.0, lambda: None) for _ in range(64)]
        for m in members[:60]:
            m.stop()
        driver = next(iter(sim._round_drivers.values()))
        assert driver.members == 4
        assert len(driver._members) < 64  # dead cells filtered


class TestHeapCompaction:
    def test_compaction_triggers_and_preserves_order(self):
        sim = Simulator()
        fired = []
        keep = [sim.at(float(i), fired.append, i) for i in range(10)]
        dead = [sim.at(100.0 + i, lambda: None) for i in range(200)]
        for ev in dead:
            sim.cancel(ev)
        # compaction fires whenever dead entries exceed half the heap,
        # but stops re-triggering once the heap shrinks below the floor
        # (_COMPACT_MIN_HEAP), so a small dead residue is expected:
        # 210 -> 104 -> 51, then the floor holds.
        assert len(sim.queue._heap) < 64
        assert len(sim.queue) == len(keep)
        sim.run()
        assert fired == list(range(10))

    def test_compaction_mid_run_keeps_kernel_loop_alive(self):
        """compact() rebuilds in place; the run loop's heap alias must
        keep seeing events scheduled after a mid-run compaction."""
        sim = Simulator()
        fired = []

        def churn():
            dead = [sim.at(50.0 + i, lambda: None) for i in range(300)]
            for ev in dead:
                sim.cancel(ev)
            sim.at(2.0, fired.append, "after-compaction")

        sim.at(1.0, churn)
        sim.run()
        assert fired == ["after-compaction"]

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        events = [sim.at(1.0 + i, lambda: None) for i in range(10)]
        for ev in events:
            sim.cancel(ev)
        # below the compaction floor the dead entries just sit there
        assert len(sim.queue._heap) == 10
        assert len(sim.queue) == 0


class TestCohortStats:
    """``cohort_stats()`` is a zero stub, and results carry no cohort data."""

    def test_stats_account_for_every_batched_event(self):
        """Whatever runs, the stub reports zero counts in the old shape."""
        sim, transport, _ = _recording_mesh()
        transport.flood(0, "M", None)
        sim.at(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 2
        assert sim.cohort_stats() == {
            "cohorts": 0,
            "batched_events": 0,
            "batched_share": 0.0,
            "size_histogram": {},
        }

    def test_stats_zero_before_any_run(self):
        stats = Simulator().cohort_stats()
        assert stats["cohorts"] == 0
        assert stats["batched_events"] == 0
        assert stats["batched_share"] == 0.0
        assert stats["size_histogram"] == {}

    def test_stats_zero_with_batching_disabled(self):
        # the per-receiver reference reports zero as well
        sim, transport, _ = _recording_mesh(PerReceiverTransport)
        transport.flood(0, "M", None)
        sim.run()
        stats = sim.cohort_stats()
        assert stats["cohorts"] == 0
        assert stats["batched_events"] == 0
        assert sim.events_executed == 8

    def test_stats_zero_under_profiled_loop(self):
        cfg = _tier_config(nodes=250, horizon=2.0)
        system = build_system(cfg)
        with KernelProfiler():
            system.run()
        stats = system.sim.cohort_stats()
        assert stats["cohorts"] == 0
        assert stats["batched_events"] == 0
        assert system.sim.events_executed > 0

    def test_tier_run_stats_land_on_result_extra(self):
        """Nothing cohort-related lands on a result any more: no
        ``cohort*`` extra, and no ``series["cohorts"]`` on obs runs."""
        cfg = _tier_config(nodes=250, horizon=2.0).with_(
            obs=ObsConfig(samples_target=4)
        )
        system = build_system(cfg)
        system.run()
        result = system.result()
        assert not [key for key in result.extra if key.startswith("cohort")]
        assert result.series is not None
        assert "cohorts" not in result.series
        assert result.extra["delivered_messages"] > 0
