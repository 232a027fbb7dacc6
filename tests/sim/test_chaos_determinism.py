"""Golden determinism under chaos: attacks composed with impairments.

Impairments add a whole new draw stream (loss/jitter/dup/reorder
verdicts) to the event loop; these tests pin that the chaos layer keeps
the determinism contract of :mod:`tests.sim.test_golden_trace`:

* identical seeds => bit-identical traces and results, for every attack
  type with impairments enabled,
* a disabled impairment config is indistinguishable from none at all,
* the loss sweep returns identical results serially and through the
  process pool.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.chaos import ChaosSpec, loss_sweep, make_attack
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.network.impairments import ImpairmentConfig

IMPAIRED = ImpairmentConfig(
    loss_rate=0.05, jitter=0.002, duplicate_rate=0.02, reorder_rate=0.02
)


def _chaos_run(spec: ChaosSpec, *, seed: int = 5, impairments=IMPAIRED):
    cfg = ExperimentConfig(
        protocol="realtor",
        arrival_rate=8.0,
        horizon=150.0,
        seed=seed,
        trace=True,
        impairments=impairments,
        migration_retry_budget=1,
    )
    system = build_system(cfg)
    plan = make_attack(cfg, spec)
    if plan is not None:
        plan.install(system.faults)
    system.run()
    trace = [
        (rec.time, rec.category, tuple(sorted(rec.payload.items())))
        for rec in system.sim.trace.records
    ]
    return trace, system.result(), system


def _fields(res):
    return dataclasses.asdict(res)


class TestImpairedAttackDeterminism:
    @pytest.mark.parametrize("attack", ["none", "sweep", "region", "random"])
    def test_bit_identical_per_attack_type(self, attack):
        spec = ChaosSpec(attack=attack, start=20.0, dwell=15.0, victims=5,
                         duration=40.0, mtbf=120.0, mttr=20.0)
        trace_a, result_a, _ = _chaos_run(spec)
        trace_b, result_b, _ = _chaos_run(spec)
        assert len(trace_a) == len(trace_b)
        for i, (rec_a, rec_b) in enumerate(zip(trace_a, trace_b)):
            assert rec_a == rec_b, f"{attack}: trace diverges at record {i}"
        assert _fields(result_a) == _fields(result_b)

    def test_different_seeds_diverge(self):
        spec = ChaosSpec(attack="sweep", start=20.0)
        trace_a, _, _ = _chaos_run(spec, seed=5)
        trace_b, _, _ = _chaos_run(spec, seed=6)
        assert trace_a != trace_b

    def test_impairments_actually_fired(self):
        _, result, system = _chaos_run(ChaosSpec(attack="sweep", start=20.0))
        assert system.transport.impairments is not None
        assert result.extra["impairment_deliveries"] > 0
        assert result.extra["impairment_dropped"] > 0


class TestDisabledImpairmentsIdentity:
    def test_disabled_config_equals_no_config(self):
        spec = ChaosSpec(attack="sweep", start=20.0)
        trace_none, result_none, _ = _chaos_run(spec, impairments=None)
        trace_off, result_off, system = _chaos_run(
            spec, impairments=ImpairmentConfig()
        )
        assert system.transport.impairments is None  # never installed
        assert trace_none == trace_off
        assert _fields(result_none) == _fields(result_off)
        assert "impairment_deliveries" not in result_off.extra


class TestChaosSweepEquivalence:
    def test_loss_sweep_serial_vs_parallel(self):
        base = ExperimentConfig(
            protocol="realtor", arrival_rate=6.0, horizon=100.0, seed=3
        )
        spec = ChaosSpec(attack="sweep", start=20.0, dwell=15.0, victims=4)
        rates = (0.0, 0.05, 0.15)
        serial = loss_sweep(base, rates, spec=spec, parallel=False)
        parallel = loss_sweep(base, rates, spec=spec, parallel=True, max_workers=2)
        assert set(serial) == set(parallel)
        for rate in rates:
            assert _fields(serial[rate]) == _fields(parallel[rate]), (
                f"loss={rate} differs serial vs parallel"
            )


class TestDuplicatedAdmissionRequests:
    def test_duplicates_never_strand_tasks(self):
        # A duplicated ADMIT_REQ used to queue one task twice on the
        # responder; its stale second entry then blocked every later
        # completion on that host (230 tasks stranded in this run).
        cfg = ExperimentConfig(
            protocol="realtor",
            arrival_rate=8.0,
            horizon=600.0,
            seed=5,
            impairments=ImpairmentConfig(duplicate_rate=0.02),
        )
        system = build_system(cfg)
        system.run(until=2000.0)  # drain well past the last arrival
        assert system.transport.impairments.counters()["duplicated"] > 0
        tasks = system.metrics.tasks
        assert sum(len(h.queue) for h in system.hosts.values()) == 0
        assert tasks.admitted_local + tasks.admitted_migrated == tasks.completed
