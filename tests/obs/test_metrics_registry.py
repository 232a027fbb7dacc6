"""Unit and integration tests for the run-wide metrics registry."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.obs.config import ObsConfig
from repro.obs.registry import (
    REGISTRY_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.kernel import Simulator


BASE = dict(
    protocol="realtor",
    nodes=25,
    topology="mesh",
    arrival_rate=4.0,
    horizon=60.0,
    seed=7,
)


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_set_and_probe(self):
        g = Gauge("x")
        g.set(4.0)
        assert g.read() == 4.0
        probed = Gauge("y", probe=lambda: 9.0)
        assert probed.read() == 9.0

    def test_histogram_uniform_fast_path_matches_generic(self):
        uniform = Histogram("u", np.linspace(0.0, 1.0, 11))
        generic = Histogram("g", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        # values off the bin edges: exactly-on-edge samples may land on
        # either side of a boundary under the fast path's float multiply,
        # which a metrics histogram does not need to pin down
        values = np.array([0.02, 0.05, 0.33, 0.31, 0.99, 0.61])
        uniform.accumulate(values)
        generic.accumulate(values)
        assert uniform.total() == len(values)
        assert generic.total() == len(values)
        expected = np.histogram(values, bins=np.linspace(0.0, 1.0, 11))[0]
        assert uniform.counts.tolist() == expected.tolist()
        # edge values still count exactly once each (no loss, no double)
        edgy = Histogram("e", np.linspace(0.0, 1.0, 11))
        edgy.accumulate(np.array([0.0, 0.3, 1.0]))
        assert edgy.total() == 3

    def test_histogram_clamps_out_of_range_into_end_bins(self):
        h = Histogram("x", np.linspace(0.0, 1.0, 5))
        h.accumulate(np.array([-3.0, 0.5, 7.0]))
        assert h.total() == 3
        assert h.counts[0] == 1   # -3 clamps low
        assert h.counts[-1] == 1  # 7 clamps high

    def test_histogram_observe_scalar_matches_accumulate(self):
        via_observe = Histogram("o", np.linspace(0.0, 1.0, 11))
        via_batch = Histogram("b", np.linspace(0.0, 1.0, 11))
        values = [0.02, 0.33, 0.99, -1.0, 2.0, 0.61]
        for v in values:
            via_observe.observe(v)
        via_batch.accumulate(np.array(values))
        assert via_observe.counts.tolist() == via_batch.counts.tolist()
        # generic (non-uniform) path too
        gen = Histogram("g", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        for v in values:
            gen.observe(v)
        assert gen.total() == len(values)

    def test_histogram_percentile(self):
        h = Histogram("p", np.linspace(0.0, 100.0, 101))  # 1-wide bins
        for v in range(100):
            h.observe(v + 0.5)  # one sample per bin
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert h.percentile(0) <= h.percentile(100)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_percentile_empty_is_nan(self):
        h = Histogram("e", np.linspace(0.0, 1.0, 5))
        assert np.isnan(h.percentile(50))


class TestRegistry:
    def test_record_creates_series_lazily(self):
        reg = MetricsRegistry(Simulator(), interval=1.0)
        reg.record(0.0, "x", 1.0)
        reg.record(1.0, "x", 2.0)
        assert reg.series["x"].values.tolist() == [1.0, 2.0]
        assert reg.latest["x"] == 2.0

    def test_sampling_cadence_and_finish(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=10.0)
        reg.add_sampler(lambda now: reg.record(now, "clock", now))
        reg.start()
        sim.run(until=35.0)
        reg.finish()
        # t=0 baseline, ticks at 10/20/30, closing sample at 35
        assert reg.series["clock"].times.tolist() == [
            0.0, 10.0, 20.0, 30.0, 35.0,
        ]

    def test_finish_idempotent_and_skips_duplicate_final(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=10.0)
        reg.add_sampler(lambda now: reg.record(now, "clock", now))
        reg.start()
        sim.run(until=30.0)  # last tick lands exactly at the clock
        reg.finish()
        reg.finish()
        assert reg.series["clock"].times.tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_deep_sampler_stride_and_closing_sample(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.add_deep_sampler(
            lambda now: reg.record(now, "deep", now), stride=4
        )
        reg.start()
        sim.run(until=10.0)  # ticks 1..11 at t=0..10
        reg.finish()
        # stride 4 -> ticks 1, 5, 9 (t=0, 4, 8) + the closing sample at 10
        assert reg.series["deep"].times.tolist() == [0.0, 4.0, 8.0, 10.0]

    def test_deep_sampler_not_rerun_when_last_tick_was_deep(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.add_deep_sampler(lambda now: reg.record(now, "deep", now), stride=1)
        reg.start()
        sim.run(until=3.0)
        reg.finish()
        # every tick is deep; finish must not append a duplicate point
        assert reg.series["deep"].times.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry(Simulator(), interval=0.0)

    def test_gauge_probe_sampled_each_tick(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=10.0)
        counter = {"v": 0.0}
        reg.gauge("v", lambda: counter["v"])
        reg.start()
        sim.at(15.0, lambda: counter.__setitem__("v", 7.0))
        sim.run(until=35.0)
        # t=0 baseline, then ticks at 10, 20, 30
        assert reg.series["v"].times.tolist() == [0.0, 10.0, 20.0, 30.0]
        assert reg.series["v"].values.tolist() == [0.0, 0.0, 7.0, 7.0]

    def test_finish_uses_tracked_cancellation(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.gauge("x", lambda: 1.0)
        reg.start()
        sim.run(until=2.5)
        reg.finish()
        assert reg._membership.stopped
        before = len(reg.series["x"])
        sim.run(until=10.0)
        assert len(reg.series["x"]) == before  # no further samples

    def test_start_twice_raises(self):
        reg = MetricsRegistry(Simulator(), interval=1.0)
        reg.start()
        with pytest.raises(RuntimeError):
            reg.start()

    def test_one_shared_heap_entry_for_sampling(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=5.0)
        for i in range(3):
            reg.add_sampler(
                lambda now, i=i: reg.record(now, f"m{i}", 1.0)
            )
        reg.start()
        before = sim.events_executed
        sim.run(until=20.0)
        # one shared-round firing per tick, independent of sampler count
        assert sim.events_executed - before == 4

    def test_to_payload_round_trips_json(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.add_sampler(lambda now: reg.record(now, "x", now * 2))
        reg.histogram("h", np.linspace(0.0, 1.0, 3)).accumulate(
            np.array([0.1, 0.9])
        )
        reg.start()
        sim.run(until=2.0)
        reg.finish()
        payload = json.loads(json.dumps(reg.to_payload()))
        assert payload["format"] == REGISTRY_FORMAT
        assert payload["series"]["x"]["t"] == [0.0, 1.0, 2.0]
        assert payload["series"]["x"]["v"] == [0.0, 2.0, 4.0]
        assert payload["histograms"]["h"]["counts"] == [1, 1]


class TestRunIntegration:
    def test_obs_on_off_results_identical(self):
        r_off = run_experiment(ExperimentConfig(**BASE))
        r_on = run_experiment(ExperimentConfig(**BASE, obs=ObsConfig()))
        d_off = dataclasses.asdict(r_off)
        d_on = dataclasses.asdict(r_on)
        assert d_off.pop("series") is None
        assert d_on.pop("series") is not None
        d_off["params"].pop("obs", None)
        d_on["params"].pop("obs", None)
        assert d_off == d_on

    def test_disabled_obs_config_behaves_like_none(self):
        r_none = run_experiment(ExperimentConfig(**BASE))
        r_disabled = run_experiment(
            ExperimentConfig(**BASE, obs=ObsConfig(enabled=False))
        )
        assert r_disabled.series is None
        assert r_none.generated == r_disabled.generated
        assert r_none.admission_probability == r_disabled.admission_probability

    def test_series_payload_shape(self):
        obs = ObsConfig(samples_target=16, agent_stride=4)
        result = run_experiment(ExperimentConfig(**BASE, obs=obs))
        payload = result.series
        assert payload["format"] == REGISTRY_FORMAT
        assert payload["ticks"] == 17  # t=0 baseline + 16 cadence ticks
        series = payload["series"]
        for name in (
            "nodes_live",
            "nodes_busy",
            "nodes_available",
            "queue_backlog_total",
            "queue_usage_mean",
            "tasks_generated",
            "tasks_admitted",
            "tasks_completed",
            "messages_sent",
            "messages_delivered",
        ):
            assert len(series[name]["t"]) == 17, name
            assert series[name]["t"][-1] == BASE["horizon"], name
        # deep series are strided but still close at the horizon
        for name in ("queue_usage_p50", "queue_usage_p90", "queue_usage_max"):
            assert series[name]["t"][-1] == BASE["horizon"], name
            assert len(series[name]["t"]) < 17, name
        # trajectories are consistent with the terminal counters
        assert series["tasks_generated"]["v"][-1] == result.generated
        assert series["tasks_completed"]["v"][-1] == result.completed
        assert series["nodes_live"]["v"][0] == BASE["nodes"]
        # the payload is the registry's alone: no kernel dispatch stats
        assert "cohorts" not in payload
        json.dumps(payload)  # JSON-clean end to end

    def test_usage_histogram_accumulates_on_deep_ticks(self):
        obs = ObsConfig(samples_target=16, agent_stride=4)
        cfg = ExperimentConfig(**BASE, obs=obs)
        system = build_system(cfg)
        system.run()
        result = system.result()
        hist = result.series["histograms"]["queue_usage"]
        # deep ticks: 1, 5, 9, 13, 17 (stride 4 over 17 ticks) — the
        # final tick (17) already matches the stride phase
        deep_ticks = 5
        assert sum(hist["counts"]) == BASE["nodes"] * deep_ticks

    def test_record_series_off_keeps_flight_recorder(self):
        cfg = ExperimentConfig(**BASE, obs=ObsConfig(record_series=False))
        system = build_system(cfg)
        assert system.registry is not None
        assert system.recorder is not None
        system.run()
        result = system.result()
        assert result.series is None
        assert system.recorder.snapshots_seen > 0

    def test_trace_bytes_identical_obs_on_vs_off(self, tmp_path):
        from repro.obs.sinks import record_to_json

        def trace_lines(obs):
            cfg = ExperimentConfig(
                **{**BASE, "horizon": 20.0}, trace=True, obs=obs
            )
            system = build_system(cfg)
            system.run()
            system.result()
            return [record_to_json(r) for r in system.sim.trace.records]

        assert trace_lines(None) == trace_lines(ObsConfig())
