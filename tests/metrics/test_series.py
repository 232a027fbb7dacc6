"""Unit tests for time series and periodic sampling."""

import pytest

from repro.metrics.series import TimeSeries
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator


class TestTimeSeries:
    def test_append_and_views(self):
        ts = TimeSeries("x", initial_capacity=2)
        for i in range(5):  # forces buffer growth
            ts.append(float(i), float(i * 10))
        assert len(ts) == 5
        assert ts.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert ts.values.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_mean_and_max(self):
        ts = TimeSeries()
        for t, v in [(0.0, 1.0), (1.0, 3.0)]:
            ts.append(t, v)
        assert ts.mean() == 2.0
        assert ts.max() == 3.0

    def test_empty_stats(self):
        ts = TimeSeries()
        assert ts.mean() == 0.0
        assert ts.max() == 0.0
        assert ts.time_average() == 0.0

    def test_time_average_weights_by_duration(self):
        ts = TimeSeries()
        ts.append(0.0, 10.0)   # held for 9 time units
        ts.append(9.0, 0.0)    # held for 1
        ts.append(10.0, 0.0)
        assert ts.time_average() == pytest.approx(9.0)

    def test_window_half_open(self):
        ts = TimeSeries()
        for t in (0.0, 1.0, 2.0, 3.0):
            ts.append(t, t)
        times, values = ts.window(1.0, 3.0)
        assert times.tolist() == [1.0, 2.0]

    def test_crossings(self):
        ts = TimeSeries()
        for t, v in enumerate([0.1, 0.95, 0.5, 0.92, 0.3]):
            ts.append(float(t), v)
        assert ts.crossings(0.9) == 4

    def test_growth_preserves_data_across_many_doublings(self):
        # regression: np.resize fills the grown tail by *repeating* the
        # data; the explicit grow-and-copy must keep every sample intact
        ts = TimeSeries("x", initial_capacity=1)
        n = 1000  # 1 -> 1024 is ten doublings
        for i in range(n):
            ts.append(float(i), float(i) * 0.5)
        assert len(ts) == n
        assert ts.times.tolist() == [float(i) for i in range(n)]
        assert ts.values.tolist() == [float(i) * 0.5 for i in range(n)]

    def test_views_share_memory_with_buffer(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        v = ts.values
        assert v.base is ts._v  # a view, not a copy
        assert ts.times.base is ts._t

    def test_last(self):
        ts = TimeSeries()
        assert ts.last() == 0.0
        ts.append(0.0, 3.0)
        ts.append(1.0, 7.0)
        assert ts.last() == 7.0

    def test_percentile_accessors(self):
        ts = TimeSeries()
        for i in range(101):
            ts.append(float(i), float(i))
        assert ts.percentile(50.0) == pytest.approx(50.0)
        assert ts.percentile(90.0) == pytest.approx(90.0)
        p = ts.percentiles((50.0, 90.0, 100.0))
        assert p.tolist() == pytest.approx([50.0, 90.0, 100.0])

    def test_percentiles_empty(self):
        ts = TimeSeries()
        assert ts.percentile(50.0) == 0.0
        assert ts.percentiles((10.0, 90.0)).tolist() == [0.0, 0.0]


class TestSampler:
    """Periodic sampling, now done by MetricsRegistry gauges."""

    def test_stop_halts_sampling(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.gauge("x", lambda: 1.0)
        reg.start()
        sim.at(2.5, reg.finish)
        sim.run(until=10.0)
        # t=0, 1, 2, then the closing sample at the stop instant
        assert reg.series["x"].times.tolist() == [0.0, 1.0, 2.0, 2.5]

    def test_same_cadence_samplers_share_one_heap_entry(self):
        # registries ride Simulator.shared_periodic: N same-cadence
        # registries must cost one agenda entry per tick, not N
        sim = Simulator()
        regs = [MetricsRegistry(sim, interval=5.0) for _ in range(4)]
        for i, reg in enumerate(regs):
            reg.gauge(f"x{i}", lambda: 1.0)
            reg.start()
        before = sim.events_executed
        sim.run(until=20.0)
        fired = sim.events_executed - before
        # ticks at 5, 10, 15, 20 -> 4 shared firings regardless of count
        assert fired == 4
        for i, reg in enumerate(regs):
            assert len(reg.series[f"x{i}"]) == 5  # baseline + 4 ticks

    def test_stop_uses_tracked_cancellation(self):
        sim = Simulator()
        reg = MetricsRegistry(sim, interval=1.0)
        reg.gauge("x", lambda: 1.0)
        reg.start()
        reg.finish()
        assert reg._membership.stopped
        before = len(reg.series["x"])
        sim.run(until=10.0)
        assert len(reg.series["x"]) == before  # no further samples
