"""Layer profiler tests: attribution, accounting, run equivalence."""

import dataclasses

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system, run_experiment
from repro.obs.profiler import KernelProfiler, subsystem_of
from repro.sim.kernel import Simulator


def _profiled_sim_run(sim: Simulator, **run_kwargs) -> KernelProfiler:
    prof = KernelProfiler()
    with prof:
        sim.run(**run_kwargs)
    return prof


class TestSubsystemMapping:
    def test_architectural_layers(self):
        assert subsystem_of("repro.node.queue") == "queue"
        assert subsystem_of("repro.node.monitor") == "monitor"
        assert subsystem_of("repro.node.host") == "node"
        assert subsystem_of("repro.network.transport") == "transport"
        assert subsystem_of("repro.protocols.pure_pull") == "protocol"
        assert subsystem_of("repro.core.realtor") == "protocol"
        assert subsystem_of("repro.migration.migrator") == "migration"
        assert subsystem_of("repro.workload.arrivals") == "workload"
        assert subsystem_of("repro.sim.kernel") == "kernel"
        assert subsystem_of("repro.metrics.collector") == "metrics"
        assert subsystem_of("repro.obs.registry") == "obs"
        assert subsystem_of("repro.live.scheduler") == "live"
        assert subsystem_of("repro.runtime.api") == "kernel"
        assert subsystem_of("repro.experiments.runner") == "experiments"
        assert subsystem_of("repro.experiments.store") == "experiments"
        assert subsystem_of("numpy") == "numpy"
        assert subsystem_of("numpy.core.fromnumeric") == "numpy"

    def test_unknown_module_falls_back(self):
        assert subsystem_of("some.third.party") == "other"
        assert subsystem_of("reproducible") == "other"  # dotted boundary
        assert subsystem_of("numpyro") == "other"


class TestRecord:
    def test_accumulates_per_callback_and_subsystem(self):
        sim = Simulator(seed=1)

        def cb():
            sum(range(200))

        for i in range(7):
            sim.at(float(i), cb)
        rep = _profiled_sim_run(sim).report()
        (name,) = [n for n in rep.by_callback if n.endswith("<locals>.cb")]
        entry = rep.by_callback[name]
        assert entry.calls == 7 and entry.seconds > 0.0
        # a callback outside repro is billed to the loop that called it
        assert set(rep.by_subsystem) == {"kernel", "obs"}

    def test_bound_methods_share_one_entry(self):
        class Thing:
            def tick(self):
                pass

        sim = Simulator(seed=1)
        # a fresh bound-method object per schedule, as the kernel sees them
        sim.at(1.0, Thing().tick)
        sim.at(2.0, Thing().tick)
        rep = _profiled_sim_run(sim).report()
        ticks = [e for n, e in rep.by_callback.items() if n.endswith("Thing.tick")]
        assert len(ticks) == 1 and ticks[0].calls == 2

    def test_finish_run_folds_remainder_into_kernel(self):
        """Builtins the run loop calls (heap pops) are kernel self time."""
        sim = Simulator(seed=1)
        for i in range(50):
            sim.at(float(i), lambda: None)
        rep = _profiled_sim_run(sim).report()
        heappop = rep.by_callback["<built-in method _heapq.heappop>"]
        assert heappop.calls == 50
        assert rep.by_subsystem["kernel"] >= (
            heappop.seconds + rep.by_callback["Simulator.run"].seconds
        )

    def test_report_is_a_snapshot(self):
        sim = Simulator(seed=1)
        sim.at(1.0, lambda: None)
        prof = _profiled_sim_run(sim, until=1.0)
        rep = prof.report()
        sim.at(2.0, lambda: None)
        with prof:
            sim.run()
        assert rep.by_callback["Simulator.run"].calls == 1
        assert prof.report().by_callback["Simulator.run"].calls == 2
        assert prof.total_seconds > rep.total_seconds


class TestProfiledRun:
    def test_kernel_feeds_profiler(self):
        sim = Simulator(seed=1)
        hits = []
        for i in range(5):
            sim.at(float(i), hits.append, i)
        rep = _profiled_sim_run(sim, until=10.0).report()
        assert hits == [0, 1, 2, 3, 4]
        assert rep.by_callback["<method 'append' of 'list' objects>"].calls == 5
        assert rep.total_seconds > 0.0

    def test_accounts_at_least_95_percent_of_wall_time(self):
        """Acceptance: >=95% of profiled wall time lands in named layers."""
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=25.0, horizon=300.0, seed=3
        )
        system = build_system(cfg)
        prof = KernelProfiler()
        with prof:
            system.run()
        rep = prof.report()
        assert rep.by_callback["Simulator.run"].calls == 1
        assert rep.accounted_fraction >= 0.95
        assert "other" not in rep.by_subsystem  # every frame maps to a layer
        # self time reaches the discovery and migration layers, not just
        # the arrival callback that triggers them
        for layer in ("queue", "workload", "kernel", "protocol", "migration"):
            assert rep.by_subsystem[layer] > 0.0, layer

    def test_profiled_run_results_match_unprofiled(self):
        """Profiling observes; it must not perturb simulation outcomes."""
        cfg = ExperimentConfig(
            protocol="realtor", arrival_rate=20.0, horizon=200.0, seed=5
        )
        plain = run_experiment(cfg)
        with KernelProfiler():
            profiled = run_experiment(cfg)
        assert plain.extra["cohorts"] > 0
        assert dataclasses.asdict(profiled) == dataclasses.asdict(plain)

    def test_profile_respects_until_and_max_events(self):
        sim = Simulator(seed=1)
        for i in range(10):
            sim.at(float(i), lambda: None)
        _profiled_sim_run(sim, max_events=3)
        assert sim.now == 2.0
        sim2 = Simulator(seed=1)
        for i in range(10):
            sim2.at(float(i), lambda: None)
        _profiled_sim_run(sim2, until=4.5)
        assert sim2.now == 4.5

    def test_format_renders_tables(self):
        sim = Simulator(seed=1)
        sim.at(1.0, lambda: None)
        text = _profiled_sim_run(sim).report().format()
        assert "accounted" in text
        assert "subsystem" in text
        assert "function" in text
        assert "Simulator.run" in text
