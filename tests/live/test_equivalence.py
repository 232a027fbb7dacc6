"""Live-vs-sim equivalence (the seam's end-to-end contract).

Same seed, same workload: the live runtime derives its named random
substreams exactly like the simulator, so a live run and a simulated run
with equal seeds draw the *identical* arrival/size/origin sequence.  The
assertions exploit that split:

* the workload side is deterministic — generated counts must match the
  simulator **exactly** (the open-loop arrival generator guarantees the
  count survives wall-clock lateness);
* the admission side is timing-sensitive — real concurrency can reorder
  a handful of near-simultaneous admission decisions — so admission
  probabilities match within a tolerance, not bit-for-bit.

Nothing here asserts on wall-clock durations, so CI load cannot flake
these; the high ``time_scale`` keeps each live run in well under a
second of wall time.
"""

import asyncio

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.live import LiveConfig, run_live

#: admission-probability gap allowed between the runtimes.  Measured
#: gaps are ~0.002 even in deep overload; 0.1 absorbs scheduler jitter
#: on a loaded CI machine without ever passing a broken runtime.
TOLERANCE = 0.1

SEED = 42

#: (arrival rate, horizon): one underloaded point (admission ~1.0) and
#: one deep-overload point (admission well below 1), so the curves are
#: compared where they are flat *and* where they are steep.
POINTS = [(4.0, 30.0), (100.0, 10.0)]


def live_run(rate: float, horizon: float) -> dict:
    cfg = LiveConfig(
        experiment=ExperimentConfig(
            protocol="realtor",
            nodes=25,
            arrival_rate=rate,
            horizon=horizon,
            seed=SEED,
        ),
        time_scale=200.0,
        latency=0.0,
        drain_timeout=60.0,
    )
    return asyncio.run(run_live(cfg))


def sim_run(rate: float, horizon: float):
    return run_experiment(
        ExperimentConfig(
            protocol="realtor",
            nodes=25,
            arrival_rate=rate,
            horizon=horizon,
            seed=SEED,
        )
    )


@pytest.fixture(scope="module")
def curves():
    """Both runtimes over both load points (module-scoped: ~4 runs)."""
    return {
        (rate, horizon): (sim_run(rate, horizon), live_run(rate, horizon))
        for rate, horizon in POINTS
    }


class TestEquivalence:
    def test_same_seed_generates_identical_workload(self, curves):
        for (rate, horizon), (sim, live) in curves.items():
            assert live["tasks"]["generated"] == sim.generated, (
                f"rate={rate}: live generated {live['tasks']['generated']}, "
                f"sim generated {sim.generated}"
            )

    def test_admission_probability_within_tolerance(self, curves):
        for (rate, horizon), (sim, live) in curves.items():
            gap = abs(live["admission_probability"] - sim.admission_probability)
            assert gap <= TOLERANCE, (
                f"rate={rate}: live adm={live['admission_probability']:.4f} "
                f"sim adm={sim.admission_probability:.4f} gap={gap:.4f}"
            )

    def test_curve_shape_preserved(self, curves):
        # underload admits (nearly) everything; overload admits far less
        # — the live curve must bend the same way the sim curve does
        (under_sim, under_live) = curves[POINTS[0]]
        (over_sim, over_live) = curves[POINTS[1]]
        assert under_live["admission_probability"] > 0.9
        assert over_live["admission_probability"] < 0.7
        assert (
            under_live["admission_probability"] > over_live["admission_probability"]
        )

    def test_live_run_settles_everything(self, curves):
        for _point, (_sim, live) in curves.items():
            tasks = live["tasks"]
            settled = tasks["admitted"] + tasks["rejected"]
            assert settled == tasks["generated"]
            assert live["drained"] is True
            assert live["clean_shutdown"] is True

    def test_latency_percentiles_reported(self, curves):
        for _point, (_sim, live) in curves.items():
            lat = live["latency_ms"]
            assert lat["count"] == live["tasks"]["generated"]
            assert 0.0 <= lat["p50"] <= lat["p99"] <= lat["max"]
