"""Tests of the benchmark's own tracer, layer plan and workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import inspect
import json
import signal
from pathlib import Path

import pytest

import layers
import report
import run
from layers import Probes, install_layers, install_timers
from speed import REF_S, SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, Workload

from repro.experiments import ExperimentConfig
from repro.network.routing import Router

ROOT = Path(__file__).resolve().parents[2]

#: a seed the benchmark's settings were not tuned on
HELD_OUT_SEED = 2


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    leaf_t = tracer.traced(leaf, "leaf", "b")

    def outer():
        clock.now += 1.0
        leaf_t(2.0)
        clock.now += 0.5
        leaf_t(3.0)

    tracer.traced(outer, "outer", "a")()
    assert tracer.spans["outer"].total == pytest.approx(6.5)
    assert tracer.spans["outer"].self_time == pytest.approx(1.5)
    assert tracer.spans["leaf"].calls == 2
    assert tracer.spans["leaf"].self_time == pytest.approx(5.0)
    assert tracer.layer_self() == pytest.approx({"a": 1.5, "b": 5.0})


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.traced(boom, "boom", "a")()
    tracer.traced(lambda: None, "after", "a")()
    assert tracer.spans["boom"].calls == 1
    assert tracer._stack == [1.0]  # only the root accumulator is left open


def test_wrap_refuses_properties_and_coroutines():
    class C:
        @property
        def p(self):
            return 1

        async def co(self):
            return 1

    tracer = Tracer()
    with pytest.raises(TypeError):
        tracer.wrap(C, "p", "p", "x")
    with pytest.raises(TypeError):
        tracer.wrap(C, "co", "co", "x")
    assert tracer.installed == 0


def _owners(tracer):
    return {(owner, attr) for owner, attr, _raw, _own in tracer._patches}


def _raw(owner, attr):
    return owner.__dict__.get(attr, "<absent>") if hasattr(owner, "__dict__") else None


def small_workload():
    def base(seed):
        return ExperimentConfig(protocol="realtor", arrival_rate=8.0, horizon=60.0, seed=seed)

    return Workload("small", ["realtor", "push-1"], [8.0], base, pass_s=1.0)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    probe = Tracer()
    install_timers(probe, Probes())
    install_layers(probe, Probes())
    touched = _owners(probe)
    probe.restore()
    before = {key: _raw(*key) for key in touched}
    assert len(touched) > 80

    res = run.trace(small_workload(), 1, tmp_path / "work", tmp_path)
    assert res["failed"] == 0, res["failures"]
    assert {key: _raw(*key) for key in touched} == before
    # the untraced path runs the program's own functions again
    assert inspect.getattr_static(Router, "distance").__module__ == "repro.network.routing"
    assert not hasattr(inspect.getattr_static(Router, "distance"), "__wrapped__")


def test_traced_run_detects_a_changed_execution_path(tmp_path, monkeypatch):
    # A tracer that perturbs the program must fail the determinism check.
    original = layers.install_layers

    def perturbing(tracer, probes):
        original(tracer, probes)
        tracer.patch(ExperimentConfig, "__post_init__", _shorter_horizon)

    monkeypatch.setattr(run, "install_layers", perturbing)
    res = run.trace(small_workload(), 1, tmp_path / "work", tmp_path)
    assert res["failed"] > 0
    assert any("tracing changed" in f for f in res["failures"])


def _shorter_horizon(cfg):
    object.__setattr__(cfg, "horizon", cfg.horizon / 2)


def test_call_counts_repeat_exactly(tmp_path):
    counts = []
    for i in range(2):
        run.trace(small_workload(), 3, tmp_path / "work", tmp_path / str(i))
        data = json.loads(next((tmp_path / str(i)).glob("trace-*.json")).read_text())
        counts.append({k: v["calls"] for k, v in data["spans"].items()})
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks_on_a_held_out_seed(name, tmp_path):
    workload = WORKLOADS[name]
    tracer = Tracer()
    try:
        install_timers(tracer, Probes())
        result = workload.run_pass(HELD_OUT_SEED, tmp_path, tracer)
    finally:
        tracer.restore()
    assert result.failed == 0, result.failures
    assert result.attempted >= workload.cells
    assert result.generated > 0 and result.admitted > 0


def test_speed_probe_rescales_and_removes_its_own_time():
    probe = SpeedProbe(period=0.1)
    # a host at half the reference speed: every loop takes twice as long
    probe.samples = [(t, t + 2 * REF_S) for t in (0.0, 0.1, 0.2, 0.3, 0.4)]
    assert probe.factor(0.05, 0.35) == pytest.approx(0.5)
    busy = 3 * 2 * REF_S  # the samples starting at 0.1, 0.2 and 0.3
    assert probe.normalise(0.05, 0.35) == pytest.approx((0.3 - busy) * 0.5)


def test_speed_probe_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.01) as probe:
        deadline = probe.samples[0][1] + 0.1
        while probe.samples[-1][1] < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3


def test_report_gives_layer_shares_and_a_diff(tmp_path):
    for side, secs in (("before", 1.0), ("after", 1.5)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "trace-w-seed1.json").write_text(json.dumps({
            "workload": "w",
            "traced_wall_s": 2.0,
            "layer_self_s": {"sim": secs},
            "metrics": {"sim.self_s": secs},
        }))
    before, after = (report.load([tmp_path / side]) for side in ("before", "after"))
    assert "75.0%" in report.render_layers(after)  # 1.5 of 2.0 traced seconds
    diff = report.render_diff(before, after)
    assert "sim.self_s" in diff and "+50.0%" in diff
