"""Byte-stable JSONL traces and span reconstruction at the 2500-node tier.

The scaling tiers are where a flood reaches thousands of receivers in one
delivery event, so these tests pin the observability contract at scale:
identical runs stream byte-identical JSONL trace files, an obs-enabled run
streams the same bytes as an obs-less one, and the file round-trips into
records that reconstruct the same HELP/placement spans as the in-memory
trace.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_system
from repro.obs.config import ObsConfig
from repro.obs.inspect import load_trace_jsonl
from repro.obs.sinks import JsonLinesSink
from repro.obs.spans import build_help_spans, build_placement_spans


def _tier_config(obs=None) -> ExperimentConfig:
    # mirrors the grouped-delivery tier cell: load against a small queue
    # keeps HELP floods and migrations active from the first second
    return ExperimentConfig(
        protocol="realtor",
        topology="torus",
        nodes=2500,
        arrival_rate=750.0,
        queue_capacity=12.0,
        horizon=4.0,
        seed=11,
        trace=True,
        obs=obs,
    )


def _traced_to_file(path, obs=None, group_sizes=None):
    """Run the tier cell streaming its trace to ``path``; return the system.

    ``group_sizes``, when given, collects the receiver count of every
    delivery event the transport fires.
    """
    system = build_system(_tier_config(obs=obs))
    if group_sizes is not None:
        deliver = system.transport._deliver

        def counted(src, receivers, *rest):
            group_sizes.append(len(receivers))
            deliver(src, receivers, *rest)

        system.transport._deliver = counted
    system.sim.trace.add_sink(JsonLinesSink(path, buffer_records=4096))
    system.run()
    system.result()
    system.sim.trace.close_sinks()
    return system


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "baseline.jsonl"
    group_sizes = []
    system = _traced_to_file(path, group_sizes=group_sizes)
    return path, system, group_sizes


class TestByteStability:
    def test_repeat_run_streams_identical_bytes(self, baseline, tmp_path):
        path_a, system, group_sizes = baseline
        # floods must actually reach several receivers per delivery event
        # here, otherwise this tier proves nothing about grouping
        assert system.transport.delivered_messages > 1000
        assert max(group_sizes) > 1
        assert len(group_sizes) < sum(group_sizes)
        path_b = tmp_path / "repeat.jsonl"
        _traced_to_file(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_obs_enabled_run_streams_identical_bytes(self, baseline, tmp_path):
        path_a, _, _ = baseline
        path_b = tmp_path / "obs.jsonl"
        system = _traced_to_file(
            path_b, obs=ObsConfig(samples_target=8, agent_stride=4)
        )
        assert system.registry is not None  # obs really was on
        assert system.recorder.snapshots_seen > 0
        assert path_a.read_bytes() == path_b.read_bytes()


class TestSpanReconstruction:
    def test_file_round_trips_to_in_memory_records(self, baseline):
        path, system, _ = baseline
        from_file = load_trace_jsonl(path)
        in_memory = list(system.sim.trace.records)
        assert len(from_file) == len(in_memory)
        for a, b in zip(from_file, in_memory):
            assert (a.time, a.category, a.payload) == (
                b.time, b.category, b.payload,
            )

    def test_spans_rebuild_from_file(self, baseline):
        path, system, _ = baseline
        records = load_trace_jsonl(path)
        helps = build_help_spans(records)
        places = build_placement_spans(records)
        # an overloaded 2500-node tier floods constantly
        assert len(helps) > 50
        assert any(s.answered for s in helps)
        assert len(places) > 100
        assert any(s.settled for s in places)
        # spans from the file match spans from the in-memory trace
        mem_helps = build_help_spans(list(system.sim.trace.records))
        assert len(helps) == len(mem_helps)
        assert sum(s.answered for s in helps) == sum(
            s.answered for s in mem_helps
        )
