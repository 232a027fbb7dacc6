"""Tests for the content-addressed run store."""

import json

import pytest

from repro.experiments.chaos import ChaosSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import (
    CODE_VERSION,
    STORE_FORMAT,
    RunStore,
    config_digest,
    default_salt,
)
from repro.experiments.sweep import run_sweep
from repro.obs.config import ObsConfig
from repro.metrics.export import result_to_canonical_json

CFG = ExperimentConfig(horizon=100.0, arrival_rate=4.0)


class TestConfigDigest:
    def test_deterministic(self):
        assert config_digest(CFG) == config_digest(CFG)
        assert config_digest(CFG) == config_digest(
            ExperimentConfig(horizon=100.0, arrival_rate=4.0)
        )

    def test_sensitive_to_every_input(self):
        base = config_digest(CFG)
        assert config_digest(CFG.with_(seed=2)) != base
        assert config_digest(CFG.with_(arrival_rate=4.5)) != base
        assert config_digest(CFG.with_(protocol="push-1")) != base

    def test_nested_dataclasses_digested(self):
        from repro.protocols.base import ProtocolConfig

        tweaked = CFG.with_(protocol_config=ProtocolConfig(threshold=0.8))
        assert config_digest(tweaked) != config_digest(CFG)

    def test_spec_part_of_identity(self):
        assert config_digest(CFG, ChaosSpec(victims=2)) != config_digest(CFG)
        assert config_digest(CFG, ChaosSpec(victims=2)) != config_digest(
            CFG, ChaosSpec(victims=3)
        )

    def test_salt_invalidates(self):
        assert config_digest(CFG) == config_digest(CFG, salt=default_salt())
        assert config_digest(CFG, salt="other-code-version") != config_digest(CFG)

    def test_canonical_rates_collide_on_purpose(self):
        """3.0 and 3.0000000000000004 canonicalise to one digest upstream."""
        from repro.metrics.export import canonical_rate

        noisy = CFG.with_(arrival_rate=canonical_rate(3.0000000000000004))
        clean = CFG.with_(arrival_rate=3.0)
        assert config_digest(noisy) == config_digest(clean)


class TestRunStore:
    @pytest.fixture()
    def result(self):
        return run_experiment(CFG)

    def test_put_get_roundtrip(self, tmp_path, result):
        store = RunStore(tmp_path)
        digest = store.digest(CFG)
        assert store.get(digest) is None
        store.put(digest, CFG, result)
        got = store.get(digest)
        assert result_to_canonical_json(got) == result_to_canonical_json(result)
        assert store.hits == 1 and store.misses == 1 and store.writes == 1

    def test_survives_reopen(self, tmp_path, result):
        store = RunStore(tmp_path)
        digest = store.digest(CFG)
        store.put(digest, CFG, result)
        store.flush()

        again = RunStore(tmp_path)
        assert len(again) == 1
        assert digest in again
        assert result_to_canonical_json(again.get(digest)) == result_to_canonical_json(
            result
        )

    def test_truncated_trailing_line_skipped(self, tmp_path, result):
        """A kill mid-append loses at most the in-flight record."""
        store = RunStore(tmp_path)
        store.put(store.digest(CFG), CFG, result)
        cfg2 = CFG.with_(seed=9)
        store.put(store.digest(cfg2), cfg2, result)

        # chop bytes off the end of one shard, as a SIGKILL mid-write would
        shards = sorted(store.shard_dir.glob("*.jsonl"))
        victim = shards[-1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) - 25])

        reopened = RunStore(tmp_path)
        assert reopened.corrupt_lines == 1
        assert len(reopened) == 1

    def test_force_append_last_record_wins(self, tmp_path, result):
        store = RunStore(tmp_path)
        digest = store.digest(CFG)
        store.put(digest, CFG, result)
        other = run_experiment(CFG.with_(seed=5))
        store.put(digest, CFG, other)  # force re-run refreshed the record

        reopened = RunStore(tmp_path)
        assert len(reopened) == 1
        assert result_to_canonical_json(reopened.get(digest)) == (
            result_to_canonical_json(other)
        )

    def test_rejects_foreign_format(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps({"format": "not-a-store"}))
        with pytest.raises(ValueError):
            RunStore(tmp_path)

    def test_salted_lookups_miss_other_salt(self, tmp_path, result):
        old = RunStore(tmp_path, salt="code-version-0")
        old.put(old.digest(CFG), CFG, result)

        new = RunStore(tmp_path)  # default salt: old records never match
        assert new.get(new.digest(CFG)) is None

    def test_reopen_after_kill_index_disagreement(self, tmp_path, result):
        """SIGKILL between a put and a flush leaves the advisory index
        stale; reopening must trust the shards and say nothing."""
        store = RunStore(tmp_path)
        store.put(store.digest(CFG), CFG, result)
        store.flush()
        # two more records land after the flush; the kill arrives before
        # the next flush, so index.json still claims 1 entry / old shards
        for seed in (7, 8):
            cfg = CFG.with_(seed=seed)
            store.put(store.digest(cfg), cfg, result)

        reopened = RunStore(tmp_path)
        assert len(reopened) == 3  # shards win; stale count ignored
        assert reopened.corrupt_lines == 0

    @pytest.mark.parametrize(
        "index_bytes",
        [
            b"",                          # truncated to nothing
            b'{"format": "repro-runst',   # torn mid-write
            b"[1, 2, 3]\n",               # valid JSON, not an object
            b'"repro-runstore/1"\n',      # valid JSON, not an object
            b"42\n",                      # valid JSON, not an object
        ],
        ids=["empty", "torn", "list", "string", "number"],
    )
    def test_reopen_with_corrupt_index(self, tmp_path, result, index_bytes):
        """Every corrupt index shape falls through to the shard loader."""
        store = RunStore(tmp_path)
        digest = store.digest(CFG)
        store.put(digest, CFG, result)
        store.flush()
        (tmp_path / "index.json").write_bytes(index_bytes)

        reopened = RunStore(tmp_path)
        assert len(reopened) == 1
        assert result_to_canonical_json(reopened.get(digest)) == (
            result_to_canonical_json(result)
        )

    def test_reopen_with_index_listing_deleted_shard(self, tmp_path, result):
        """An index naming shards that no longer exist must not resurrect
        or block anything — only shard files on disk count."""
        store = RunStore(tmp_path)
        cfg2 = CFG.with_(seed=9)
        store.put(store.digest(CFG), CFG, result)
        store.put(store.digest(cfg2), cfg2, result)
        store.flush()
        shards = sorted(store.shard_dir.glob("*.jsonl"))
        if len(shards) < 2:
            pytest.skip("both digests landed in one shard")
        shards[0].unlink()  # index still lists it

        reopened = RunStore(tmp_path)
        assert len(reopened) == 1

    def test_flush_is_atomic(self, tmp_path, result):
        store = RunStore(tmp_path)
        store.put(store.digest(CFG), CFG, result)
        store.flush()
        assert json.loads((tmp_path / "index.json").read_text())["entries"] == 1
        assert not (tmp_path / "index.json.tmp").exists()

    def test_stats_snapshot(self, tmp_path, result):
        store = RunStore(tmp_path)
        store.put(store.digest(CFG), CFG, result)
        store.get(store.digest(CFG))
        store.get(store.digest(CFG.with_(seed=2)))
        assert store.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "writes": 1,
            "corrupt_lines": 0,
        }


class TestCodeVersion5:
    """Version 5 dropped the kernel's cohort-batching extras."""

    def test_written_results_carry_no_cohort_data(self, tmp_path):
        cfg = CFG.with_(obs=ObsConfig(samples_target=4))
        store = RunStore(tmp_path)
        store.put(store.digest(cfg), cfg, run_experiment(cfg))
        store.flush()
        record = RunStore(tmp_path).get_record(store.digest(cfg))
        stored = record["result"]
        assert not [k for k in stored["extra"] if k.startswith("cohort")]
        assert stored["series"] is not None
        assert "cohorts" not in stored["series"]

    def test_version_4_store_is_recomputed_not_served(self, tmp_path):
        assert CODE_VERSION == "5"
        old = RunStore(tmp_path, salt=f"{STORE_FORMAT}:code=4")
        stale = run_experiment(CFG)
        stale.extra["cohorts"] = 7.0  # what a version-4 run recorded
        old.put(old.digest(CFG), CFG, stale)
        old.flush()

        store = RunStore(tmp_path)
        results = run_sweep([CFG.protocol], [CFG.arrival_rate], CFG, store=store)
        assert store.hits == 0 and store.misses == 1 and store.writes == 1
        fresh = results[CFG.protocol][CFG.arrival_rate]
        assert "cohorts" not in fresh.extra
