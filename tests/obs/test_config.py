"""Env-knob validation: one place, warn once, never silently mis-parse."""

import logging

import pytest

from repro.obs import config as obs_config
from repro.obs.config import (
    ConfigSnapshot,
    config_snapshot,
    history_cache_size,
    matcher_cache_size,
    repro_scale,
    repro_workers,
)


@pytest.fixture(autouse=True)
def _fresh_warnings(monkeypatch):
    """Each test sees a clean warn-once ledger and no REPRO_* knobs."""
    monkeypatch.setattr(obs_config, "_WARNED", set())
    for var in obs_config.KNOBS:
        monkeypatch.delenv(var, raising=False)


class TestScale:
    def test_default(self):
        assert repro_scale() == obs_config.DEFAULT_SCALE

    def test_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert repro_scale() == 0.5

    def test_garbage_warns_and_defaults(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert repro_scale() == obs_config.DEFAULT_SCALE
        assert "REPRO_SCALE" in caplog.text

    def test_nonpositive_warns_and_defaults(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert repro_scale() == obs_config.DEFAULT_SCALE
        assert "REPRO_SCALE" in caplog.text


class TestWorkers:
    def test_default_serial(self):
        assert repro_workers() == 1

    def test_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert repro_workers() == 4

    def test_zero_and_garbage_default_to_serial(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            monkeypatch.setenv("REPRO_WORKERS", "0")
            assert repro_workers() == 1
            monkeypatch.setenv("REPRO_WORKERS", "fuor")
            assert repro_workers() == 1
        assert caplog.text.count("REPRO_WORKERS") == 2


class TestMatcherCache:
    def test_default(self):
        assert matcher_cache_size() == obs_config.DEFAULT_MATCHER_CACHE

    def test_clamps_to_minimum_with_warning(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_MATCHER_CACHE", "1")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert matcher_cache_size() == 2
        assert "REPRO_MATCHER_CACHE" in caplog.text


class TestHistoryCache:
    def test_default(self):
        assert history_cache_size() == obs_config.DEFAULT_HISTORY_CACHE

    def test_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_CACHE", "1024")
        assert history_cache_size() == 1024

    def test_clamps_to_minimum_with_warning(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_HISTORY_CACHE", "0")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert history_cache_size() == 2
        assert "REPRO_HISTORY_CACHE" in caplog.text

    def test_garbage_warns_and_defaults(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_HISTORY_CACHE", "huge")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert history_cache_size() == obs_config.DEFAULT_HISTORY_CACHE
        assert "REPRO_HISTORY_CACHE" in caplog.text

    def test_recorded_in_snapshot(self, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_CACHE", "4096")
        snapshot = config_snapshot()
        assert snapshot.history_cache == 4096
        assert snapshot.raw_env == {"REPRO_HISTORY_CACHE": "4096"}


class TestWarnOnce:
    def test_same_bad_value_warns_exactly_once(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            for _ in range(5):
                assert repro_workers() == 1
        assert caplog.text.count("REPRO_WORKERS") == 1

    def test_distinct_bad_values_each_warn(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            monkeypatch.setenv("REPRO_WORKERS", "bad1")
            repro_workers()
            monkeypatch.setenv("REPRO_WORKERS", "bad2")
            repro_workers()
        assert caplog.text.count("REPRO_WORKERS") == 2


class TestSnapshot:
    def test_resolves_all_knobs_and_keeps_raw(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.2")
        monkeypatch.setenv("REPRO_WORKERS", "broken")
        snapshot = config_snapshot()
        assert isinstance(snapshot, ConfigSnapshot)
        assert snapshot.scale == 0.2
        assert snapshot.workers == 1  # fell back, but the typo is recorded
        assert snapshot.matcher_cache == obs_config.DEFAULT_MATCHER_CACHE
        assert snapshot.raw_env == {"REPRO_SCALE": "0.2", "REPRO_WORKERS": "broken"}

    def test_explicit_environ_mapping(self):
        snapshot = config_snapshot({"REPRO_SCALE": "1.0"})
        assert snapshot.scale == 1.0
        assert snapshot.raw_env == {"REPRO_SCALE": "1.0"}

    def test_as_dict_is_json_ready(self):
        data = config_snapshot({}).as_dict()
        assert set(data) == {
            "scale",
            "workers",
            "matcher_cache",
            "history_cache",
            "feature_cache",
            "run_cache",
            "list_patch",
            "max_retries",
            "retry_base_ms",
            "crawl_journal",
            "fault_seed",
            "data_plane",
            "rule_stats",
            "rule_stats_dir",
            "serve_port",
            "serve_batch",
            "serve_wait_ms",
            "serve_shards",
            "raw_env",
        }


class TestRuleStatsKnobs:
    def test_default_off(self):
        assert obs_config.rule_stats_enabled() is False
        assert obs_config.rule_stats_dir() is None

    def test_enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RULE_STATS", "1")
        assert obs_config.rule_stats_enabled() is True

    def test_garbage_warns_and_defaults(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_RULE_STATS", "maybe")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert obs_config.rule_stats_enabled() is False
        assert "REPRO_RULE_STATS" in caplog.text

    def test_dir_resolves(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RULE_STATS_DIR", str(tmp_path))
        assert obs_config.rule_stats_dir() == str(tmp_path)

    def test_dir_rejects_plain_file(self, monkeypatch, tmp_path, caplog):
        target = tmp_path / "not-a-dir"
        target.write_text("x")
        monkeypatch.setenv("REPRO_RULE_STATS_DIR", str(target))
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert obs_config.rule_stats_dir() is None
        assert "REPRO_RULE_STATS_DIR" in caplog.text

    def test_recorded_in_snapshot(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RULE_STATS", "1")
        monkeypatch.setenv("REPRO_RULE_STATS_DIR", str(tmp_path))
        snapshot = config_snapshot()
        assert snapshot.rule_stats is True
        assert snapshot.rule_stats_dir == str(tmp_path)
        assert snapshot.as_dict()["rule_stats"] is True


class TestServeKnobs:
    def test_defaults(self):
        assert obs_config.serve_port() == obs_config.DEFAULT_SERVE_PORT
        assert obs_config.serve_batch_size() == obs_config.DEFAULT_SERVE_BATCH
        assert obs_config.serve_wait_ms() == obs_config.DEFAULT_SERVE_WAIT_MS
        assert obs_config.serve_shards() == obs_config.DEFAULT_SERVE_SHARDS

    def test_valid_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "0")  # 0 = ephemeral
        monkeypatch.setenv("REPRO_SERVE_BATCH", "128")
        monkeypatch.setenv("REPRO_SERVE_WAIT_MS", "5.5")
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "4")
        assert obs_config.serve_port() == 0
        assert obs_config.serve_batch_size() == 128
        assert obs_config.serve_wait_ms() == 5.5
        assert obs_config.serve_shards() == 4

    def test_port_out_of_range_warns_and_defaults(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SERVE_PORT", "70000")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert obs_config.serve_port() == obs_config.DEFAULT_SERVE_PORT
        assert "REPRO_SERVE_PORT" in caplog.text

    def test_port_bad_value_warns_once(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SERVE_PORT", "http")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            for _ in range(3):
                assert obs_config.serve_port() == obs_config.DEFAULT_SERVE_PORT
        assert caplog.text.count("REPRO_SERVE_PORT") == 1

    def test_batch_clamps_to_one(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SERVE_BATCH", "0")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert obs_config.serve_batch_size() == 1
        assert "REPRO_SERVE_BATCH" in caplog.text

    def test_negative_wait_warns_and_defaults(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_SERVE_WAIT_MS", "-3")
        with caplog.at_level(logging.WARNING, logger="repro.obs.config"):
            assert obs_config.serve_wait_ms() == obs_config.DEFAULT_SERVE_WAIT_MS
        assert "REPRO_SERVE_WAIT_MS" in caplog.text

    def test_zero_wait_disables_linger(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WAIT_MS", "0")
        assert obs_config.serve_wait_ms() == 0.0

    def test_recorded_in_snapshot(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BATCH", "32")
        monkeypatch.setenv("REPRO_SERVE_SHARDS", "2")
        snapshot = config_snapshot()
        assert snapshot.serve_batch == 32
        assert snapshot.serve_shards == 2
        data = snapshot.as_dict()
        assert data["serve_batch"] == 32
        assert data["serve_port"] == obs_config.DEFAULT_SERVE_PORT
        assert snapshot.raw_env == {
            "REPRO_SERVE_BATCH": "32",
            "REPRO_SERVE_SHARDS": "2",
        }


class TestPerfAliases:
    def test_perf_module_reexports_the_validated_knobs(self):
        from repro.analysis import perf

        assert perf.repro_workers is repro_workers
        assert perf.matcher_cache_size is matcher_cache_size
