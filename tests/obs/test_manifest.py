"""Run-manifest tests: event log, run.json schema, validation CLI."""

import json

import pytest

from repro.obs.hist import Histogram
from repro.obs.manifest import (
    SCHEMA,
    SCHEMA_V1,
    SCHEMA_V2,
    RunManifest,
    artifact_digest,
    git_sha,
    load_and_validate,
    validate_manifest,
)


@pytest.fixture
def manifest(tmp_path):
    return RunManifest(tmp_path / "run.json")


def _finalize(manifest, **overrides):
    kwargs = dict(
        seed=42,
        config={"scale": 0.08, "workers": 1, "matcher_cache": 512, "raw_env": {}},
        metrics={"counters": {"crawl.slots": 3}, "gauges": {}},
        spans=[{"name": "stage:crawl", "status": "ok", "wall_s": 0.5, "cpu_s": 0.4}],
        experiments=["fig6"],
    )
    kwargs.update(overrides)
    return manifest.finalize(**kwargs)


class TestEventLog:
    def test_events_are_sequenced_jsonl(self, manifest, tmp_path):
        manifest.event("custom", detail="x")
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["event"] for event in events] == ["run_start", "custom"]
        assert [event["seq"] for event in events] == [0, 1]
        assert all("ts" in event for event in events)

    def test_stages_and_artifacts_are_logged(self, manifest, tmp_path):
        manifest.record_stage("crawl", wall_s=1.25, cpu_s=1.0, sites=50)
        manifest.record_artifact("fig6", "rendered artifact text", wall_s=0.2)
        events = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds == ["run_start", "stage", "artifact"]
        assert events[1]["name"] == "crawl"
        assert events[2]["sha256"] == artifact_digest("rendered artifact text")

    def test_sink_unpacks_tracer_payloads(self, manifest, tmp_path):
        """The tracer hands the sink one dict; its ``event`` key is the kind."""
        manifest.sink({"event": "span_start", "name": "crawl", "depth": 1})
        events = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        assert events[-1]["event"] == "span_start"
        assert events[-1]["name"] == "crawl"

    def test_fresh_manifest_truncates_stale_events(self, tmp_path):
        (tmp_path / "run.jsonl").write_text('{"event": "stale"}\n')
        RunManifest(tmp_path / "run.json")
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "run_start"


class TestFinalize:
    def test_run_json_written_and_valid(self, manifest, tmp_path):
        manifest.record_stage("crawl", wall_s=1.0)
        manifest.record_artifact("fig6", "artifact")
        written = _finalize(manifest)
        on_disk = json.loads((tmp_path / "run.json").read_text())
        assert on_disk["schema"] == SCHEMA
        assert on_disk["seed"] == 42
        assert on_disk["stages"] == written["stages"]
        assert on_disk["artifacts"]["fig6"]["sha256"] == artifact_digest("artifact")
        assert validate_manifest(on_disk) == []

    def test_artifact_digest_is_sha256_hex(self):
        digest = artifact_digest("text")
        assert len(digest) == 64
        assert digest != artifact_digest("other text")

    def test_git_sha_in_repo(self):
        sha = git_sha()
        # This test runs inside the repo checkout, so a SHA must resolve.
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))


class TestValidation:
    def test_missing_keys_reported(self):
        errors = validate_manifest({"schema": SCHEMA})
        assert any("missing key" in error for error in errors)

    def test_wrong_schema_version(self, manifest):
        data = _finalize(manifest)
        data["schema"] = "repro.run-manifest/999"
        assert any("schema" in error for error in validate_manifest(data))

    def test_bad_stage_and_artifact_entries(self, manifest):
        data = _finalize(manifest)
        data["stages"] = [{"wall_s": 1.0}, {"name": "x"}]
        data["artifacts"] = {"fig6": {"sha256": "short", "bytes": "no"}}
        errors = validate_manifest(data)
        assert any("stages[0]" in error for error in errors)
        assert any("stages[1]" in error for error in errors)
        assert any("bad sha256" in error for error in errors)
        assert any("bad bytes" in error for error in errors)

    def test_bad_span_nodes(self, manifest):
        data = _finalize(manifest)
        data["spans"] = [{"name": "ok", "status": "weird", "children": ["junk"]}]
        errors = validate_manifest(data)
        assert any("bad status" in error for error in errors)
        assert any("children[0]" in error for error in errors)

    def test_load_and_validate_roundtrip(self, manifest, tmp_path):
        _finalize(manifest)
        assert load_and_validate(tmp_path / "run.json") == []
        assert load_and_validate(tmp_path / "missing.json") != []

    def test_not_an_object(self):
        assert validate_manifest([1, 2]) == ["manifest is not a JSON object"]


class TestSchemaVersions:
    def test_current_schema_is_v2(self):
        assert SCHEMA == SCHEMA_V2 == "repro.run-manifest/2"

    def test_v1_manifest_still_validates(self, manifest):
        """Back-compat: an old run.json (no histograms section) is valid v1."""
        data = _finalize(manifest)
        data["schema"] = SCHEMA_V1
        del data["metrics"]["histograms"]
        data.pop("rules", None)
        assert validate_manifest(data) == []

    def test_v2_requires_histograms_section(self, manifest):
        data = _finalize(manifest)
        del data["metrics"]["histograms"]
        assert any("histograms" in error for error in validate_manifest(data))

    def test_v2_accepts_serialized_histograms(self, manifest):
        hist = Histogram((1, 2, 4))
        hist.observe(3)
        data = _finalize(
            manifest,
            metrics={
                "counters": {},
                "gauges": {},
                "histograms": {"rules.cost.AAK": hist.as_dict()},
            },
        )
        assert validate_manifest(data) == []

    def test_v2_rejects_malformed_histogram(self, manifest):
        bad = {"bounds": [1, 2], "counts": [0, 0], "sum": 0, "total": 0}
        data = _finalize(
            manifest,
            metrics={"counters": {}, "gauges": {}, "histograms": {"h": bad}},
        )
        errors = validate_manifest(data)
        assert any("histograms[h]" in error for error in errors)

    def test_v2_rules_section_validates(self, manifest):
        data = _finalize(manifest)
        data["rules"] = {
            "totals": {"calls": 5, "hits": 2, "checks": 9, "rules_hit": 1},
            "lists": {"AAK": {"calls": 5, "hits": 2}},
        }
        assert validate_manifest(data) == []
        data["rules"] = {"totals": {"hits": "many"}, "lists": {}}
        assert any("rules" in error for error in validate_manifest(data))

    def test_serve_section_validates(self, manifest):
        data = _finalize(manifest)
        data["serve"] = {
            "port": 7675,
            "epoch": 2,
            "workers": 0,
            "queries": 640,
            "batches": 11,
            "reloads": 2,
            "dropped": 0,
        }
        assert validate_manifest(data) == []

    def test_serve_section_rejects_bad_entries(self, manifest):
        data = _finalize(manifest)
        data["serve"] = "up"
        assert any("serve" in error for error in validate_manifest(data))
        data["serve"] = {"port": "7675", "epoch": 0, "workers": 0}
        assert any("port" in error for error in validate_manifest(data))
        data["serve"] = {
            "port": 7675,
            "epoch": 0,
            "workers": 0,
            "queries": -1,
        }
        assert any("queries" in error for error in validate_manifest(data))
        # Booleans are not counters, even though bool subclasses int.
        data["serve"] = {
            "port": 7675,
            "epoch": 0,
            "workers": 0,
            "dropped": True,
        }
        assert any("dropped" in error for error in validate_manifest(data))
        # ``workers`` is optional (older daemons wrote it), but typed.
        data["serve"] = {"port": 7675, "epoch": 0, "workers": "2"}
        assert any("workers" in error for error in validate_manifest(data))

    def test_manifest_without_serve_section_still_validates(self, manifest):
        data = _finalize(manifest)
        assert "serve" not in data
        assert validate_manifest(data) == []


class TestValidateCli:
    def test_cli_accepts_good_manifest(self, manifest, tmp_path, capsys):
        from repro.obs.__main__ import main

        _finalize(manifest)
        assert main(["validate", str(tmp_path / "run.json")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_cli_rejects_bad_manifest(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["validate", str(bad)]) == 1
        assert "missing key" in capsys.readouterr().err

    def test_cli_usage_errors(self, capsys):
        from repro.obs.__main__ import main

        assert main([]) == 2
        assert main(["validate"]) == 2
        assert main(["--help"]) == 0
