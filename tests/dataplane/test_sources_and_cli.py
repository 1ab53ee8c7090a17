"""The ``python -m repro.dataplane`` inspect CLI."""

import json
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from repro.dataplane.requests import write_request_table
from repro.wayback.crawler import CrawlRecord, CrawlResult, CrawlStatus
from repro.web.har import HarFile
from repro.web.http import Exchange, Request, Response

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.dataplane", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
    )


class TestInspectCli:
    @pytest.fixture()
    def artifact(self, tmp_path):
        har = HarFile(page_url="http://a.com/")
        for url in ("http://a.com/", "http://cdn.a.com/ads.js"):
            har.add(Exchange(request=Request(url=url), response=Response(body="x")))
        record = CrawlRecord(
            domain="a.com", month=date(2015, 3, 1), status=CrawlStatus.OK, har=har
        )
        path = tmp_path / "requests.rdpr"
        write_request_table(path, CrawlResult(records=[record]))
        return path

    def test_inspect_text(self, artifact):
        proc = run_cli("inspect", str(artifact))
        assert proc.returncode == 0
        assert "requests" in proc.stdout
        assert str(artifact) in proc.stdout

    def test_inspect_json(self, artifact):
        proc = run_cli("inspect", "--json", str(artifact))
        assert proc.returncode == 0
        (info,) = [json.loads(line) for line in proc.stdout.splitlines()]
        assert info["kind"] == "requests"
        assert info["slots"] == 1
        assert info["rows"] == 2

    def test_inspect_events_segment(self, tmp_path):
        from repro.dataplane.events import write_event_segment

        path = tmp_path / "seg.rdpe"
        write_event_segment(
            path,
            [("ab" * 32, True, (("keyword", "if", ()),), False, False)],
            extractor_version=9,
        )
        proc = run_cli("inspect", "--json", str(path))
        assert proc.returncode == 0
        (info,) = [json.loads(line) for line in proc.stdout.splitlines()]
        assert info["kind"] == "events"
        assert info["extractor_version"] == 9
        assert info["scripts"] == 1
        assert info["events"] == 1

    def test_inspect_corrupt_file_fails(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"JUNK" + b"\0" * 60)
        proc = run_cli("inspect", str(bad))
        assert proc.returncode == 1
        assert "bad magic" in proc.stderr

    def test_inspect_missing_file_fails(self, tmp_path):
        proc = run_cli("inspect", str(tmp_path / "absent.bin"))
        assert proc.returncode == 1
