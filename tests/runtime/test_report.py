"""Run-report assembly, serialisation, and rendering."""

from __future__ import annotations

import json

from repro.runtime import report, telemetry


def _collected_report(**kwargs):
    with telemetry.collecting():
        with telemetry.span("fig6"):
            telemetry.count("spice.newton_solves", 7)
            telemetry.observe("ensemble.batch_occupancy", 24)
        telemetry.warn("repro.runtime.executor: serial fallback")
        return report.build_report("fig6", **kwargs)


class TestSchema:
    def test_required_keys(self):
        doc = _collected_report(argv=["fig6"], duration_seconds=1.25)
        assert doc["schema"] == report.SCHEMA_VERSION
        assert doc["target"] == "fig6"
        assert doc["argv"] == ["fig6"]
        assert doc["status"] == "ok"
        assert doc["duration_seconds"] == 1.25
        for key in ("timestamp", "env", "metrics", "span_totals",
                    "span_tree", "cache", "warnings"):
            assert key in doc, key

    def test_env_fingerprint(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_FSYNC", "1")
        doc = _collected_report()
        env = doc["env"]
        assert env["repro_env"]["REPRO_CACHE_FSYNC"] == "1"
        assert "numpy" in env["packages"]
        assert env["python"].count(".") >= 1

    def test_solver_backend_records_the_thread_budget(self, monkeypatch):
        from repro.spice.backends import (NativeBackend, NumpyBackend,
                                          reset_backend)

        monkeypatch.setattr(NativeBackend, "threads", 3)
        try:
            for pin in (NumpyBackend(), None):
                reset_backend(pin)
                block = _collected_report()["env"]["solver_backend"]
                assert block["threads"] == \
                    (3 if block["resolved"] == "native" else 1)
        finally:
            reset_backend()

    def test_metrics_and_spans_round_trip(self):
        doc = _collected_report()
        assert doc["metrics"]["counters"]["spice.newton_solves"] == 7
        occ = doc["metrics"]["distributions"]["ensemble.batch_occupancy"]
        assert occ["count"] == 1 and occ["max"] == 24
        assert doc["span_totals"]["fig6"]["count"] == 1
        assert doc["span_tree"][0]["name"] == "fig6"
        assert doc["warnings"] == ["repro.runtime.executor: serial fallback"]

    def test_error_status(self):
        doc = _collected_report(status="error", error="ValueError: boom")
        assert doc["status"] == "error"
        assert doc["error"] == "ValueError: boom"

    def test_json_serialisable(self):
        doc = _collected_report(duration_seconds=0.5)
        assert json.loads(json.dumps(doc)) == doc


class TestWriteAndDiscover:
    def test_write_default_path_under_runs_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        path = report.write_report(_collected_report())
        assert path.parent == tmp_path / "runs"
        assert path.name.startswith("fig6-") and path.suffix == ".json"
        assert json.loads(path.read_text())["target"] == "fig6"

    def test_write_into_empty_runs_dir_leaves_only_the_report(
            self, tmp_path, monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        path = report.write_report(_collected_report())
        assert list(runs.iterdir()) == [path]

    def test_write_explicit_path(self, tmp_path):
        out = tmp_path / "deep" / "r.json"
        assert report.write_report(_collected_report(), path=out) == out
        assert out.exists()

    def test_latest_report_path(self, tmp_path):
        assert report.latest_report_path(tmp_path / "missing") is None
        assert report.latest_report_path(tmp_path) is None
        old = tmp_path / "a.json"
        new = tmp_path / "b.json"
        old.write_text("{}")
        new.write_text("{}")
        import os
        os.utime(old, (1, 1))
        assert report.latest_report_path(tmp_path) == new
        # `python -m repro trace` writes the Chrome trace after its report.
        trace = tmp_path / "b.trace.json"
        trace.write_text("[]")
        os.utime(new, (2, 2))
        assert report.latest_report_path(tmp_path) == new


class TestFormat:
    def test_renders_all_sections(self):
        doc = _collected_report(duration_seconds=2.0)
        text = report.format_report(doc)
        assert "run report: fig6 [ok]" in text
        assert "duration: 2.00s" in text
        assert "spans:" in text and "fig6" in text
        assert "counters:" in text
        assert "spice.newton_solves: 7" in text
        assert "distributions:" in text
        assert "warnings:" in text

    def test_renders_error_and_empty_report(self):
        text = report.format_report(
            {"target": "x", "status": "error", "error": "boom"})
        assert "[error]" in text and "error: boom" in text
