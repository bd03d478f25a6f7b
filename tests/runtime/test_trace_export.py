"""Chrome Trace Event export: schema, determinism, and round-trips.

The exporter's contract (see :mod:`repro.runtime.trace_export`): every
span in a run report becomes one well-formed ``"X"`` event, worker-task
subtrees land on deterministic ``worker-K`` tracks reconstructed from
the task schedule, native/solver counters ride along as annotations,
and the **canonical** event sequence — timestamps, tracks, and worker
bookkeeping stripped — is bitwise identical between ``workers=1`` and
``workers=N`` runs of the same workload.
"""

from __future__ import annotations

import json

from repro.runtime import report as run_report
from repro.runtime import telemetry, trace_export
from repro.runtime.executor import parallel_map


def _traced_task(i: int) -> int:
    with telemetry.span("work", task=i):
        telemetry.count("ensemble.fake_units", i + 1)
        with telemetry.span("inner"):
            pass
    return i


def _report_for(workers: int) -> dict:
    telemetry.reset()
    telemetry.enable(True)
    try:
        with telemetry.span("map"):
            parallel_map(_traced_task, list(range(4)), workers=workers)
        return run_report.build_report("trace-test", argv=[])
    finally:
        telemetry.enable(False)
        telemetry.reset()


class TestSchema:
    def test_events_are_well_formed(self):
        report = _report_for(workers=1)
        doc = trace_export.chrome_trace(report)
        # Valid JSON end to end.
        doc = json.loads(json.dumps(doc))
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for event in events:
            assert isinstance(event["name"], str)
            assert event["pid"] == 0
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert "map" in names
        assert names.count("work") == 4
        assert names.count("inner") == 4

    def test_thread_metadata_names_main_and_workers(self):
        report = _report_for(workers=2)
        events = trace_export.trace_events(report)
        threads = {e["tid"]: e["args"]["name"] for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads[0] == "main"
        # Worker-task spans land on one track per worker of the pool
        # that ran them, alternating by task index.
        work = [e for e in events if e["ph"] == "X"
                and e.get("args", {}).get("worker_task")]
        if work:                 # pool may degrade to serial in sandboxes
            assert {e["tid"] for e in work} == {1, 2}
            assert threads == {0: "main", 1: "worker-0", 2: "worker-1"}

    def test_tracks_follow_the_pool_that_ran_each_task(self):
        """The track count is the launching pool's size, not a
        process-wide setting: a 3-worker map over 4 tasks fills 3."""
        events = trace_export.trace_events(_report_for(workers=3))
        work = [e for e in events if e["ph"] == "X"
                and e.get("args", {}).get("worker_task")]
        if work:                 # pool may degrade to serial in sandboxes
            assert [e["tid"] for e in work if e["name"] == "work"] == \
                [1, 2, 3, 1]

    def test_counter_annotations_attached(self):
        report = _report_for(workers=1)
        doc = trace_export.chrome_trace(report)
        assert doc["otherData"]["counters"]["ensemble.fake_units"] == 10
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e["name"] == "native-counters"]
        assert len(instants) == 1
        assert instants[0]["args"]["ensemble.fake_units"] == 10


class TestDeterminism:
    def test_workers_1_vs_n_identical_canonical_sequence(self):
        a = trace_export.trace_events(_report_for(workers=1),
                                      canonical=True)
        b = trace_export.trace_events(_report_for(workers=3),
                                      canonical=True)
        assert json.dumps(a, sort_keys=True) == json.dumps(b,
                                                           sort_keys=True)

    def test_same_report_exports_byte_identical_json(self, tmp_path):
        report = _report_for(workers=2)
        p1 = trace_export.write_trace(report, tmp_path / "a.trace.json")
        p2 = trace_export.write_trace(report, tmp_path / "b.trace.json")
        assert p1.read_bytes() == p2.read_bytes()


class TestRoundTrip:
    def test_trace_from_saved_report_matches_in_memory(self, tmp_path):
        report = _report_for(workers=2)
        path = run_report.write_report(report, tmp_path / "run.json")
        reloaded = json.loads(path.read_text())
        assert trace_export.trace_events(reloaded) == \
            trace_export.trace_events(report)

    def test_default_trace_path(self):
        assert trace_export.default_trace_path("runs/foo.json").name == \
            "foo.trace.json"

    def test_trace_cli_converts_saved_report(self, tmp_path, capsys):
        from repro.__main__ import main

        report = _report_for(workers=1)
        path = run_report.write_report(report, tmp_path / "run.json")
        rc = main(["trace", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        trace_path = tmp_path / "run.trace.json"
        assert trace_path.is_file()
        doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "map" for e in doc["traceEvents"])

    def test_trace_cli_defaults_to_the_latest_report(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["trace"]) == 1
        assert "no run reports found" in capsys.readouterr().out
        path = run_report.write_report(_report_for(workers=1))
        assert main(["trace"]) == 0
        assert f"from {path}" in capsys.readouterr().out
        doc = json.loads(trace_export.default_trace_path(path).read_text())
        assert any(e["name"] == "map" for e in doc["traceEvents"])

    def test_experiment_report_exports_a_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        report_path = tmp_path / "fig8.json"
        assert main(["fig8", "--report", str(report_path)]) == 0
        assert list(tmp_path.iterdir()) == [report_path]
        assert main(["trace", str(report_path)]) == 0
        trace_path = tmp_path / "fig8.trace.json"
        assert trace_path.is_file()
        doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "fig8" for e in doc["traceEvents"])
