"""Run-history index, report diffing, and the perf analytics CLI."""

from __future__ import annotations

import copy
import json

import pytest

from repro.runtime import history
from repro.runtime import report as run_report
from repro.runtime import telemetry


def _small_report(target: str = "bench", seconds: float = 1.0) -> dict:
    telemetry.reset()
    telemetry.enable(True)
    try:
        with telemetry.span("stage"):
            pass
        report = run_report.build_report(target, argv=[],
                                         duration_seconds=seconds)
    finally:
        telemetry.enable(False)
        telemetry.reset()
    report["benchmarks"] = {
        "depth_sweep": {"seconds": seconds, "cycles": 100},
        "dse_sweep": {"seconds": 2 * seconds},
    }
    # Pin the measured span time so diff tests are deterministic.
    for node in report["span_tree"]:
        node["seconds"] = seconds
    report["span_totals"] = {"stage": {"seconds": seconds, "calls": 1}}
    return report


class TestIndex:
    def test_append_and_load_round_trip(self, tmp_path, monkeypatch):
        hist = tmp_path / "custom" / "history.ndjson"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(hist.parent))
        report = _small_report()
        assert history.append_entry(report, tmp_path / "r1.json") == hist
        history.append_entry(report, tmp_path / "r2.json")
        entries = history.load_entries()
        assert [e["path"] for e in entries] == \
            [str(tmp_path / "r1.json"), str(tmp_path / "r2.json")]
        entry = entries[0]
        assert entry["target"] == "bench"
        assert entry["status"] == "ok"
        assert entry["duration_seconds"] == 1.0
        assert entry["benchmarks"] == {"depth_sweep": 1.0, "dse_sweep": 2.0}
        assert entry["env_key"] == history.env_key(report["env"])

    def test_write_report_appends_to_index(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        path = run_report.write_report(_small_report(),
                                       tmp_path / "run.json")
        entries = history.load_entries()
        assert len(entries) == 1
        assert entries[0]["path"] == str(path)

    def test_corrupt_and_blank_lines_skipped(self, tmp_path):
        hist = tmp_path / "history.ndjson"
        history.append_entry(_small_report(), tmp_path / "ok.json",
                             history_path=hist)
        with open(hist, "a") as fh:
            fh.write("{not json\n\n[1, 2]\n")
        history.append_entry(_small_report(), tmp_path / "ok2.json",
                             history_path=hist)
        entries = history.load_entries(hist)
        assert [e["path"] for e in entries] == \
            [str(tmp_path / "ok.json"), str(tmp_path / "ok2.json")]

    def test_missing_index_is_empty_not_fatal(self, tmp_path):
        assert history.load_entries(tmp_path / "nope.ndjson") == []

    def test_env_key_stable_and_sensitive(self):
        env = _small_report()["env"]
        assert history.env_key(env) == history.env_key(copy.deepcopy(env))
        other = copy.deepcopy(env)
        other["cpu_count"] = (env.get("cpu_count") or 0) + 1
        assert history.env_key(other) != history.env_key(env)
        # Knob settings are per-run config, not machine identity.
        reconfigured = copy.deepcopy(env)
        reconfigured["repro_env"] = {"REPRO_CACHE": "0"}
        assert history.env_key(reconfigured) == history.env_key(env)


class TestResolveReport:
    @pytest.fixture()
    def indexed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        paths = []
        for name in ("alpha.json", "beta.json"):
            paths.append(run_report.write_report(
                _small_report(target=name.split(".")[0]),
                tmp_path / name))
        return paths

    def test_by_path_ordinal_and_substring(self, indexed):
        alpha, beta = indexed
        assert history.resolve_report(str(alpha))[0] == alpha
        assert history.resolve_report("-1")[0] == beta
        assert history.resolve_report("-2")[0] == alpha
        assert history.resolve_report("alpha")[0] == alpha
        path, report = history.resolve_report("beta")
        assert path == beta and report["target"] == "beta"

    def test_unresolvable_reference_raises(self, indexed):
        with pytest.raises(FileNotFoundError, match="no report matches"):
            history.resolve_report("gamma")


class TestDiff:
    def test_identical_runs_diff_clean(self):
        report = _small_report()
        diff = history.diff_reports(report, copy.deepcopy(report))
        assert diff["flags"] == []
        assert diff["env_match"]
        assert "clean" in history.format_diff(diff)

    def test_artificially_slowed_run_is_flagged(self):
        before = _small_report(seconds=1.0)
        after = _small_report(seconds=1.5)        # 1.5x across the board
        diff = history.diff_reports(before, after)
        flagged = {(r["kind"], r["name"]) for r in diff["flags"]}
        assert ("duration", "total") in flagged
        assert ("benchmark", "depth_sweep") in flagged
        assert ("benchmark", "dse_sweep") in flagged
        assert ("span", "stage") in flagged
        assert "** FLAG" in history.format_diff(diff)

    def test_speedup_and_noise_not_flagged(self):
        before = _small_report(seconds=1.0)
        faster = _small_report(seconds=0.5)
        assert history.diff_reports(before, faster)["flags"] == []
        # A 50% regression on a sub-millisecond row is scheduler noise.
        tiny_a = _small_report(seconds=0.0005)
        tiny_b = _small_report(seconds=0.00075)
        assert history.diff_reports(tiny_a, tiny_b)["flags"] == []

    def test_counter_deltas_ride_along_unflagged(self):
        a = _small_report()
        b = copy.deepcopy(a)
        a.setdefault("metrics", {}).setdefault("counters", {})[
            "ensemble.newton_lane_iterations"] = 100
        b.setdefault("metrics", {}).setdefault("counters", {})[
            "ensemble.newton_lane_iterations"] = 160
        diff = history.diff_reports(a, b)
        assert diff["counter_deltas"][
            "ensemble.newton_lane_iterations"] == 60
        assert diff["flags"] == []


class TestPerfCli:
    @pytest.fixture()
    def runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        slow = run_report.write_report(_small_report(seconds=1.5),
                                       tmp_path / "slow.json")
        fast = run_report.write_report(_small_report(seconds=1.0),
                                       tmp_path / "fast.json")
        return fast, slow

    def test_list(self, runs, capsys):
        from repro.__main__ import main

        assert main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        assert "slow.json" in out and "fast.json" in out
        assert "[2 benchmarks]" in out

    def test_diff_flags_slowdown_and_strict_gates(self, runs, capsys):
        from repro.__main__ import main

        fast, slow = runs
        assert main(["perf", "diff", str(fast), str(slow)]) == 0
        out = capsys.readouterr().out
        assert "** FLAG" in out
        assert main(["perf", "diff", "fast.json", "slow.json",
                     "--strict"]) == 1
        assert main(["perf", "diff", str(fast), str(fast),
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_trend(self, runs, capsys):
        from repro.__main__ import main

        assert main(["perf", "trend", "depth_sweep"]) == 0
        out = capsys.readouterr().out
        assert out.count("env=") == 2
        assert main(["perf", "trend", "no-such-bench"]) == 1


# -- concurrent appends -------------------------------------------------------

def _big_report(tag: str) -> dict:
    """A report whose index line is far larger than the stdio buffer
    (~8 KiB), so a torn buffered append would corrupt the ndjson."""
    report = {
        "schema": 1,
        "target": f"bench-{tag}",
        "timestamp": "2026-01-01T00:00:00",
        "status": "ok",
        "duration_seconds": 1.0,
        "env": {"python": "3", "machine": "x", "cpu_count": 1},
        "benchmarks": {f"bench_{tag}_{i:04d}": {"seconds": float(i)}
                       for i in range(1500)},
    }
    return report


def _append_worker(hist: str, tag: str, count: int) -> None:
    report = _big_report(tag)
    for i in range(count):
        out = history.append_entry(report, f"/runs/{tag}-{i}.json",
                                   history_path=hist)
        assert out is not None


class TestConcurrentAppends:
    def test_parallel_writers_never_tear_lines(self, tmp_path):
        """Regression: pre-fix append_entry used a buffered write in
        append mode, so two processes landing >8 KiB index lines at the
        same time interleaved partial lines.  Post-fix every entry is
        one os.write on an O_APPEND fd."""
        import multiprocessing

        hist = tmp_path / "history.ndjson"
        n_procs, per_proc = 4, 25
        procs = [multiprocessing.Process(
                    target=_append_worker,
                    args=(str(hist), f"p{p}", per_proc))
                 for p in range(n_procs)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60)
            assert proc.exitcode == 0

        lines = hist.read_bytes().splitlines()
        assert len(lines) == n_procs * per_proc
        entries = [json.loads(line) for line in lines]   # every line parses
        per_tag: dict[str, int] = {}
        for entry in entries:
            assert len(entry["benchmarks"]) == 1500
            tag = entry["target"].split("-", 1)[1]
            per_tag[tag] = per_tag.get(tag, 0) + 1
        assert per_tag == {f"p{p}": per_proc for p in range(n_procs)}
        # load_entries sees the same thing (nothing skipped as corrupt).
        assert len(history.load_entries(hist)) == n_procs * per_proc
