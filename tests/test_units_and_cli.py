"""Units helpers and CLI smoke tests."""

import math

import pytest

from repro.units import (
    EPS_R_AL2O3,
    decades,
    engineering,
    mobility_cm2_to_m2,
    mobility_m2_to_cm2,
    oxide_capacitance_per_area,
)


class TestUnits:
    def test_mobility_round_trip(self):
        assert mobility_m2_to_cm2(mobility_cm2_to_m2(0.16)) == pytest.approx(0.16)

    def test_oxide_capacitance(self):
        # 50 nm Al2O3: ~1.6 mF/m^2 (the paper's gate stack).
        ci = oxide_capacitance_per_area(EPS_R_AL2O3, 50e-9)
        assert ci == pytest.approx(1.59e-3, rel=0.01)

    def test_oxide_capacitance_validation(self):
        with pytest.raises(ValueError):
            oxide_capacitance_per_area(9.0, 0.0)

    def test_decades(self):
        assert decades(1e6) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            decades(0.0)

    def test_engineering_format(self):
        assert engineering(2.2e-5, "s") == "22 us"
        assert engineering(1.5e9, "Hz") == "1.5 GHz"
        assert engineering(0, "V") == "0 V"
        assert engineering(-3e-3, "A") == "-3 mA"


class TestCli:
    def test_list(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "liberty" in out

    def test_fig4_runs(self, capsys):
        from repro.__main__ import main
        assert main(["fig4"]) == 0
        assert "level 61" in capsys.readouterr().out

    def test_unknown_experiment(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_experiment_writes_run_report(self, tmp_path, capsys):
        import json
        from repro.__main__ import main
        out = tmp_path / "fig6-report.json"
        assert main(["fig6", "--report", str(out)]) == 0
        assert f"run report: {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["target"] == "fig6"
        assert doc["status"] == "ok"
        assert doc["span_tree"][0]["name"] == "fig6"
        assert doc["metrics"]["counters"]["spice.newton_solves"] > 0

    def test_run_report_records_layer_breakdown(self, tmp_path, capsys):
        import json
        from repro.__main__ import main
        out = tmp_path / "fig12-report.json"
        assert main(["fig12", "--report", str(out)]) == 0
        timers = json.loads(out.read_text())["metrics"]["timers"]
        assert timers["solver.pipeline"]["calls"] >= 1
        assert timers["solver.sta"]["calls"] >= 1

    def test_no_report_flag(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["fig4", "--no-report"]) == 0
        assert "run report:" not in capsys.readouterr().out
        assert list(tmp_path.glob("*.json")) == []

    def test_report_subcommand(self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["report"]) == 1
        assert "no run reports" in capsys.readouterr().out
        assert main(["fig4"]) == 0
        capsys.readouterr()
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "run report: fig4 [ok]" in out
        assert "spans:" in out

    def test_cache_stats_subcommand(self, capsys):
        from repro.__main__ import main
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out
        assert "this process:" in out

    def test_retired_perf_command_is_an_unknown_experiment(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "list"])
        assert excinfo.value.code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_failing_experiment_lands_an_error_report(self, tmp_path,
                                                      monkeypatch):
        import json

        from repro import __main__ as cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig3", boom)
        out = tmp_path / "fig3.json"
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(["fig3", "--report", str(out)])
        report = json.loads(out.read_text())
        assert report["status"] == "error"
        assert report["error"] == "RuntimeError: boom"


# Every report mode of the two commands that run under telemetry: the
# kinds of file each leaves in the runs directory, and the files it
# writes at the paths it names.
REPORT_MODES = {
    "report": ([], ["report"], []),
    "report-path": (["--report", "{out}/r.json"], [], ["r.json"]),
    "no-report": (["--no-report"], [], []),
}

REPORTED_COMMANDS = {
    "fig3": ["fig3"],
    "validate": ["validate", "--only", "cache-warm-vs-cold"],
}


def _kind(path) -> str:
    return "trace" if path.name.endswith(".trace.json") else "report"


@pytest.mark.parametrize("mode", sorted(REPORT_MODES))
@pytest.mark.parametrize("target", sorted(REPORTED_COMMANDS))
def test_report_modes(target, mode, tmp_path, monkeypatch, capsys):
    import json

    from repro.__main__ import main

    runs, out = tmp_path / "runs", tmp_path / "out"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
    out.mkdir()
    flags, run_kinds, out_names = REPORT_MODES[mode]
    argv = REPORTED_COMMANDS[target] + [f.format(out=out) for f in flags]
    assert main(argv) == 0

    in_runs = sorted(runs.glob("*")) if runs.exists() else []
    assert sorted(_kind(p) for p in in_runs) == run_kinds
    assert all(p.name.startswith(f"{target}-") for p in in_runs)
    assert sorted(p.name for p in out.glob("*")) == out_names

    for path in [*in_runs, *out.glob("*")]:
        doc = json.loads(path.read_text())
        assert doc["target"] == target and doc["status"] == "ok"
    printed = capsys.readouterr().out
    assert ("run report:" in printed) == ("--no-report" not in flags)


@pytest.mark.parametrize("target", sorted(REPORTED_COMMANDS))
def test_trace_exports_the_latest_report(target, tmp_path, monkeypatch,
                                         capsys):
    """``python -m repro trace`` is the one exporter: it turns the
    report a run left under ``runs/`` into a Chrome trace beside it."""
    import json

    from repro.__main__ import main

    runs = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
    assert main(REPORTED_COMMANDS[target]) == 0
    assert main(["trace"]) == 0
    paths = sorted(runs.glob("*"))
    assert [_kind(p) for p in paths] == ["report", "trace"]
    doc = json.loads(paths[1].read_text())
    assert any(e["name"] == target for e in doc["traceEvents"])
