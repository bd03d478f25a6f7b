"""The same-runner A/B gate: alternation of the two trees, merging of
their rounds, and the verdict of the end-to-end ``compare``."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.e2e.cli import summarize
from benchmarks.perf import ab


@pytest.fixture
def fake_trees(tmp_path, monkeypatch):
    """Two trees whose benchmark runs cost 1 s (base) and ``slowdown``
    times that (head) per ``dse_grid`` iteration and hash their output
    to ``digest``; records the side and command of every run.  A run
    writes its ``--out`` relative to its working directory, the tree,
    as the real one does; on a seed in ``crashed`` every operation of
    the run fails and it measures nothing."""
    fake = SimpleNamespace(
        trees={side: tmp_path / side for side in ab.SIDES}, order=[],
        commands=[], slowdown={"head": 1.0}, digest={}, failed={},
        crashed={})
    for tree in fake.trees.values():
        tree.mkdir()

    def fake_run(cmd, cwd, check):
        side = Path(cwd).name
        fake.order.append(side)
        fake.commands.append(cmd)
        seed = int(cmd[cmd.index("--seed") + 1])
        seconds = (1.0 + 0.01 * seed) * fake.slowdown.get(side, 1.0)
        failed = fake.failed.get(side, 0)
        metrics = {"iteration_s": {"unit": "s", **summarize([seconds])}}
        if seed in fake.crashed.get(side, ()):
            failed, metrics = 2, {}
        (Path(cwd) / cmd[cmd.index("--out") + 1]).write_text(json.dumps(
            {"runs": 1, "workloads": {"dse_grid": {
                "seeds": [seed], "attempted": 2, "failed": failed,
                "errors": [f"{side} seed {seed}"] * failed,
                "digests": {f"dse[seed {seed}]": fake.digest.get(side, "d")},
                "simulated": {}, "metrics": metrics}}}))

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    return fake


def _ab(tmp_path, trees, *extra: str) -> int:
    return ab.main([str(trees["base"]), str(trees["head"]), "--rounds", "4",
                    "--out-dir", str(tmp_path / "ab"), *extra])


def test_rounds_alternate_and_merge(tmp_path, fake_trees, capsys):
    assert _ab(tmp_path, fake_trees.trees) == 0
    assert fake_trees.order == ["base", "head", "head", "base"] * 2
    merged = json.loads((tmp_path / "ab" / "head.json").read_text())
    grid = merged["workloads"]["dse_grid"]
    assert grid["seeds"] == [0, 1, 2, 3]
    assert grid["attempted"] == 8 and grid["failed"] == 0
    assert grid["metrics"]["iteration_s"]["values"] == [1.0, 1.01, 1.02,
                                                        1.03]
    assert grid["metrics"]["iteration_s"]["n"] == 4
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_a_seeded_slowdown_fails(tmp_path, fake_trees, capsys):
    fake_trees.slowdown["head"] = 1.5
    assert _ab(tmp_path, fake_trees.trees) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and out.rstrip().endswith("FAIL")


def test_every_round_runs_once_with_its_own_seed(tmp_path, fake_trees):
    """Round ``i`` runs each tree once on seed ``i``, for the chosen
    workloads only, on the time budget of the tree's own
    ``BENCHMARK.json``."""
    assert _ab(tmp_path, fake_trees.trees, "--workload", "dse_grid") == 0
    seeds = [int(cmd[cmd.index("--seed") + 1])
             for cmd in fake_trees.commands]
    assert seeds == [0, 0, 1, 1, 2, 2, 3, 3]
    for cmd in fake_trees.commands:
        assert cmd[1:5] == ["-m", "benchmarks.e2e", "run", "--runs"]
        assert cmd[cmd.index("--runs") + 1] == "1"
        assert "--seconds" not in cmd
        assert [cmd[i + 1] for i, arg in enumerate(cmd)
                if arg == "--workload"] == ["dse_grid"]


def test_a_relative_out_dir_is_kept_out_of_the_trees(
        tmp_path, fake_trees, monkeypatch, capsys):
    """Each run's working directory is its tree, so the records land in
    ``--out-dir`` relative to the caller's directory, as in CI."""
    monkeypatch.chdir(tmp_path)
    assert ab.main(["base", "head", "--rounds", "2",
                    "--out-dir", "ab"]) == 0
    assert sorted(p.name for p in (tmp_path / "ab").iterdir()) == [
        "base.json", "base.round0.json", "base.round1.json",
        "head.json", "head.round0.json", "head.round1.json"]
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_a_digest_mismatch_fails(tmp_path, fake_trees, capsys):
    """Equal timings do not pass a tree whose outputs differ."""
    fake_trees.digest["head"] = "changed"
    assert _ab(tmp_path, fake_trees.trees) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and out.rstrip().endswith("FAIL")


def test_merge_keeps_every_failed_operation(tmp_path, fake_trees, capsys):
    """The merged record sums failures over the rounds, keeps each
    error, and a side with failed operations fails the gate."""
    fake_trees.failed["head"] = 1
    assert _ab(tmp_path, fake_trees.trees) == 1
    grid = json.loads((tmp_path / "ab" / "head.json").read_text()
                      )["workloads"]["dse_grid"]
    assert grid["attempted"] == 8 and grid["failed"] == 4
    assert grid["ops_failed_frac"] == pytest.approx(0.5)
    assert grid["errors"] == [f"head seed {seed}" for seed in range(4)]
    assert "B: 4 of 8 ops failed" in capsys.readouterr().out


def test_a_round_that_measured_nothing_fails_with_its_errors(
        tmp_path, fake_trees, capsys):
    """A round whose every operation failed has no metrics: the other
    rounds' values are merged, and the gate ends in FAIL with the
    failed operations, not in a traceback."""
    fake_trees.crashed["head"] = {1}
    assert _ab(tmp_path, fake_trees.trees) == 1
    grid = json.loads((tmp_path / "ab" / "head.json").read_text()
                      )["workloads"]["dse_grid"]
    assert grid["metrics"]["iteration_s"]["values"] == [1.0, 1.02, 1.03]
    assert grid["failed"] == 2 and grid["errors"] == ["head seed 1"] * 2
    out = capsys.readouterr().out
    assert "B: 2 of 8 ops failed" in out and out.rstrip().endswith("FAIL")
