"""Progress heartbeats: ndjson stream, throttling, and parallel_map."""

from __future__ import annotations

import json

import pytest

from repro.runtime import progress
from repro.runtime.executor import parallel_map


@pytest.fixture()
def stream(tmp_path, monkeypatch):
    """Route heartbeats to an ndjson file; restore module state after."""
    path = tmp_path / "progress.ndjson"
    monkeypatch.setenv(progress.PROGRESS_ENV, str(path))
    monkeypatch.setattr(progress, "_stderr_wanted", False)
    monkeypatch.setattr(progress, "_stream", None)
    monkeypatch.setattr(progress, "_stream_failed", False)
    progress.refresh()
    yield path
    if progress._stream is not None:
        progress._stream.close()
        progress._stream = None
    monkeypatch.delenv(progress.PROGRESS_ENV)
    progress.refresh()


def _records(path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line)
            for line in path.read_text().splitlines() if line]


def test_disabled_by_default_costs_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv(progress.PROGRESS_ENV, raising=False)
    monkeypatch.setattr(progress, "_stderr_wanted", False)
    progress.refresh()
    assert not progress.ENABLED
    with progress.phase("quiet", total=3) as ph:
        assert ph is None
        progress.update(ph)                  # no-op, no error
    progress.end(None)
    assert list(tmp_path.iterdir()) == []


def test_stream_records_begin_tick_end_with_eta(stream):
    with progress.phase("dse", total=3) as ph:
        for _ in range(3):
            ph.step()
    records = _records(stream)
    assert [r["event"] for r in records][0] == "begin"
    assert records[-1]["event"] == "end"
    final_tick = [r for r in records if r["event"] == "tick"][-1]
    assert final_tick["done"] == 3 and final_tick["total"] == 3
    assert final_tick["eta_seconds"] == 0.0
    for record in records:
        assert record["phase"] == "dse"
        assert {"event", "phase", "done", "elapsed_seconds", "t"} <= \
            set(record)


def test_intermediate_ticks_throttled_final_always_emitted(stream):
    with progress.phase("mc", total=1000) as ph:
        for _ in range(1000):
            ph.step()
    ticks = [r for r in _records(stream) if r["event"] == "tick"]
    # 1000 sub-millisecond steps collapse under the rate limit, but the
    # 1000/1000 completion tick must survive it.
    assert len(ticks) < 50
    assert ticks[-1]["done"] == 1000


def test_unbounded_phase_and_set_done(stream):
    with progress.phase("scan") as ph:       # no total: no eta, no total key
        ph.set_done(7)
    records = _records(stream)
    assert records[-1]["event"] == "end" and records[-1]["done"] == 7
    assert all("total" not in r and "eta_seconds" not in r
               for r in records)


def test_unwritable_stream_degrades_silently(tmp_path, monkeypatch):
    monkeypatch.setenv(progress.PROGRESS_ENV,
                       str(tmp_path / "no-such-dir" / "p.ndjson"))
    monkeypatch.setattr(progress, "_stream", None)
    monkeypatch.setattr(progress, "_stream_failed", False)
    progress.refresh()
    try:
        with progress.phase("best-effort", total=1) as ph:
            ph.step()                        # must not raise
        assert progress._stream_failed
    finally:
        monkeypatch.delenv(progress.PROGRESS_ENV)
        progress.refresh()


def _square(i: int) -> int:
    return i * i


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_map_emits_named_phase(stream, workers):
    result = parallel_map(_square, list(range(5)), workers=workers,
                          phase="dse[test]")
    assert [r.value for r in result] == [0, 1, 4, 9, 16]
    records = [r for r in _records(stream) if r["phase"] == "dse[test]"]
    assert records[0]["event"] == "begin"
    assert records[0]["total"] == 5
    assert records[-1]["event"] == "end" and records[-1]["done"] == 5


def test_parallel_map_phase_defaults_to_function_name(stream):
    parallel_map(_square, [1, 2], workers=1)
    phases = {r["phase"] for r in _records(stream)}
    assert any("_square" in name for name in phases)


# -- fork inheritance: per-pid stream reopen ---------------------------------

def _noisy_task(i: int) -> int:
    """Emits its own heartbeats from inside a pool worker (the pattern a
    characterisation arc inside a sweep produces)."""
    with progress.phase(f"inner[{i}]", total=4) as ph:
        for _ in range(4):
            progress.update(ph)
    return i


def test_forked_workers_emit_well_formed_ndjson(stream):
    """Regression: forked pool workers inherited the parent's open
    stream object; worker-side emission through that shared handle
    could interleave records and duplicate buffered bytes.  Each
    process must (re)open its own O_APPEND fd, keyed on pid."""
    results = parallel_map(_noisy_task, list(range(6)), workers=3)
    assert [r.value for r in results] == list(range(6))

    records = _records(stream)               # every line parses
    pids = {r["pid"] for r in records}
    assert len(pids) >= 2                    # parent + >=1 worker wrote
    # Parent's phase is complete: begin, final tick, end.
    outer = [r for r in records if r["phase"] == "_noisy_task"]
    assert outer[0]["event"] == "begin"
    assert outer[-1]["event"] == "end"
    assert outer[-1]["done"] == 6
    # Worker phases all reached their final tick.
    for i in range(6):
        inner = [r for r in records if r["phase"] == f"inner[{i}]"]
        assert inner[-1]["event"] == "end"
        assert inner[-1]["done"] == 4


def test_stream_reopened_after_pid_change(stream, monkeypatch):
    with progress.phase("warm", total=1) as ph:
        progress.update(ph)
    first = progress._stream
    assert first is not None
    # Simulate being on the forked side: same module state, new pid.
    monkeypatch.setattr(progress, "_stream_pid", progress._stream_pid - 1)
    with progress.phase("after-fork", total=1) as ph:
        progress.update(ph)
    assert progress._stream is not first     # reopened, not shared
    assert len({r["phase"] for r in _records(stream)}) == 2

