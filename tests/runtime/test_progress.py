"""Progress heartbeats on stderr: throttling, final ticks, nesting and
parallel_map."""

from __future__ import annotations

import re

import pytest

from repro.runtime import progress
from repro.runtime.executor import parallel_map

#: One heartbeat: ``[name] done[/total][ pct%][ eta Xs]`` then three
#: spaces and ``\r`` (a rewritten status line) or ``\n`` (phase end).
_RECORD = re.compile(r"\[(?P<phase>.+?)\] (?P<done>\d+)(?:/(?P<total>\d+))?"
                     r"(?: +(?P<pct>\d+)%)?(?: eta (?P<eta>[\d.]+)s)?"
                     r"   (?P<end>[\r\n])")


@pytest.fixture()
def heartbeats(capsys):
    """Turn stderr heartbeats on; returns a reader of the records so far
    (the shared fixtures turn them off again)."""
    progress.set_stderr(True)

    def read() -> list[dict]:
        err = capsys.readouterr().err
        records = [m.groupdict() for m in _RECORD.finditer(err)]
        assert "".join(m.group(0) for m in _RECORD.finditer(err)) == err
        return records
    return read


def test_disabled_by_default_costs_nothing(capsys):
    progress.set_stderr(False)
    assert not progress.ENABLED
    with progress.phase("quiet", total=3) as ph:
        assert ph is None
        progress.update(ph)                  # no-op, no error
    progress.end(None)
    assert capsys.readouterr().err == ""


def test_records_begin_tick_end_with_eta(heartbeats):
    with progress.phase("dse", total=3) as ph:
        for _ in range(3):
            ph.step()
    records = heartbeats()
    assert {r["phase"] for r in records} == {"dse"}
    assert (records[0]["done"], records[0]["total"]) == ("0", "3")
    # Only the end record closes the status line.
    assert [r["end"] for r in records] == ["\r"] * (len(records) - 1) + ["\n"]
    final_tick, last = records[-2], records[-1]
    for record in (final_tick, last):
        assert (record["done"], record["total"]) == ("3", "3")
        assert record["pct"] == "100" and record["eta"] == "0.0"


def test_intermediate_ticks_throttled_final_always_emitted(heartbeats):
    with progress.phase("mc", total=1000) as ph:
        for _ in range(1000):
            ph.step()
    records = heartbeats()
    # 1000 sub-millisecond steps collapse under the rate limit, but the
    # 1000/1000 completion tick must survive it.
    assert len(records) < 50
    final_tick, last = records[-2], records[-1]
    assert final_tick["done"] == "1000" and final_tick["end"] == "\r"
    assert last["done"] == "1000" and last["end"] == "\n"


def test_unbounded_phase(heartbeats):
    with progress.phase("scan") as ph:       # no total: no pct, no eta
        ph.step(7)
    records = heartbeats()
    assert records[-1]["done"] == "7" and records[-1]["end"] == "\n"
    assert all(r["total"] is None and r["pct"] is None and r["eta"] is None
               for r in records)


def test_phases_nest(heartbeats):
    with progress.phase("sweep", total=2) as outer:
        for combo in range(2):
            with progress.phase(f"combo[{combo}]", total=1) as inner:
                inner.step()
            outer.step()
    records = heartbeats()
    ends = [r["phase"] for r in records if r["end"] == "\n"]
    assert ends == ["combo[0]", "combo[1]", "sweep"]
    assert records[0]["phase"] == "sweep"
    assert records[-1]["done"] == "2"


def _square(i: int) -> int:
    return i * i


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_map_parent_ticks_its_phase(heartbeats, workers):
    """The parent opens the map's phase once, ticks it to the task
    count and closes it; the workers emit none of it."""
    result = parallel_map(_square, list(range(5)), workers=workers,
                          phase="dse[test]")
    assert [r.value for r in result] == [0, 1, 4, 9, 16]
    records = [r for r in heartbeats() if r["phase"] == "dse[test]"]
    assert [(r["done"], r["total"]) for r in records
            if r["done"] == "0"] == [("0", "5")]
    dones = [int(r["done"]) for r in records]
    assert dones == sorted(dones)
    assert [r["end"] for r in records].count("\n") == 1
    assert records[-1]["done"] == "5" and records[-1]["end"] == "\n"


def test_parallel_map_phase_defaults_to_function_name(heartbeats):
    parallel_map(_square, [1, 2], workers=1)
    phases = {r["phase"] for r in heartbeats()}
    assert any("_square" in name for name in phases)
