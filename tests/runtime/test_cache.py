"""Persistent result cache: round trips, knobs, and invalidation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import CoreConfig
from repro.core.isa import CODE_LOAD
from repro.core.superscalar import simulate, simulate_cached
from repro.core.trace import Trace
from repro.core.workloads import WORKLOADS, generate_trace
from repro.runtime.cache import (
    ResultCache,
    cache_enabled,
    default_cache,
    default_cache_root,
    disk_stats,
    reset_stats,
    stats_snapshot,
)


def test_round_trip(tmp_path):
    cache = ResultCache(tmp_path, enabled=True)
    key = cache.key({"x": 1})
    assert cache.get("simulation", key) is None
    payload = {"cycles": 123, "nested": {"a": [1, 2, 3]}}
    path = cache.put("simulation", key, payload)
    assert path is not None and path.is_file()
    assert cache.get("simulation", key) == payload
    assert cache.hits == 1 and cache.misses == 1


def test_key_is_canonical_and_content_sensitive():
    assert ResultCache.key({"a": 1, "b": 2}) == ResultCache.key({"b": 2, "a": 1})
    assert ResultCache.key({"a": 1}) != ResultCache.key({"a": 2})
    assert ResultCache.key([1, 2]) != ResultCache.key([2, 1])


def test_disabled_cache_is_null_object(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert not cache_enabled()
    cache = default_cache()
    assert not cache.enabled
    key = cache.key("anything")
    assert cache.put("simulation", key, {"v": 1}) is None
    assert cache.get("simulation", key) is None
    assert list(tmp_path.iterdir()) == []          # nothing ever written


def test_cache_dir_env_controls_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert default_cache_root() == tmp_path / "elsewhere"
    assert default_cache().root == tmp_path / "elsewhere"


def test_corrupt_entry_is_dropped_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path, enabled=True)
    key = cache.key("k")
    path = cache.path_for("block_timing", key)
    path.parent.mkdir(parents=True)
    path.write_text("{ not json")
    assert cache.get("block_timing", key) is None
    assert not path.exists()                       # dropped, not left to rot


def test_bad_category_rejected(tmp_path):
    cache = ResultCache(tmp_path, enabled=True)
    with pytest.raises(ValueError):
        cache.path_for("../escape", "abc")
    with pytest.raises(ValueError):
        cache.path_for("", "abc")


def test_clear(tmp_path):
    cache = ResultCache(tmp_path, enabled=True)
    cache.put("simulation", cache.key(1), {"v": 1})
    cache.put("simulation", cache.key(2), {"v": 2})
    cache.put("block_timing", cache.key(3), {"v": 3})
    assert cache.clear("simulation") == 2
    assert cache.clear() == 1


# ---------------------------------------------------------------------------
# simulate_cached: round trip and fingerprint invalidation
# ---------------------------------------------------------------------------

def _small_trace(name="gzip", n=400, seed=0):
    return generate_trace(WORKLOADS[name], n, seed=seed)


def test_simulate_cached_round_trip(tmp_path):
    cache = ResultCache(tmp_path, enabled=True)
    config = CoreConfig()
    trace = _small_trace()
    first = simulate_cached(config, trace, cache=cache)
    assert cache.hits == 0
    second = simulate_cached(config, trace, cache=cache)
    assert cache.hits == 1
    assert second == first == simulate(config, trace)


def test_simulate_cached_hit_skips_simulation(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path, enabled=True)
    config = CoreConfig()
    trace = _small_trace()
    expected = simulate_cached(config, trace, cache=cache)

    import repro.core.superscalar as superscalar
    from repro.core import ipc_native

    def boom(*a, **k):
        raise AssertionError("simulate() must not run on a cache hit")

    monkeypatch.setattr(ipc_native, "native_cycles", boom)
    monkeypatch.setattr(superscalar, "_simulate_reference", boom)
    assert simulate_cached(config, trace, cache=cache) == expected


def test_fingerprint_invalidation(tmp_path):
    """Any change to the instruction stream must miss; renames must hit."""
    cache = ResultCache(tmp_path, enabled=True)
    config = CoreConfig()
    base = _small_trace()

    # Same content under a different display name: same fingerprint,
    # cache hit (results are keyed on content, not names).
    renamed = Trace.from_arrays(
        "other-name", klass=base.klass_codes, src0=base.src0, src1=base.src1,
        dst=base.dst, taken=base.taken, pattern_key=base.pattern_key,
        is_miss=base.is_miss)
    assert renamed.fingerprint() == base.fingerprint()
    simulate_cached(config, base, cache=cache)
    simulate_cached(config, renamed, cache=cache)
    assert cache.hits == 1

    # One flipped miss flag: new fingerprint, new entry.
    is_miss = base.is_miss.copy()
    load_positions = np.flatnonzero(base.klass_codes == CODE_LOAD)
    is_miss[load_positions[0]] = ~is_miss[load_positions[0]]
    mutated = Trace.from_arrays(
        base.name, klass=base.klass_codes, src0=base.src0, src1=base.src1,
        dst=base.dst, taken=base.taken, pattern_key=base.pattern_key,
        is_miss=is_miss)
    assert mutated.fingerprint() != base.fingerprint()
    hits_before = cache.hits
    simulate_cached(config, mutated, cache=cache)
    assert cache.hits == hits_before               # it was a miss

    # Different seeds produce different streams (and fingerprints).
    assert _small_trace(seed=1).fingerprint() != base.fingerprint()


def test_config_signature_shares_entries_across_irrelevant_fields(tmp_path):
    """Fields the kernel never reads must not fragment the cache."""
    cache = ResultCache(tmp_path, enabled=True)
    trace = _small_trace()
    simulate_cached(CoreConfig(), trace, cache=cache)
    import dataclasses
    renamed = dataclasses.replace(CoreConfig(), name="same-timing",
                                  data_width=32, phys_regs=128)
    result = simulate_cached(renamed, trace, cache=cache)
    assert cache.hits == 1
    assert result.config_name == "same-timing"     # identity stays local


def test_cached_payload_is_plain_json(tmp_path):
    cache = ResultCache(tmp_path, enabled=True)
    trace = _small_trace()
    simulate_cached(CoreConfig(), trace, cache=cache)
    files = list((tmp_path / "simulation").glob("*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert set(payload) == {"instructions", "cycles", "branch_count",
                            "mispredicts", "l1_misses"}


class TestStats:
    def test_counters_track_hits_misses_and_bytes(self, tmp_path):
        reset_stats()
        cache = ResultCache(tmp_path, enabled=True)
        key = cache.key({"x": 1})
        assert cache.get("library", key) is None          # miss
        cache.put("library", key, {"payload": [1, 2, 3]})  # put
        assert cache.get("library", key) is not None       # hit
        stats = stats_snapshot()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] == stats["bytes_written"]
        # Instance counters track the same events.
        assert cache.hits == 1 and cache.misses == 1

    def test_reset_zeroes_counters(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.get("library", cache.key({"y": 2}))
        reset_stats()
        assert all(v == 0 for v in stats_snapshot().values())

    def test_disk_stats_reports_categories(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("library", cache.key({"a": 1}), {"v": 1})
        cache.put("simulation", cache.key({"b": 2}), {"v": 2})
        cache.put("simulation", cache.key({"c": 3}), {"v": 3})
        stats = disk_stats(tmp_path)
        assert stats["library"]["entries"] == 1
        assert stats["simulation"]["entries"] == 2
        assert stats["simulation"]["bytes"] > 0

    def test_disk_stats_missing_root(self, tmp_path):
        assert disk_stats(tmp_path / "nope") == {}

    def test_put_leaves_no_temp_files(self, tmp_path):
        """The write-and-rename publish leaves exactly one final file."""
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("library", cache.key({"z": 9}), {"v": 9})
        leftovers = list((tmp_path / "library").glob("*.tmp"))
        assert leftovers == []
        assert len(list((tmp_path / "library").glob("*.json"))) == 1

    def test_put_fsync_opt_in(self, tmp_path, monkeypatch):
        """REPRO_CACHE_FSYNC=1 syncs the entry; default skips the fsync."""
        import os

        import repro.runtime.cache as cache_mod
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(cache_mod.os, "fsync",
                            lambda fd: calls.append(fd) or real_fsync(fd))
        cache = ResultCache(tmp_path, enabled=True)

        monkeypatch.delenv("REPRO_CACHE_FSYNC", raising=False)
        cache.put("library", cache.key({"f": 0}), {"v": 0})
        assert calls == []

        monkeypatch.setenv("REPRO_CACHE_FSYNC", "1")
        key = cache.key({"f": 1})
        cache.put("library", key, {"v": 1})
        assert len(calls) == 1
        assert cache.get("library", key) == {"v": 1}


def test_cache_stats_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(enabled=True)
    cache.put("library", cache.key({"cli": 1}), {"v": 1})
    from repro.__main__ import main
    assert main(["cache-stats"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "library" in out and "entries" in out


# -- concurrent same-key writers (the dedup layer's invariant) ---------------

def _racing_writer(root: str, key: str, rounds: int, tag: int,
                   out_path: str) -> None:
    """Hammer one cache entry with put+get and report stats as JSON."""
    cache = ResultCache(root=root, enabled=True)
    corrupt = 0
    for i in range(rounds):
        cache.put("race", key, {"tag": tag, "round": i,
                                "pad": list(range(400))})
        entry = cache.get("race", key)
        # Any outcome must be a complete payload from *some* writer —
        # a torn/corrupt entry reads back as None (get drops it).
        if entry is None or len(entry.get("pad", ())) != 400:
            corrupt += 1
    with open(out_path, "w") as fh:
        json.dump({"hits": cache.hits, "misses": cache.misses,
                   "corrupt": corrupt}, fh)


def test_concurrent_same_key_writers_leave_readable_entry(tmp_path):
    """Two processes racing tmp+rename on one entry: every read during
    the race sees a complete payload (atomic os.replace publication),
    counters stay consistent, and the final entry is readable."""
    import multiprocessing

    key = ResultCache.key({"race": True})
    rounds = 50
    outs = [tmp_path / f"stats-{tag}.json" for tag in range(2)]
    procs = [multiprocessing.Process(
                target=_racing_writer,
                args=(str(tmp_path / "cache"), key, rounds, tag, str(out)))
             for tag, out in enumerate(outs)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0

    for out in outs:
        stats = json.loads(out.read_text())
        # Every get after a put must hit: os.replace guarantees the
        # entry exists and is complete from the first put onwards.
        assert stats == {"hits": rounds, "misses": 0, "corrupt": 0}

    cache = ResultCache(root=tmp_path / "cache", enabled=True)
    final = cache.get("race", key)
    assert final is not None and len(final["pad"]) == 400
    assert final["tag"] in (0, 1) and final["round"] == rounds - 1
    # Exactly one published file, no leftover tmp droppings.
    entries = list((tmp_path / "cache" / "race").iterdir())
    assert [e.name for e in entries] == [f"{key}.json"]
