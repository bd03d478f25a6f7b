"""Tests of the benchmark's own machinery: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import enum
import json
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import canon, child, cli, harness, layers
from benchmarks.e2e.workloads import WORKLOADS, Op, Workload

# -- canonicaliser ------------------------------------------------------------


def test_signed_zero_and_last_bit_are_distinct():
    assert canon.digest(0.0) != canon.digest(-0.0)
    assert canon.digest(1.0) != canon.digest(np.nextafter(1.0, 2.0))
    assert canon.canonical(0.1) == "f:" + (0.1).hex()


def test_non_finite_floats():
    assert canon.canonical(float("nan")) == "f:nan"
    assert canon.canonical(float("-inf")) == "f:-inf"


def test_bool_int_float_do_not_alias():
    assert len({canon.digest(True), canon.digest(1),
                canon.digest(1.0)}) == 3


def test_dict_keys_sorted_and_repr_for_non_strings():
    a = {(1, 3): 1.0, 2: "x", "b": None}
    b = {"b": None, 2: "x", (1, 3): 1.0}
    assert canon.digest(a) == canon.digest(b)
    assert set(canon.canonical(a)) == {"(1, 3)", "2", "b"}


def test_numpy_scalar_keys_and_values_match_python_ones():
    assert canon.canonical({np.int64(4): np.float64(0.5)}) == \
        canon.canonical({4: 0.5})


def test_colliding_keys_raise():
    with pytest.raises(ValueError):
        canon.canonical({1: "int", "1": "str"})


def test_arrays_keep_dtype_and_shape():
    x = np.arange(6, dtype=np.float64)
    assert canon.digest(x) != canon.digest(x.astype(np.float32))
    assert canon.digest(x) != canon.digest(x.reshape(2, 3))
    assert canon.digest(x) == canon.digest(x.copy())
    assert canon.digest(np.array([0.0])) != canon.digest(np.array([-0.0]))


@dataclass(frozen=True)
class _Point:
    x: float
    tags: dict = field(default_factory=dict)


class _Lib:
    def __init__(self, vdd):
        self.vdd = vdd

    def to_dict(self):
        return {"vdd": self.vdd}


class _Colour(enum.Enum):
    RED = 1


def test_dataclasses_to_dict_and_enums():
    p = _Point(1.5, {(1, 2): [np.float64(2.0)]})
    tree = canon.canonical(p)
    assert tree["__class__"] == "_Point"
    assert tree["tags"] == {"(1, 2)": ["f:" + (2.0).hex()]}
    assert canon.digest(_Lib(5.0)) != canon.digest(_Lib(5.000000000000001))
    assert canon.canonical(_Lib(1.0))["to_dict"] == {"vdd": "f:" + (1.0).hex()}
    assert canon.canonical(_Colour.RED)["name"] == "RED"


def test_unknown_objects_are_refused():
    with pytest.raises(TypeError):
        canon.canonical(object())
    with pytest.raises(TypeError):
        canon.canonical(lambda: None)


# -- tracer -------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    clock = _Clock()
    tracer = layers.Tracer(targets=(), clock=clock)

    def inner():
        clock.t += 2.0

    def outer():
        clock.t += 1.0
        traced_inner()
        traced_inner()
        clock.t += 3.0

    traced_inner = tracer.wrap("b.inner", inner)
    tracer.wrap("a.outer", outer)()
    assert tracer.calls == {"a.outer": 1, "b.inner": 2}
    assert tracer.self_s["a.outer"] == pytest.approx(4.0)
    assert tracer.self_s["b.inner"] == pytest.approx(4.0)
    assert [s[3] for s in tracer.spans] == [1, 1, 0]


def test_self_time_survives_exceptions_and_recursion():
    clock = _Clock()
    tracer = layers.Tracer(targets=(), clock=clock)

    def rec(n):
        clock.t += 1.0
        if n == 0:
            raise RuntimeError("bottom")
        traced(n - 1)

    traced = tracer.wrap("r.rec", rec)
    with pytest.raises(RuntimeError):
        traced(2)
    assert tracer.calls["r.rec"] == 3
    assert tracer.self_s["r.rec"] == pytest.approx(3.0)
    assert not tracer._stack


def test_metrics_share_of_wall_time():
    clock = _Clock()
    targets = (("a", "m", "f"), ("a", "m", "g"), ("b", "m", "h"))
    tracer = layers.Tracer(targets=targets, clock=clock)
    tracer.self_s.update({"a.f": 1.0, "a.g": 2.0, "b.h": 3.0})
    m = tracer.metrics(wall_s=10.0)
    assert m["a.self_pct"] == (pytest.approx(30.0), "%")
    assert m["b.h.self_pct"] == (pytest.approx(30.0), "%")
    assert m["other.self_pct"] == (pytest.approx(40.0), "%")
    assert m["a.g.calls"] == (0, "count")


@pytest.fixture
def fake_modules():
    """``fake_lib`` defines f and a class; ``fake_user`` imports f."""
    lib = types.ModuleType("fake_lib")
    user = types.ModuleType("fake_user")

    def f(x):
        return x + 1

    class Box:
        def get(self):
            return 7

    lib.f, lib.Box = f, Box
    user.f = f                       # from fake_lib import f
    user.renamed = f                 # from fake_lib import f as renamed
    user.other_f = lambda x: x       # same-looking name, different object
    sys.modules.update(fake_lib=lib, fake_user=user)
    yield lib, user, f
    del sys.modules["fake_lib"], sys.modules["fake_user"]


def test_tracer_rebinds_from_import_aliases(fake_modules):
    lib, user, f = fake_modules
    other = user.other_f
    tracer = layers.Tracer(targets=(("x", "fake_lib", "f"),
                                    ("x", "fake_lib", "Box.get")))
    tracer.install()
    try:
        assert user.f(1) == 2 and user.renamed(1) == 2 and lib.f(1) == 2
        assert lib.Box().get() == 7
        assert user.other_f is other
    finally:
        tracer.uninstall()
    assert tracer.calls == {"x.f": 3, "x.Box.get": 1}
    assert user.f is f and user.renamed is f and lib.f is f
    assert "get" in vars(lib.Box) and lib.Box().get() == 7


def test_tracer_leaves_its_own_module_alone(fake_modules):
    lib, _user, f = fake_modules
    layers._probe_alias = f
    tracer = layers.Tracer(targets=(("x", "fake_lib", "f"),))
    try:
        tracer.install()
        assert layers._probe_alias is f
        tracer.uninstall()
    finally:
        del layers._probe_alias


# -- op accounting ------------------------------------------------------------


def _boom():
    raise RuntimeError("boom")


def test_raising_op_fails_alone_and_the_run_goes_on():
    wl = Workload("fake", (), lambda seed, scratch: None,
                  lambda state, i: [Op("a", lambda: 1.0), Op("b", _boom),
                                    Op("c", lambda: [2.0])])
    seconds, records, outputs = child.run_iteration(wl, None, 0)
    assert [r["name"] for r in records] == ["a", "b", "c"]
    assert "RuntimeError: boom" in records[1]["error"]
    assert "digest" in records[0] and "digest" in records[2]
    assert all(r["ref_seconds"] > 0.0 for r in records)
    assert set(outputs) == {"a", "c"} and seconds >= 0.0

    result = {"backend": "native", "ipc_kernel": "fast-native",
              "iterations": [{"seconds": seconds, "ops": records}],
              "peak_rss_kb": 1024}
    reference = {"native/fast-native": {"a": records[0]["digest"],
                                        "b": "x", "c": "wrong"}}
    record = harness.RunRecord()
    record.add(result, None, reference)
    assert (record.attempted, record.failed) == (3, 2)
    assert record.digests == {"a": records[0]["digest"]}


def test_missing_reference_key_is_a_failure():
    result = {"backend": "numpy", "ipc_kernel": "fast-python",
              "iterations": [{"seconds": 1.0,
                              "ops": [{"name": "a", "digest": "d",
                                       "ref_seconds": 1.0}]}],
              "peak_rss_kb": 1024}
    record = harness.RunRecord()
    record.add(result, None, {"native/fast-native": {"a": "d"}})
    assert record.failed == 1 and "no reference" in record.errors[0]
    record.add(None, "child exited with 1", {})
    assert (record.attempted, record.failed) == (2, 2)


def test_a_slow_host_probe_scales_times_down():
    assert child.at_reference_speed(3.0, 2 * child.PROBE_REFERENCE_S) == 1.5


def test_iteration_time_is_the_sum_of_per_op_medians():
    record = harness.RunRecord()
    for a, b in ((1.0, 5.0), (9.0, 2.0), (2.0, 3.0)):
        ops = [{"name": "a", "digest": "x", "ref_seconds": a},
               {"name": "b", "digest": "y", "ref_seconds": b}]
        record.add({"backend": "numpy", "ipc_kernel": "fast-python",
                    "iterations": [{"seconds": a + b, "ops": ops}],
                    "peak_rss_kb": 1024}, None, None)
        record.setups.append(1.0)
    # A slow a in the second iteration and a slow b in the first leave
    # the sum of medians (2 + 3) below the median total (7).
    assert record.metrics()["iteration_s"] == (5.0, "s")
    assert record.failed == 0


# -- BENCHMARK.json and compare -----------------------------------------------


def test_benchmark_json_matches_what_the_runs_report():
    spec = cli.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    record = harness.RunRecord()
    record.op_seconds, record.setups, record.rss_mb = {"a": [1.0]}, [1.0], \
        [1.0]
    assert [m["name"] for m in spec["end_to_end"]] == list(record.metrics())
    delta = dict.fromkeys(("hits", "misses", "puts", "bytes_read",
                           "bytes_written"), 0)
    traced = child._traced_metrics(layers.Tracer(), 1.0, 1, delta, 0.1, 0.1,
                                   1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_v, unit) in traced.items()}


_SPEC = {"end_to_end": [{"name": "iteration_s", "unit": "s",
                         "better": "lower", "bound": 0.1}]}


def _result(values, digest="d", simulated=None):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"workloads": {"w": {
        "metrics": {"iteration_s": {"median": med, "q1": q1, "q3": q3,
                                    "values": values}},
        "digests": {"op": digest}, "simulated": simulated or {},
        "failed": 0, "attempted": 1}}}


def test_compare_flags_regressions_and_mismatches():
    base = _result([10.0, 10.1, 10.2])
    assert cli.compare(base, _result([10.3, 10.4, 10.5]), _SPEC)[1]
    lines, ok = cli.compare(base, _result([12.0, 12.1, 12.2]), _SPEC)
    assert not ok and "REGRESSED" in lines[1]
    assert not cli.compare(base, _result([10.0, 10.1, 10.2], digest="e"),
                           _SPEC)[1]
    assert not cli.compare(_result([1.0], simulated={"d": 9}),
                           _result([1.0], simulated={"d": 10}), _SPEC)[1]
    lines, ok = cli.compare(_result([5.0, 10.0, 15.0]),
                            _result([5.0, 10.0, 15.0]), _SPEC)
    assert ok and "unresolved" in lines[1]
    lines, ok = cli.compare(_result([5.0, 10.0, 15.0]),
                            _result([1.0, 2.0, 3.0]), _SPEC)
    assert ok and "better (every run)" in lines[1]


def test_reference_covers_every_op_for_the_recorded_kernels():
    reference = json.loads(Path(harness.REFERENCE).read_text())
    assert reference
    for digests in reference.values():
        assert {"fig3", "fig15", "dse", "organic_library",
                "silicon_library"} <= set(digests)
        assert sum(k.startswith("dse_grid[") for k in digests) == 8
