"""Shared fixtures.

Characterised libraries are expensive (hundreds of transistor-level
transients), so they are session-scoped here and disk-cached by the
characterisation harness itself; the first run of the suite pays the
characterisation cost once, later runs load JSON.
"""

from __future__ import annotations

import pytest

from repro.characterization import organic_library, silicon_library
from repro.runtime import progress, telemetry
from repro.spice.backends import NativeBackend, get_backend
from repro.synthesis import sta
from repro.synthesis.wires import organic_wire_model, silicon_wire_model

#: Oracle legs.  Every non-slow test under these paths runs twice: once
#: as collected, and once as a twin, id suffixed with the leg name, with
#: one fast path switched to its oracle.  ``per-iteration`` holds the
#: modules that test ``NativeBackend.ensemble_timestep``; modules that
#: reach it only by building a library (``tests/analysis/test_dse.py``)
#: are left out, since their twins would rebuild both libraries on the
#: per-iteration kernel and test nothing the SPICE twins do not.
ORACLE_LEGS = {
    "per-iteration": (
        "tests/characterization/test_ensemble_equivalence.py",
        "tests/spice/test_backends.py",
        "tests/spice/test_ensemble.py",
    ),
    "full-retime": (
        "tests/synthesis/",
        "tests/analysis/test_dse.py",
        "tests/core/test_physical_tradeoffs.py",
    ),
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "oracle_leg(name): run with one fast path switched to "
                   "its oracle (added by tests/conftest.py)")


def pytest_collection_modifyitems(config, items):
    collected = list(items)
    items.clear()
    for item in collected:
        items.append(item)
        if item.get_closest_marker("slow"):
            continue
        path = item.path.relative_to(config.rootpath).as_posix()
        for leg, prefixes in ORACLE_LEGS.items():
            if path.startswith(prefixes):
                items.append(_twin(item, leg))


def _twin(item, leg: str):
    name = (f"{item.name[:-1]}-{leg}]" if item.name.endswith("]")
            else f"{item.name}[{leg}]")
    twin = pytest.Function.from_parent(
        item.parent, name=name, callspec=getattr(item, "callspec", None),
        callobj=item.obj, fixtureinfo=item._fixtureinfo,
        keywords=item.keywords, originalname=item.originalname)
    twin.add_marker(pytest.mark.oracle_leg(leg))
    return twin


@pytest.fixture(autouse=True)
def _oracle_leg(request, monkeypatch):
    marker = request.node.get_closest_marker("oracle_leg")
    if marker is None:
        return
    if marker.args[0] == "per-iteration":
        if get_backend().name != "native":
            pytest.skip("per-iteration dispatch needs the native backend")
        monkeypatch.setattr(NativeBackend, "whole_timestep", False)
    else:
        monkeypatch.setattr(sta, "INCREMENTAL", False)


@pytest.fixture(autouse=True)
def _observability_isolation(tmp_path, monkeypatch):
    """Keep run reports out of the working tree and telemetry state
    from leaking between tests."""
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    yield
    telemetry.enable(False)
    telemetry.reset()
    # CLI invocations with -v flip the stderr-progress latch; undo it so
    # later tests see the documented disabled-by-default state.
    progress.set_stderr(False)


@pytest.fixture(scope="session")
def organic_lib():
    return organic_library()


@pytest.fixture(scope="session")
def silicon_lib():
    return silicon_library()


@pytest.fixture(scope="session")
def organic_wire():
    return organic_wire_model()


@pytest.fixture(scope="session")
def silicon_wire():
    return silicon_wire_model()
