"""Golden-trace regression: serial, parallel, and cached runs must all
reproduce the committed fixtures bit-for-bit.

The fixtures (``fixtures/golden_traces.json``) pin the full trace of
each manager on the short three-phase scenario.  Any unintentional
change to the simulation, the controllers, the engine's process
handling, or the cache's serialization shows up here as a float-level
deviation.  Intentional behaviour changes regenerate the fixtures with
``scripts/make_golden_traces.py``.
"""

from __future__ import annotations

import pytest

from repro.exec.engine import ExperimentEngine, _worker_execute
from tests.exec.golden import (
    GOLDEN_MANAGERS,
    assert_matches_golden,
    golden_job,
    load_fixture,
)


@pytest.fixture(scope="module")
def fixture() -> dict:
    return load_fixture()


def test_fixture_covers_every_manager(fixture):
    assert sorted(fixture["managers"]) == sorted(GOLDEN_MANAGERS)


@pytest.mark.parametrize("manager", GOLDEN_MANAGERS)
def test_serial_run_matches_golden(manager, fixture):
    status, trace, _ = _worker_execute(golden_job(manager))
    assert status == "ok", trace
    assert_matches_golden(trace, fixture["managers"][manager])


def test_parallel_run_matches_golden(fixture, exec_cache):
    engine = ExperimentEngine(max_workers=2, cache=exec_cache)
    jobs = [golden_job(m) for m in GOLDEN_MANAGERS]
    traces = engine.results(jobs)
    for manager, trace in zip(GOLDEN_MANAGERS, traces):
        assert_matches_golden(trace, fixture["managers"][manager])


def test_cache_hit_matches_golden(fixture, exec_cache):
    engine = ExperimentEngine(max_workers=1, cache=exec_cache)
    jobs = [golden_job(m) for m in GOLDEN_MANAGERS]
    engine.results(jobs)  # populate (or hit, if a prior test ran)
    # Second pass must be served entirely from disk, and the pickled
    # traces must still match the fixtures exactly.
    traces = engine.results(jobs)
    assert all(r.cache_hit for r in engine.last_records)
    for manager, trace in zip(GOLDEN_MANAGERS, traces):
        assert_matches_golden(trace, fixture["managers"][manager])
