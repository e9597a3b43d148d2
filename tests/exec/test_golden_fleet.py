"""Golden fleet regression: the batched N-device job must reproduce the
committed fixture bit-for-bit — serially, through the engine's process
pool, and from a warm cache — and every row of it must equal the
scalar oracle run with that row's derived seed.

The fixture (``fixtures/golden_fleet.json``) pins a three-device SPECTR
fleet on the short golden scenario with one actuator-faulted row, so
both the batched kernel and the scalar-splice path are covered.
Intentional behaviour changes regenerate the fixture with
``scripts/make_golden_traces.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.engine import ExperimentEngine, _worker_execute
from repro.exec.job import ScenarioJob, derive_seed
from tests.exec.golden import (
    GOLDEN_FLEET_FAULT,
    GOLDEN_FLEET_FAULT_ROW,
    GOLDEN_SEED,
    TRACE_SERIES,
    assert_matches_golden_fleet,
    golden_fleet_job,
    golden_scenario,
    load_fleet_fixture,
)


@pytest.fixture(scope="module")
def fixture() -> dict:
    return load_fleet_fixture()


def _scalar_oracle_job(row: int) -> ScenarioJob:
    fault = GOLDEN_FLEET_FAULT if row == GOLDEN_FLEET_FAULT_ROW else None
    return ScenarioJob(
        manager="SPECTR",
        scenario=golden_scenario(),
        seed=derive_seed(GOLDEN_SEED, "fleet", row),
        fault=fault,
        label=f"golden:fleet-oracle:{row}",
    )


def test_serial_fleet_matches_fixture(fixture):
    status, trace, _ = _worker_execute(golden_fleet_job())
    assert status == "ok", trace
    assert_matches_golden_fleet(trace, fixture["fleet"])


def test_every_row_matches_scalar_oracle():
    """Batched == serial: each device row (faulted one included) is
    bit-identical to an independent scalar run with the derived seed."""
    status, fleet, _ = _worker_execute(golden_fleet_job())
    assert status == "ok", fleet
    for index in range(fleet.n_devices):
        status, scalar, _ = _worker_execute(_scalar_oracle_job(index))
        assert status == "ok", scalar
        row = fleet.row(index)
        assert row.gain_sets == scalar.gain_sets, index
        for series in TRACE_SERIES:
            assert np.array_equal(
                getattr(row, series), getattr(scalar, series)
            ), f"row {index} {series} diverges from the scalar oracle"


def test_engine_parallel_and_cache_hit_match_fixture(fixture, exec_cache):
    engine = ExperimentEngine(max_workers=2, cache=exec_cache)
    (trace,) = engine.results([golden_fleet_job()])
    assert_matches_golden_fleet(trace, fixture["fleet"])
    # Second pass is served from disk; the unpickled trace must still
    # match the fixture exactly.
    (cached,) = engine.results([golden_fleet_job()])
    assert all(record.cache_hit for record in engine.last_records)
    assert_matches_golden_fleet(cached, fixture["fleet"])
