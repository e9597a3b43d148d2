"""Differential harness: the batched fleet kernel vs the scalar oracle.

The fleet kernel (:mod:`repro.platform.fleet`) advances N devices per
array op; its contract is that row ``i`` of a fleet run is
**bit-identical** to an independent scalar :class:`ExynosSoC` run
seeded with ``derive_seed(base, "fleet", i)``.  These tests enforce
that contract at every layer:

* platform: hypothesis-driven random actuation (DVFS + hotplug + idle
  ticks) across fleet sizes, workloads, background mixes and seeds,
  with mid-run noise-chunk refills;
* managers: every paper manager's closed-loop fleet run equals the
  scalar runner row for row, gain switches included; fleet SPECTR's
  compiled supervisor also across its period, ablation switches and
  tight three-band thresholds;
* exec: faulted rows spliced by :func:`execute_fleet` equal scalar
  fault-injected jobs;
* guards: configurations the kernel does not reproduce (idle
  insertion, >= 8 cores, fault layers, ineligible sensors) are
  rejected loudly instead of silently diverging.

Plus pinned regressions for latent scalar/batched divergences found
while building the kernel: NaN frequency snapping and banker's-rounding
hotplug.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.batch import (
    BatchedGainSet,
    BatchedLQGServo,
    _matvec_columns,
)
from repro.control.fused import fused_kernel
from repro.control.lqg import LQGServoController
from repro.core.alphabet import DECREASE_CRITICAL_POWER, SAFE_POWER
from repro.core.events import ThreeBandThresholds
from repro.exec.fleet_jobs import (
    FleetScenarioJob,
    build_fleet_manager_factory,
    execute_fleet,
)
from repro.exec.job import FaultSpec, ScenarioJob, derive_seed
from repro.exec.scenario_jobs import execute
from repro.experiments.figures import (
    MANAGER_NAMES,
    case_study_supervisor,
    identified_systems,
    manager_factory,
)
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.runner import run_scenario
from repro.managers.fleet import FleetSPECTR
from repro.managers.mimo import (
    POWER_GAINS,
    QOS_GAINS,
    build_gain_library,
    cluster_actuator_limits,
)
from repro.experiments.scenario import three_phase_scenario
from repro.managers.spectr import SPECTRManager
from repro.platform.faults import ActuatorFaultModel, inject_actuator_fault
from repro.platform.fleet import FleetPlatform
from repro.platform.opp import OPP, OPPTable, big_cluster_opps
from repro.platform.sensors import NoisySensor
from repro.platform.soc import (
    ExynosSoC,
    PlatformError,
    SoCConfig,
    fleet_sensor_layout,
)
from repro.workloads import canneal, x264

TRACE_FIELDS = (
    "times",
    "qos",
    "qos_reference",
    "chip_power",
    "power_reference",
    "big_power",
    "little_power",
    "big_frequency",
    "big_cores",
    "little_frequency",
    "little_cores",
)
CLUSTER_FIELDS = (
    "frequency_ghz",
    "voltage_v",
    "active_cores",
    "busy_core_equivalents",
    "power_w",
    "ips",
)

_WORKLOADS = (lambda: None, x264, canneal)


def _row_seeds(base_seed: int, n: int) -> list[int]:
    return [derive_seed(base_seed, "fleet", i) for i in range(n)]


def _assert_cluster_equal(fleet_cluster, scalar_cluster, row, tick, name):
    for field in CLUSTER_FIELDS:
        batched = getattr(fleet_cluster, field)[row]
        scalar = getattr(scalar_cluster, field)
        assert float(batched) == float(scalar), (
            f"tick {tick} row {row} {name}.{field}: "
            f"batched {batched!r} != scalar {scalar!r}"
        )


class TestPlatformDifferential:
    """Random-actuation property: every tick, every row, every field."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 5),
        base_seed=st.integers(0, 2**31 - 1),
        workload_id=st.integers(0, len(_WORKLOADS) - 1),
        background_count=st.integers(0, 4),
        drive_seed=st.integers(0, 2**31 - 1),
        ticks=st.integers(5, 30),
    )
    def test_fleet_rows_match_scalar_devices(
        self, n, base_seed, workload_id, background_count, drive_seed, ticks
    ):
        make_workload = _WORKLOADS[workload_id]
        scenario = three_phase_scenario(background_tasks=background_count)
        seeds = _row_seeds(base_seed, n)
        fleet = FleetPlatform(
            qos_app=make_workload(),
            background=scenario.background_tasks(),
            seeds=seeds,
            # A small chunk forces mid-run standard_normal refills, so
            # ziggurat stream continuity across chunks is exercised.
            noise_chunk_ticks=7,
        )
        socs = [
            ExynosSoC(
                qos_app=make_workload(),
                background=scenario.background_tasks(),
                config=SoCConfig(seed=seed),
            )
            for seed in seeds
        ]
        drive = np.random.default_rng(drive_seed)
        for tick in range(ticks):
            fleet_telemetry = fleet.step()
            for row, soc in enumerate(socs):
                telemetry = soc.step()
                if np.ndim(fleet_telemetry.qos_rate):
                    batched_qos = float(fleet_telemetry.qos_rate[row])
                else:
                    # No QoS app: both sides report a plain 0.0.
                    batched_qos = float(fleet_telemetry.qos_rate)
                assert batched_qos == float(telemetry.qos_rate), (
                    f"tick {tick} row {row} qos_rate"
                )
                assert float(fleet_telemetry.chip_power_w[row]) == float(
                    telemetry.chip_power_w
                ), f"tick {tick} row {row} chip_power_w"
                _assert_cluster_equal(
                    fleet_telemetry.big, telemetry.big, row, tick, "big"
                )
                _assert_cluster_equal(
                    fleet_telemetry.little,
                    telemetry.little,
                    row,
                    tick,
                    "little",
                )
            # Random actuation, identical requests on both sides; some
            # ticks are idle (no actuation at all).
            if drive.random() < 0.7:
                big_freq = drive.uniform(0.1, 2.3, n)
                little_freq = drive.uniform(0.1, 1.7, n)
                big_cores = drive.uniform(0.5, 4.5, n)
                little_cores = drive.uniform(0.5, 4.5, n)
                big_mask = drive.random(n) < 0.5
                little_mask = drive.random(n) < 0.5
                fleet.big.set_frequency(big_freq)
                fleet.little.set_frequency(little_freq)
                fleet.big.apply_core_requests(big_cores, big_mask)
                fleet.little.apply_core_requests(little_cores, little_mask)
                for row, soc in enumerate(socs):
                    soc.big.set_frequency(float(big_freq[row]))
                    soc.little.set_frequency(float(little_freq[row]))
                    if big_mask[row]:
                        soc.big.set_active_cores(float(big_cores[row]))
                    if little_mask[row]:
                        soc.little.set_active_cores(float(little_cores[row]))
                for row, soc in enumerate(socs):
                    assert float(fleet.big.frequency[row]) == float(
                        soc.big.frequency_ghz
                    ), f"tick {tick} row {row} big frequency actuation"
                    assert float(fleet.big.active[row]) == float(
                        soc.big.active_cores
                    ), f"tick {tick} row {row} big hotplug actuation"
                    assert float(fleet.little.frequency[row]) == float(
                        soc.little.frequency_ghz
                    ), f"tick {tick} row {row} little frequency actuation"
                    assert float(fleet.little.active[row]) == float(
                        soc.little.active_cores
                    ), f"tick {tick} row {row} little hotplug actuation"


@pytest.fixture(scope="module")
def systems():
    return identified_systems()


class TestManagerDifferential:
    """Closed-loop equivalence for every paper manager."""

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_fleet_run_matches_scalar_rows(self, manager, systems):
        scenario = three_phase_scenario(phase_duration_s=1.0)
        workload = x264()
        seeds = _row_seeds(2018, 3)
        fleet_trace = run_fleet_scenario(
            fleet_manager_factory(manager, systems),
            workload,
            scenario,
            seeds=seeds,
        )
        for index, seed in enumerate(seeds):
            scalar = run_scenario(
                manager_factory(manager, systems),
                x264(),
                scenario,
                seed=seed,
            )
            row = fleet_trace.row(index)
            assert row.gain_sets == scalar.gain_sets, (manager, index)
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(row, field), getattr(scalar, field)
                ), f"{manager} row {index} {field}"


class TestSPECTRDifferential:
    """Fleet SPECTR's compiled supervisor vs per-row ``SPECTRManager``.

    Covers the supervisor period, both ablation switches and tight
    three-band thresholds under which the escalation ``critical`` and
    ``safePower`` both fire; every row's trace and gain-switch log must
    match its scalar run exactly.
    """

    N_ROWS = 8
    CASES = {
        "period-1": {"supervisor_period_epochs": 1},
        "period-3": {"supervisor_period_epochs": 3, "manager_name": "SPECTR-3"},
        "no-gain-scheduling": {"enable_gain_scheduling": False},
        "no-reference-regulation": {"enable_reference_regulation": False},
        "tight-bands": {
            "thresholds": ThreeBandThresholds(
                escalation_grace=1, uncapping_dwell=1
            )
        },
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rows_match_scalar_runs(self, case, systems):
        params = self.CASES[case]
        supervisor = case_study_supervisor()
        if "thresholds" in params:

            def fleet_factory(platform, goals):
                return FleetSPECTR(
                    platform,
                    goals,
                    big_system=systems.big,
                    little_system=systems.little,
                    verified_supervisor=supervisor,
                    **params,
                )

            scalar_kwargs = dict(params)
        else:
            fleet_factory = build_fleet_manager_factory(
                "SPECTR", systems, params
            )
            scalar_kwargs = {
                ("name" if key == "manager_name" else key): value
                for key, value in params.items()
            }
        fleet_managers = []

        def capture_fleet(platform, goals):
            manager = fleet_factory(platform, goals)
            fleet_managers.append(manager)
            return manager

        scenario = three_phase_scenario(phase_duration_s=1.0)
        seeds = _row_seeds(2018, self.N_ROWS)
        fleet_trace = run_fleet_scenario(
            capture_fleet, x264(), scenario, seeds=seeds
        )
        (fleet,) = fleet_managers
        executed: list[str] = []
        observed: list[str] = []
        for index, seed in enumerate(seeds):
            scalars = []
            scalar = run_scenario(
                lambda soc, goals: SPECTRManager(
                    soc,
                    goals,
                    big_system=systems.big,
                    little_system=systems.little,
                    verified_supervisor=supervisor,
                    **scalar_kwargs,
                ),
                x264(),
                scenario,
                seed=seed,
                manager_setup=scalars.append,
            )
            row = fleet_trace.row(index)
            assert row.gain_sets == scalar.gain_sets, (case, index)
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(row, field), getattr(scalar, field)
                ), f"{case} row {index} {field}"
            (manager,) = scalars
            row_events = [
                (t, cluster, gains)
                for t, r, cluster, gains in fleet.gain_events
                if r == index
            ]
            assert row_events == manager.gain_log.entries, (case, index)
            assert (
                fleet.table.state_names[fleet.supervisor_state[index]]
                == manager.engine.state.name
            ), (case, index)
            for record in manager.engine.trace:
                executed.extend(record.executed)
                observed.extend(record.observed)
        if case == "tight-bands":
            assert DECREASE_CRITICAL_POWER in executed
            assert SAFE_POWER in observed


class TestFaultedRowSplice:
    """Faulted devices run the scalar oracle and splice bit-identically."""

    @pytest.mark.parametrize(
        "fault",
        [
            FaultSpec(kind="stuck", target="little", start_s=0.4,
                      duration_s=1.2),
            FaultSpec(kind="reject", target="big", start_s=0.5,
                      duration_s=1.0, probability=0.7),
        ],
        ids=["sensor-stuck", "actuator-reject"],
    )
    def test_execute_fleet_matches_scalar_jobs(self, fault, systems):
        scenario = three_phase_scenario(phase_duration_s=1.0)
        job = FleetScenarioJob(
            manager="MM-Pow",
            scenario=scenario,
            seed=2018,
            n_devices=3,
            device_faults=((1, fault),),
        )
        fleet_trace = execute_fleet(job)
        for index, seed in enumerate(job.seeds()):
            scalar = execute(
                ScenarioJob(
                    manager="MM-Pow",
                    scenario=scenario,
                    seed=seed,
                    fault=fault if index == 1 else None,
                )
            )
            row = fleet_trace.row(index)
            assert row.gain_sets == scalar.gain_sets, index
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(row, field), getattr(scalar, field)
                ), f"row {index} {field}"


class TestKernelGuards:
    """Everything the kernel does not reproduce is rejected loudly."""

    def test_idle_insertion_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        soc.big.set_idle_fraction(0, 0.5)
        with pytest.raises(PlatformError, match="idle insertion"):
            fleet_sensor_layout(soc.big)

    def test_eight_core_cluster_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1, cores_per_cluster=8))
        with pytest.raises(PlatformError, match="8 cores"):
            fleet_sensor_layout(soc.big)

    def test_actuator_fault_layer_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        inject_actuator_fault(
            soc,
            "big",
            ActuatorFaultModel(kind="reject", start_s=0.0, end_s=1.0),
            seed=1,
        )
        with pytest.raises(PlatformError, match="fault layers"):
            fleet_sensor_layout(soc.big)

    def test_zero_noise_sensor_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        soc.big.power_sensor = NoisySensor(
            "big-power", noise_fraction=0.0
        )
        with pytest.raises(PlatformError, match="NoisySensor"):
            fleet_sensor_layout(soc.big)

    def test_subclassed_sensor_rejected(self):
        class WrappedSensor(NoisySensor):
            pass

        soc = ExynosSoC(config=SoCConfig(seed=1))
        soc.big.power_sensor = WrappedSensor(
            "big-power", noise_fraction=0.015
        )
        with pytest.raises(PlatformError, match="NoisySensor"):
            fleet_sensor_layout(soc.big)

    def test_fleet_platform_rejects_ineligible_config(self):
        with pytest.raises(PlatformError, match="8 cores"):
            FleetPlatform(
                seeds=[1, 2],
                config=SoCConfig(seed=1, cores_per_cluster=8),
            )


class TestSnapRegressions:
    """Pinned scalar/batched divergences found while building the kernel."""

    def test_scalar_snap_rejects_nan(self):
        # bisect (scalar) and searchsorted (batched) place NaN at
        # opposite ends of the table; both paths now raise instead.
        table = big_cluster_opps()
        with pytest.raises(ValueError, match="NaN"):
            table.snap(float("nan"))

    def test_snap_indices_rejects_nan(self):
        table = big_cluster_opps()
        with pytest.raises(ValueError, match="NaN"):
            table.snap_indices(np.array([1.0, float("nan")]))

    def test_single_point_table_snap_indices(self):
        table = OPPTable([OPP(1.0, 1.0)], name="single")
        idx = table.snap_indices(np.array([0.2, 1.0, 5.0]))
        assert np.array_equal(idx, np.zeros(3, dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(
        requested=st.one_of(
            st.floats(-1.0, 4.0, allow_nan=False),
            # Exact table points and midpoints, where tie-breaking and
            # clamp branches live.
            st.sampled_from(
                [0.2, 0.25, 1.0, 1.05, 1.1, 1.95, 2.0, 2.05, 1e-12, 0.0]
            ),
        )
    )
    def test_snap_indices_matches_scalar_snap(self, requested):
        table = big_cluster_opps()
        scalar = table.snap(requested)
        index = int(table.snap_indices(np.array([requested]))[0])
        assert table.points[index] is scalar


class TestHotplugRoundingRegression:
    """Batched hotplug must reproduce banker's rounding exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        requested=st.one_of(
            st.floats(-2.0, 8.0, allow_nan=False),
            # Half-integers: where round-half-to-even differs from
            # round-half-up.
            st.sampled_from([0.5, 1.5, 2.5, 3.5, 4.5, 5.5]),
        )
    )
    def test_apply_core_requests_matches_set_active_cores(self, requested):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        fleet = FleetPlatform(seeds=[1])
        scalar = soc.big.set_active_cores(float(requested))
        fleet.big.apply_core_requests(
            np.array([requested]), np.array([True])
        )
        assert float(fleet.big.active[0]) == float(scalar)

    def test_half_core_requests_round_to_even(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        assert soc.big.set_active_cores(2.5) == 2
        assert soc.big.set_active_cores(3.5) == 4
        fleet = FleetPlatform(seeds=[1, 2])
        fleet.big.apply_core_requests(
            np.array([2.5, 3.5]), np.array([True, True])
        )
        assert fleet.big.active.tolist() == [2.0, 4.0]


def _servo_pair(system, n_rows):
    """A batched servo and n_rows scalar servos over the same palette."""
    library = build_gain_library(system, integral_weight=0.08)
    palette = [library.get(QOS_GAINS), library.get(POWER_GAINS)]
    soc = ExynosSoC(config=SoCConfig(seed=1))
    limits = cluster_actuator_limits(soc.big)
    op = system.operating_point
    batched = BatchedLQGServo(palette, op, limits, n_rows)
    scalars = [
        LQGServoController(palette[0], op, limits) for _ in range(n_rows)
    ]
    return batched, scalars, palette


def _assert_state_equal(batched, scalar, row, tick):
    for name, got, want in (
        ("xhat", batched.X[row], scalar._xhat),
        ("z", batched.Z[row], scalar._z),
        ("du_prev", batched.DU[row], scalar._du_prev),
        ("u_prev", batched.U_prev[row], scalar._u_prev),
    ):
        assert np.array_equal(got, want), (name, row, tick)


class TestServoStateDifferential:
    """Internal estimator/integrator state must match bit-for-bit.

    Trace-level equivalence is too forgiving: a sub-ulp drift in the
    estimator state survives OPP snapping and core rounding for most
    seeds, so closed-loop runs can pass while the batched algebra is
    subtly wrong (a row-stacked [C; A] matvec did exactly that — the
    stacked dgemv blocks row reductions differently from the separate
    products).  These tests drive both servos with identical *random*
    measurements and compare every piece of internal state after each
    step, which fails loudly on any such drift.
    """

    @pytest.mark.parametrize("n_rows", [1, 5])
    @pytest.mark.parametrize("which", ["big", "little"])
    def test_uniform_rows_match_scalar_state_bitwise(
        self, which, n_rows, systems
    ):
        system = getattr(systems, which)
        batched, scalars, _ = _servo_pair(system, n_rows)
        op = system.operating_point
        reference = [float(op.y[0] * 1.1), float(op.y[1] * 0.9)]
        batched.set_reference(reference)
        for scalar in scalars:
            scalar.set_reference(reference)
        rng = np.random.default_rng(2018)
        for tick in range(120):
            measured = op.y + op.y_scale * rng.standard_normal((n_rows, 2))
            u_batch = batched.step(measured)
            for row, scalar in enumerate(scalars):
                u_scalar = scalar.step(measured[row])
                assert np.array_equal(u_batch[row], u_scalar), (row, tick)
                _assert_state_equal(batched, scalar, row, tick)

    @pytest.mark.parametrize("n_rows", [4, 13, 64])
    def test_mixed_gain_rows_match_scalar_state_bitwise(self, n_rows, systems):
        # Seeded random switches leave 8-lane blocks of the row space
        # holding both gain sets, and groups of every size mod 8, so
        # the fused kernel's grouped row order is exercised mid-block.
        batched, scalars, palette = _servo_pair(systems.big, n_rows)
        op = systems.big.operating_point
        numpy_steps = []
        if fused_kernel() is not None:
            assert batched.fused_enabled
            numpy_step = batched._step_numpy
            batched._step_numpy = lambda Y: numpy_steps.append(1) or numpy_step(Y)
        rng = np.random.default_rng(7)
        mixed_ticks = mixed_blocks = 0
        for tick in range(90):
            if tick >= 20 and tick % 7 == 0:
                rows = rng.choice(n_rows, rng.integers(1, n_rows), replace=False)
                new_id = int(rng.integers(len(palette)))
                batched.switch_rows(rows, new_id)
                for row in rows:
                    scalars[row].switch_gains(palette[new_id])
            ids = batched.gain_ids
            mixed_ticks += len(np.unique(ids)) > 1
            mixed_blocks += any(
                len(np.unique(ids[r : r + 8])) > 1 for r in range(0, n_rows, 8)
            )
            measured = op.y + op.y_scale * rng.standard_normal((n_rows, 2))
            u_batch = batched.step(measured)
            for row, scalar in enumerate(scalars):
                u_scalar = scalar.step(measured[row])
                assert np.array_equal(u_batch[row], u_scalar), (row, tick)
                _assert_state_equal(batched, scalar, row, tick)
        assert mixed_ticks > 0 and mixed_blocks > 0
        # With the kernel available every tick, mixed ones included,
        # ran compiled: the numpy gather/scatter path never ran.
        assert numpy_steps == []

    def test_fast_primitives_match_plain_matvec(self, systems):
        # Whichever fast paths the construction probe enabled, their
        # results must equal plain matvec on batch shapes (N >= 2).
        library = build_gain_library(systems.big, integral_weight=0.08)
        g = BatchedGainSet(library.get(QOS_GAINS))
        rng = np.random.default_rng(11)
        for matrix, enabled in (
            (g.DB, g.db_columns_exact),
            (g.L, g.l_columns_exact),
            (g.K_integral, g.ki_columns_exact),
            (g.K_integral_pinv, g.ki_pinv_columns_exact),
        ):
            if not enabled:
                continue
            X = rng.standard_normal((137, matrix.shape[1]))
            out = np.empty((137, matrix.shape[0]), order="F")
            got = _matvec_columns(matrix, X, out)
            assert np.array_equal(got, np.matvec(matrix, X))
