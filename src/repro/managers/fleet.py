"""Fleet resource managers: one batched control update for N devices.

Each class mirrors one scalar manager (``mm``, ``fs``, ``spectr``) on
top of :class:`~repro.control.batch.BatchedLQGServo` and a
:class:`~repro.platform.fleet.FleetPlatform`: per-row results are
bit-identical to running the scalar manager on N independent scalar
SoCs (``tests/platform/test_fleet_equivalence.py``).

The whole control path is vectorized, SPECTR's supervisory layer
included.  The verified supervisor is compiled once into a
:class:`~repro.core.supervisor.SupervisorTable`; every row's automaton
state, three-band abstraction counters and power references are
``(N,)`` arrays.  One invocation is a fixed sequence of array ops:
classify events, advance through the table, then per action slot pick
each row's first enabled action whose guard passes, execute it and
apply its effect as a masked write.  Gain switches go through
``switch_rows`` slot by slot.  Elementwise float64 ``+ * < >`` and
``where``-based ``max``/``min`` against Python-float constants equal
the scalar arithmetic bit for bit, so the scalar ``SPECTRManager``
stays the oracle row for row.
"""

from __future__ import annotations

import numpy as np

from repro.control.batch import BatchedLQGServo
from repro.control.lqg import ActuatorLimits
from repro.core.events import ThreeBandThresholds
from repro.core.supervisor import SupervisorTable
from repro.core.synthesis_flow import (
    VerifiedSupervisor,
    build_case_study_supervisor,
)
from repro.managers.base import ManagerGoals
from repro.managers.fs import FullSystemMIMO
from repro.managers.identification import IdentifiedSystem
from repro.managers.mimo import (
    POWER_GAINS,
    QOS_GAINS,
    ClusterMIMO,
    build_gain_library,
    cluster_actuator_limits,
)
from repro.managers.mm import (
    BIG_BUDGET_SHARE,
    LITTLE_BUDGET_SHARE,
    LITTLE_IPS_REFERENCE as MM_LITTLE_IPS_REFERENCE,
)
from repro.managers.spectr import (
    ACTION_PRIORITIES,
    BIG_POWER_FLOOR_W,
    CAPPING_TARGET_FRACTION,
    HARD_DROP_FACTOR,
    INITIAL_BIG_SHARE,
    INITIAL_LITTLE_SHARE,
    LITTLE_IPS_REFERENCE as SPECTR_LITTLE_IPS_REFERENCE,
    LITTLE_POWER_FLOOR_W,
    MAX_ACTIONS_PER_INVOCATION,
)
from repro.core.alphabet import (
    CONTROL_POWER,
    CRITICAL,
    DECREASE_BIG_POWER,
    DECREASE_CRITICAL_POWER,
    DECREASE_LITTLE_POWER,
    INCREASE_BIG_POWER,
    INCREASE_LITTLE_POWER,
    QOS_MET,
    QOS_NOT_MET,
    SAFE_POWER,
    SWITCH_GAINS,
    SWITCH_QOS,
)
from repro.platform.fleet import FleetPlatform, FleetTelemetry

__all__ = [
    "FLEET_GAIN_NAMES",
    "FleetDualMIMO",
    "FleetFullSystem",
    "FleetResourceManager",
    "FleetSPECTR",
    "fleet_mm_perf",
    "fleet_mm_pow",
]

# Gain-palette order shared by every fleet servo: id 0 = QoS-oriented,
# id 1 = power-oriented.  Trace rows map ids back through this tuple.
FLEET_GAIN_NAMES = (QOS_GAINS, POWER_GAINS)
_QOS_ID = FLEET_GAIN_NAMES.index(QOS_GAINS)
_POWER_ID = FLEET_GAIN_NAMES.index(POWER_GAINS)

# Deadbands are read off the scalar classes so the mirrors cannot drift.
_CLUSTER_DEADBAND = ClusterMIMO.hotplug_deadband
_FS_DEADBAND = FullSystemMIMO.hotplug_deadband


class FleetResourceManager:
    """Base: owns the actuators of one :class:`FleetPlatform`.

    Mirrors the goal-change channels of
    :class:`~repro.managers.base.ResourceManager`; there is no
    resilience pipeline on the batched path (faulted devices run the
    scalar oracle, see ``repro.exec.fleet_jobs``).
    """

    def __init__(
        self, platform: FleetPlatform, goals: ManagerGoals, *, name: str
    ) -> None:
        self.platform = platform
        self.goals = goals
        self.name = name

    def control(self, telemetry: FleetTelemetry) -> None:
        self._control(telemetry)

    def _control(self, telemetry: FleetTelemetry) -> None:
        raise NotImplementedError

    def set_qos_reference(self, qos_reference: float) -> None:
        self.goals = ManagerGoals(qos_reference, self.goals.power_budget_w)

    def set_power_budget(self, power_budget_w: float) -> None:
        self.goals = ManagerGoals(self.goals.qos_reference, power_budget_w)

    def gain_set_ids(self) -> np.ndarray:
        """Per-row active gain-set ids (indices into FLEET_GAIN_NAMES)."""
        raise NotImplementedError


def _cluster_servo(
    cluster, system: IdentifiedSystem, n_rows: int, *, initial: int, name: str
) -> BatchedLQGServo:
    """Batched mirror of ``ClusterMIMO.build`` (same library, limits)."""
    library = build_gain_library(system, integral_weight=0.08)
    return BatchedLQGServo(
        [library.get(QOS_GAINS), library.get(POWER_GAINS)],
        system.operating_point,
        cluster_actuator_limits(cluster),
        n_rows,
        initial=initial,
        name=name,
    )


def _apply_cluster_commands(cluster, u: np.ndarray, deadband: float) -> None:
    """Mirror of ``ClusterMIMO.step``'s actuation half.

    DVFS snaps every row; hotplug only fires for rows whose continuous
    core command left the deadband around the applied count (same
    ``abs(u - cores) >= deadband`` test as the scalar, row-wise).
    """
    cluster.set_frequency(u[:, 0])
    mask = np.abs(u[:, 1] - cluster.active) >= deadband
    cluster.apply_core_requests(u[:, 1], mask)


# ----------------------------------------------------------------------
# MM-Pow / MM-Perf
# ----------------------------------------------------------------------
class FleetDualMIMO(FleetResourceManager):
    """Batched ``UncoordinatedDualMIMO``: fixed gains, fixed shares."""

    def __init__(
        self,
        platform: FleetPlatform,
        goals: ManagerGoals,
        *,
        big_system: IdentifiedSystem,
        little_system: IdentifiedSystem,
        gain_set: str,
        name: str,
    ) -> None:
        super().__init__(platform, goals, name=name)
        self.gain_set = gain_set
        gain_id = FLEET_GAIN_NAMES.index(gain_set)
        n = platform.n_devices
        self._gain_ids = np.full(n, gain_id, dtype=np.int8)
        self.big_servo = _cluster_servo(
            platform.big, big_system, n, initial=gain_id, name="big-mimo"
        )
        self.little_servo = _cluster_servo(
            platform.little,
            little_system,
            n,
            initial=gain_id,
            name="little-mimo",
        )
        # Measurement staging buffers: column writes produce the same
        # (N, 2) values as np.stack(..., axis=1) without per-tick
        # allocation.
        self._y_big = np.empty((n, 2), dtype=float)
        self._y_little = np.empty((n, 2), dtype=float)

    def _control(self, telemetry: FleetTelemetry) -> None:
        big_power_ref = BIG_BUDGET_SHARE * self.goals.power_budget_w
        little_power_ref = LITTLE_BUDGET_SHARE * self.goals.power_budget_w
        self.big_servo.set_reference(
            [self.goals.qos_reference, big_power_ref]
        )
        self.little_servo.set_reference(
            [MM_LITTLE_IPS_REFERENCE, little_power_ref]
        )
        y_big = self._y_big
        y_big[:, 0] = telemetry.qos_rate
        y_big[:, 1] = telemetry.big.power_w
        u_big = self.big_servo.step(y_big)
        _apply_cluster_commands(self.platform.big, u_big, _CLUSTER_DEADBAND)
        y_little = self._y_little
        y_little[:, 0] = telemetry.little.ips
        y_little[:, 1] = telemetry.little.power_w
        u_little = self.little_servo.step(y_little)
        _apply_cluster_commands(
            self.platform.little, u_little, _CLUSTER_DEADBAND
        )

    def gain_set_ids(self) -> np.ndarray:
        return self._gain_ids


def fleet_mm_pow(
    platform: FleetPlatform,
    goals: ManagerGoals,
    *,
    big_system: IdentifiedSystem,
    little_system: IdentifiedSystem,
) -> FleetDualMIMO:
    """Batched MM-Pow."""
    return FleetDualMIMO(
        platform,
        goals,
        big_system=big_system,
        little_system=little_system,
        gain_set=POWER_GAINS,
        name="MM-Pow",
    )


def fleet_mm_perf(
    platform: FleetPlatform,
    goals: ManagerGoals,
    *,
    big_system: IdentifiedSystem,
    little_system: IdentifiedSystem,
) -> FleetDualMIMO:
    """Batched MM-Perf."""
    return FleetDualMIMO(
        platform,
        goals,
        big_system=big_system,
        little_system=little_system,
        gain_set=QOS_GAINS,
        name="MM-Perf",
    )


# ----------------------------------------------------------------------
# FS
# ----------------------------------------------------------------------
class FleetFullSystem(FleetResourceManager):
    """Batched ``FullSystemMIMO``: one 4x2 servo across the fleet."""

    def __init__(
        self,
        platform: FleetPlatform,
        goals: ManagerGoals,
        *,
        system: IdentifiedSystem,
        integral_weight: float = 0.05,
    ) -> None:
        super().__init__(platform, goals, name="FS")
        if system.model.n_inputs != 4 or system.model.n_outputs != 2:
            raise ValueError("FS requires a 4-input 2-output model")
        library = build_gain_library(
            system,
            qos_outputs=(0,),
            power_outputs=(1,),
            integral_weight=integral_weight,
        )
        big = platform.big
        little = platform.little
        limits = ActuatorLimits(
            lower=[
                big.opps.min_frequency,
                1.0,
                little.opps.min_frequency,
                1.0,
            ],
            upper=[
                big.opps.max_frequency,
                float(big.n_cores),
                little.opps.max_frequency,
                float(little.n_cores),
            ],
            max_step=[0.3, 1.0, 0.3, 1.0],
        )
        n = platform.n_devices
        self._gain_ids = np.full(n, _POWER_ID, dtype=np.int8)
        self.controller = BatchedLQGServo(
            [library.get(QOS_GAINS), library.get(POWER_GAINS)],
            system.operating_point,
            limits,
            n,
            initial=_POWER_ID,
            name="fs-4x2",
        )
        self._y = np.empty((n, 2), dtype=float)

    def _control(self, telemetry: FleetTelemetry) -> None:
        self.controller.set_reference(
            [self.goals.qos_reference, self.goals.power_budget_w]
        )
        y = self._y
        y[:, 0] = telemetry.qos_rate
        y[:, 1] = telemetry.chip_power_w
        u = self.controller.step(y)
        big = self.platform.big
        little = self.platform.little
        big.set_frequency(u[:, 0])
        big_mask = np.abs(u[:, 1] - big.active) >= _FS_DEADBAND
        big.apply_core_requests(u[:, 1], big_mask)
        little.set_frequency(u[:, 2])
        little_mask = np.abs(u[:, 3] - little.active) >= _FS_DEADBAND
        little.apply_core_requests(u[:, 3], little_mask)

    def gain_set_ids(self) -> np.ndarray:
        return self._gain_ids


# ----------------------------------------------------------------------
# SPECTR
# ----------------------------------------------------------------------
def _py_max(a, b):
    """Elementwise Python ``max(a, b)``: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def _py_min(a, b):
    """Elementwise Python ``min(a, b)``: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


class FleetSPECTR(FleetResourceManager):
    """Batched SPECTR: one compiled supervisor table over two batched
    2x2 servos.

    Every row walks its own copy of the verified automaton; the
    per-row supervisor state, three-band abstraction counters and power
    references are ``(N,)`` arrays, and each invocation is a fixed
    sequence of whole-fleet array ops mirroring ``SPECTRManager``.
    """

    def __init__(
        self,
        platform: FleetPlatform,
        goals: ManagerGoals,
        *,
        big_system: IdentifiedSystem,
        little_system: IdentifiedSystem,
        verified_supervisor: VerifiedSupervisor | None = None,
        supervisor_period_epochs: int = 2,
        thresholds: ThreeBandThresholds | None = None,
        enable_gain_scheduling: bool = True,
        enable_reference_regulation: bool = True,
        name: str = "SPECTR",
    ) -> None:
        super().__init__(platform, goals, name=name)
        if supervisor_period_epochs < 1:
            raise ValueError("supervisor_period_epochs must be >= 1")
        self.enable_gain_scheduling = enable_gain_scheduling
        self.enable_reference_regulation = enable_reference_regulation
        self.supervisor_period_epochs = supervisor_period_epochs
        self.thresholds = thresholds or ThreeBandThresholds()
        n = platform.n_devices  # repro: shape[int[N]]
        self.big_servo = _cluster_servo(
            platform.big, big_system, n, initial=_QOS_ID, name="big-mimo"
        )
        self.little_servo = _cluster_servo(
            platform.little,
            little_system,
            n,
            initial=_QOS_ID,
            name="little-mimo",
        )
        self.verified = verified_supervisor or build_case_study_supervisor()
        table = SupervisorTable(self.verified.supervisor, ACTION_PRIORITIES)
        self.table = table
        # (time_s, row, cluster, gain set) per switch, row-wise in the
        # order the scalar manager's gain log records them.
        self.gain_events: list[tuple[float, int, str, str]] = []
        # Per-row supervisor state and EventAbstractor counters.
        self.supervisor_state = np.full(n, table.initial, dtype=np.int64)  # repro: shape[(N,) i8]
        self.capping = np.zeros(n, dtype=bool)  # repro: shape[(N,) b1]
        self._since_critical = np.zeros(n, dtype=np.int64)  # repro: shape[(N,) i8]
        self._over_cap_streak = np.zeros(n, dtype=np.int64)  # repro: shape[(N,) i8]
        self._below_uncapping = np.zeros(n, dtype=np.int64)  # repro: shape[(N,) i8]
        self.big_power_ref_w = np.full(  # repro: shape[(N,) f8]
            n, INITIAL_BIG_SHARE * goals.power_budget_w
        )
        self.little_power_ref_w = np.full(  # repro: shape[(N,) f8]
            n,
            max(
                LITTLE_POWER_FLOOR_W,
                INITIAL_LITTLE_SHARE * goals.power_budget_w,
            ),
        )
        n_actions = table.idle  # repro: shape[int[A]]
        self._guards = np.ones((n, n_actions + 1), dtype=bool)  # repro: shape[(N, A+1) b1]
        self._choice = np.empty(n, dtype=np.int64)  # repro: shape[(N,) i8]
        self._y_big = np.empty((n, 2), dtype=float)
        self._y_little = np.empty((n, 2), dtype=float)
        column = table.event_column
        self._critical = column(CRITICAL)
        self._safe_power = column(SAFE_POWER)
        self._qos_met = column(QOS_MET)
        self._qos_not_met = column(QOS_NOT_MET)
        action = table.actions.index
        self._guard_columns = (
            action(DECREASE_BIG_POWER),
            action(INCREASE_BIG_POWER),
            action(DECREASE_LITTLE_POWER),
            action(INCREASE_LITTLE_POWER),
        )
        self._effects = [_EFFECTS[name] for name in table.actions]
        self._tick = 0
        self._refs_dirty = True
        self._written_qos_reference: float | None = None

    # -- control -------------------------------------------------------
    def _control(self, telemetry: FleetTelemetry) -> None:
        if self._tick % self.supervisor_period_epochs == 0:
            self._supervise(telemetry)
        self._refresh_references()
        y_big = self._y_big
        y_big[:, 0] = telemetry.qos_rate
        y_big[:, 1] = telemetry.big.power_w
        u_big = self.big_servo.step(y_big)
        _apply_cluster_commands(self.platform.big, u_big, _CLUSTER_DEADBAND)
        y_little = self._y_little
        y_little[:, 0] = telemetry.little.ips
        y_little[:, 1] = telemetry.little.power_w
        u_little = self.little_servo.step(y_little)
        _apply_cluster_commands(
            self.platform.little, u_little, _CLUSTER_DEADBAND
        )
        self._tick += 1

    def _supervise(self, telemetry: FleetTelemetry) -> None:
        """One invocation on every row: ``EventAbstractor.classify``
        then ``SupervisorEngine.invoke`` with SPECTR's priority policy.

        Each action slot picks, per row, the first enabled action whose
        guard passes, executes it and applies its effect before the
        next slot re-evaluates the guards, as the scalar engine does.
        A row left idle by one slot stays idle in the next (its state
        and everything its guards read are unchanged), which is where
        the engine stops.
        """
        goals = self.goals
        th = self.thresholds
        table = self.table
        state = self.supervisor_state
        chip = telemetry.chip_power_w
        over_cap = chip > th.capping_fraction * goals.power_budget_w
        below = chip < th.uncapping_fraction * goals.power_budget_w
        below_count = self._below_uncapping
        below_count += 1
        below_count *= below
        streak = self._over_cap_streak
        streak += 1
        streak *= over_cap
        since = self._since_critical
        since += 1
        capping = self.capping
        opened = over_cap & ~capping
        escalated = (
            capping & (since >= th.escalation_grace) & (streak >= 2)
        )
        closed = capping & ~escalated & (below_count >= th.uncapping_dwell)
        critical = opened | escalated
        since *= ~critical
        capping |= opened
        capping &= ~closed
        table.observe(
            state,
            np.where(
                critical,
                self._critical,
                np.where(closed, self._safe_power, table.no_event),
            ),
        )
        qos_met = telemetry.qos_rate >= th.qos_tolerance * goals.qos_reference
        table.observe(
            state, np.where(qos_met, self._qos_met, self._qos_not_met)
        )
        for _ in range(MAX_ACTIONS_PER_INVOCATION):
            self._evaluate_guards(telemetry)
            choice = table.select(state, self._guards, self._choice)
            table.execute(state, choice)
            fired = np.bincount(choice, minlength=table.idle + 1)
            for j in np.flatnonzero(fired[: table.idle]).tolist():
                self._effects[j](self, np.flatnonzero(choice == j), telemetry)

    # -- budget arithmetic (SPECTRManager's, on rows) ------------------
    def _capping_allocations(self, rows: np.ndarray):
        budget_w = self.goals.power_budget_w
        little = _py_min(
            _py_max(LITTLE_POWER_FLOOR_W, self.little_power_ref_w[rows]),
            0.15 * budget_w,
        )
        big = _py_max(
            BIG_POWER_FLOOR_W, CAPPING_TARGET_FRACTION * budget_w - little
        )
        return big, little

    def _big_headroom_cap(self, rows=slice(None)) -> np.ndarray:
        return self.goals.power_budget_w - _py_max(
            LITTLE_POWER_FLOOR_W, self.little_power_ref_w[rows]
        )

    # -- guards (SPECTRManager's, as one mask column each) -------------
    def _evaluate_guards(self, telemetry: FleetTelemetry) -> None:
        big_ref = self.big_power_ref_w
        little_ref = self.little_power_ref_w
        ips = telemetry.little.ips
        guards = self._guards
        guards.fill(True)
        dec_big, inc_big, dec_little, inc_little = self._guard_columns
        np.logical_and(
            big_ref > telemetry.big.power_w + 0.15,
            big_ref > BIG_POWER_FLOOR_W,
            out=guards[:, dec_big],
        )
        np.less(big_ref, self._big_headroom_cap() - 0.05, out=guards[:, inc_big])
        np.logical_and(
            ips < 0.1,
            little_ref > LITTLE_POWER_FLOOR_W + 0.02,
            out=guards[:, dec_little],
        )
        np.logical_and(
            ips > 0.3,
            little_ref < 0.15 * self.goals.power_budget_w - 0.02,
            out=guards[:, inc_little],
        )

    # -- effects (SPECTRManager's, as masked writes on ``rows``) -------
    def _switch(self, rows: np.ndarray, gain_id: int, time_s: float) -> None:
        """``ClusterMIMO.switch_gains`` on both clusters of ``rows``."""
        gains = FLEET_GAIN_NAMES[gain_id]
        for key, servo in (("big", self.big_servo), ("little", self.little_servo)):
            moved = rows[servo.gain_ids[rows] != gain_id]
            if moved.size:
                servo.switch_rows(moved, gain_id)
                self.gain_events.extend(
                    (time_s, row, key, gains) for row in moved.tolist()
                )

    def _effect_switch_power_gains(self, rows, telemetry) -> None:
        if self.enable_gain_scheduling:
            self._switch(rows, _POWER_ID, telemetry.time_s)

    def _effect_switch_qos_gains(self, rows, telemetry) -> None:
        if self.enable_gain_scheduling:
            self._switch(rows, _QOS_ID, telemetry.time_s)
        if self.enable_reference_regulation:
            budget_w = self.goals.power_budget_w
            self.big_power_ref_w[rows] = INITIAL_BIG_SHARE * budget_w
            self.little_power_ref_w[rows] = max(
                LITTLE_POWER_FLOOR_W, INITIAL_LITTLE_SHARE * budget_w
            )
            self._refs_dirty = True

    def _effect_control_power(self, rows, telemetry) -> None:
        if self.enable_reference_regulation:
            big, little = self._capping_allocations(rows)
            self.big_power_ref_w[rows] = big
            self.little_power_ref_w[rows] = little
            self._refs_dirty = True

    def _effect_decrease_critical(self, rows, telemetry) -> None:
        if self.enable_reference_regulation:
            big, little = self._capping_allocations(rows)
            self.big_power_ref_w[rows] = _py_max(
                BIG_POWER_FLOOR_W, HARD_DROP_FACTOR * big
            )
            self.little_power_ref_w[rows] = _py_max(
                LITTLE_POWER_FLOOR_W, HARD_DROP_FACTOR * little
            )
            self._refs_dirty = True

    def _effect_decrease_big(self, rows, telemetry) -> None:
        if self.enable_reference_regulation:
            self.big_power_ref_w[rows] = _py_max(
                BIG_POWER_FLOOR_W, telemetry.big.power_w[rows] + 0.10
            )
            self._refs_dirty = True

    def _effect_increase_big(self, rows, telemetry) -> None:
        if self.enable_reference_regulation:
            self.big_power_ref_w[rows] = _py_min(
                self._big_headroom_cap(rows), self.big_power_ref_w[rows] + 0.30
            )
            self._refs_dirty = True

    def _effect_decrease_little(self, rows, telemetry) -> None:
        if self.enable_reference_regulation:
            self.little_power_ref_w[rows] = _py_max(
                LITTLE_POWER_FLOOR_W, telemetry.little.power_w[rows] + 0.05
            )
            self._refs_dirty = True

    def _effect_increase_little(self, rows, telemetry) -> None:
        if self.enable_reference_regulation:
            self.little_power_ref_w[rows] = _py_min(
                0.15 * self.goals.power_budget_w,
                self.little_power_ref_w[rows] + 0.10,
            )
            self._refs_dirty = True

    def _refresh_references(self) -> None:
        qos_reference = self.goals.qos_reference
        if (
            not self._refs_dirty
            and qos_reference == self._written_qos_reference
        ):
            return
        big_refs = self.big_servo.references
        big_refs[:, 0] = qos_reference
        big_refs[:, 1] = self.big_power_ref_w
        self.big_servo.refresh_references()
        little_refs = self.little_servo.references
        little_refs[:, 0] = SPECTR_LITTLE_IPS_REFERENCE
        little_refs[:, 1] = self.little_power_ref_w
        self.little_servo.refresh_references()
        self._refs_dirty = False
        self._written_qos_reference = qos_reference

    def gain_set_ids(self) -> np.ndarray:
        # The scalar actuation record reports the Big MIMO's active set.
        return self.big_servo.gain_ids


# Action effects as plain functions, called with the manager: bound
# methods stored on the instance would make every manager a reference
# cycle that only the cyclic collector frees, with its platform and
# trace arrays.
_EFFECTS = {
    SWITCH_GAINS: FleetSPECTR._effect_switch_power_gains,
    SWITCH_QOS: FleetSPECTR._effect_switch_qos_gains,
    CONTROL_POWER: FleetSPECTR._effect_control_power,
    DECREASE_CRITICAL_POWER: FleetSPECTR._effect_decrease_critical,
    DECREASE_BIG_POWER: FleetSPECTR._effect_decrease_big,
    INCREASE_BIG_POWER: FleetSPECTR._effect_increase_big,
    DECREASE_LITTLE_POWER: FleetSPECTR._effect_decrease_little,
    INCREASE_LITTLE_POWER: FleetSPECTR._effect_increase_little,
}
