"""SPECTR: the supervisory resource manager (Section 4).

Architecture (Figure 9/10): two per-cluster 2x2 LQG MIMOs (leaf
controllers) under a formally synthesized and verified supervisory
controller.  Every second control interval (100 ms vs. the MIMOs'
50 ms) the supervisor:

1. abstracts telemetry into DES events (``critical``, ``safePower``,
   ``QoSmet``, ``QoSnotMet``) via the three-band power algorithm;
2. advances the verified supervisor automaton on those observations;
3. executes the highest-priority *enabled* controllable actions whose
   guards pass — gain scheduling (``SwitchGains`` / ``switchQoS``) and
   reference regulation (raising/trimming each cluster's power budget).

Because actions are drawn only from the supervisor's enabled set, the
runtime inherits the synthesis guarantees: budgets are never raised
during a capping episode, and a second consecutive over-budget interval
forces the hard power drop.
"""

from __future__ import annotations

from repro.control.gains import GainScheduleLog
from repro.core.alphabet import (
    CONTROL_POWER,
    DECREASE_BIG_POWER,
    DECREASE_CRITICAL_POWER,
    DECREASE_LITTLE_POWER,
    INCREASE_BIG_POWER,
    INCREASE_LITTLE_POWER,
    SWITCH_GAINS,
    SWITCH_QOS,
)
from repro.core.events import EventAbstractor, ThreeBandThresholds
from repro.core.supervisor import PriorityPolicy, SupervisorEngine
from repro.core.synthesis_flow import VerifiedSupervisor, build_case_study_supervisor
from repro.managers.base import ManagerGoals, ResourceManager
from repro.managers.identification import IdentifiedSystem
from repro.managers.mimo import POWER_GAINS, QOS_GAINS, ClusterMIMO
from repro.platform.soc import ExynosSoC, Telemetry

# Reference-regulation constants (fractions of the chip budget).
INITIAL_BIG_SHARE = 0.80
INITIAL_LITTLE_SHARE = 0.06
CAPPING_TARGET_FRACTION = 0.96  # middle of the three-band target region
HARD_DROP_FACTOR = 0.85  # decreaseCriticalPower's cut below the target
BIG_POWER_FLOOR_W = 0.6
LITTLE_POWER_FLOOR_W = 0.10
LITTLE_IPS_REFERENCE = 1.5  # generous: serve background work freely
MAX_ACTIONS_PER_INVOCATION = 2

ACTION_PRIORITIES = (
    SWITCH_GAINS,
    SWITCH_QOS,
    CONTROL_POWER,
    DECREASE_CRITICAL_POWER,
    INCREASE_BIG_POWER,
    INCREASE_LITTLE_POWER,
    DECREASE_BIG_POWER,
    DECREASE_LITTLE_POWER,
)


class SPECTRManager(ResourceManager):
    """Supervisor + gain-scheduled per-cluster MIMOs."""

    def __init__(
        self,
        soc: ExynosSoC,
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
        """Create the manager.

        ``enable_gain_scheduling`` / ``enable_reference_regulation``
        exist for ablation studies: with one disabled, the supervisor
        still walks its verified automaton but the corresponding class
        of actions has no effect on the leaf controllers — isolating
        each mechanism's contribution (see
        :mod:`repro.experiments.ablations`).
        """
        super().__init__(soc, goals, name=name)
        if supervisor_period_epochs < 1:
            raise ValueError("supervisor_period_epochs must be >= 1")
        self.enable_gain_scheduling = enable_gain_scheduling
        self.enable_reference_regulation = enable_reference_regulation
        self.big_mimo = ClusterMIMO.build(
            soc.big, big_system, initial_gains=QOS_GAINS
        )
        self.little_mimo = ClusterMIMO.build(
            soc.little, little_system, initial_gains=QOS_GAINS
        )
        self.verified = verified_supervisor or build_case_study_supervisor()
        self.engine = SupervisorEngine(
            self.verified.supervisor, record_trace=True
        )
        self.abstractor = EventAbstractor(thresholds)
        self.supervisor_period_epochs = supervisor_period_epochs
        self.gain_log = GainScheduleLog()
        self.big_power_ref_w = INITIAL_BIG_SHARE * goals.power_budget_w
        self.little_power_ref_w = max(
            LITTLE_POWER_FLOOR_W, INITIAL_LITTLE_SHARE * goals.power_budget_w
        )
        self._tick = 0
        self._telemetry: Telemetry | None = None
        self._policy = PriorityPolicy(
            priorities=ACTION_PRIORITIES,
            guards={
                DECREASE_BIG_POWER: self._guard_decrease_big,
                INCREASE_BIG_POWER: self._guard_increase_big,
                DECREASE_LITTLE_POWER: self._guard_decrease_little,
                INCREASE_LITTLE_POWER: self._guard_increase_little,
            },
            max_actions_per_invocation=MAX_ACTIONS_PER_INVOCATION,
        )
        self._effects = {
            SWITCH_GAINS: self._effect_switch_power_gains,
            SWITCH_QOS: self._effect_switch_qos_gains,
            CONTROL_POWER: self._effect_control_power,
            DECREASE_CRITICAL_POWER: self._effect_decrease_critical,
            DECREASE_BIG_POWER: self._effect_decrease_big,
            INCREASE_BIG_POWER: self._effect_increase_big,
            DECREASE_LITTLE_POWER: self._effect_decrease_little,
            INCREASE_LITTLE_POWER: self._effect_increase_little,
        }

    # ------------------------------------------------------------------
    # ResourceManager interface
    # ------------------------------------------------------------------
    def _on_proxy_attached(self, cluster_name: str, proxy) -> None:
        for mimo in (self.big_mimo, self.little_mimo):
            if mimo.cluster.name == cluster_name:
                mimo.cluster = proxy

    def observer_estimates(self) -> dict[str, float]:
        big_y = self.big_mimo.controller.predicted_outputs()
        little_y = self.little_mimo.controller.predicted_outputs()
        return {
            "qos": float(big_y[0]),
            "big_power": float(big_y[1]),
            "little_power": float(little_y[1]),
        }

    def _control(self, telemetry: Telemetry) -> None:
        self._telemetry = telemetry
        if self._tick % self.supervisor_period_epochs == 0:
            self._supervise(telemetry)
        self.big_mimo.set_references(
            self.goals.qos_reference, self.big_power_ref_w
        )
        self.little_mimo.set_references(
            LITTLE_IPS_REFERENCE, self.little_power_ref_w
        )
        self.big_mimo.step(telemetry.qos_rate, telemetry.big.power_w)
        self.little_mimo.step(telemetry.little.ips, telemetry.little.power_w)
        self.record_actuation(
            telemetry.time_s,
            big_power_ref_w=self.big_power_ref_w,
            little_power_ref_w=self.little_power_ref_w,
            gain_set=self.big_mimo.active_gains,
        )
        self._tick += 1

    # ------------------------------------------------------------------
    # supervisor invocation
    # ------------------------------------------------------------------
    def _supervise(self, telemetry: Telemetry) -> None:
        events = self.abstractor.classify(
            telemetry,
            qos_reference=self.goals.qos_reference,
            power_budget_w=self.goals.power_budget_w,
        )
        self.engine.invoke(
            events,
            self._policy,
            time_s=telemetry.time_s,
            effects=self._effects,
        )

    # ------------------------------------------------------------------
    # budget arithmetic helpers
    # ------------------------------------------------------------------
    def _capping_allocations(self) -> tuple[float, float]:
        """Cluster budgets that keep the chip at the capping target."""
        target = CAPPING_TARGET_FRACTION * self.goals.power_budget_w
        little = min(
            max(LITTLE_POWER_FLOOR_W, self.little_power_ref_w),
            0.15 * self.goals.power_budget_w,
        )
        big = max(BIG_POWER_FLOOR_W, target - little)
        return big, little

    def _big_headroom_cap(self) -> float:
        return (
            self.goals.power_budget_w
            - max(LITTLE_POWER_FLOOR_W, self.little_power_ref_w)
        )

    # ------------------------------------------------------------------
    # action guards (numeric opportunity checks on top of the formal
    # enabled set)
    # ------------------------------------------------------------------
    def _guard_decrease_big(self) -> bool:
        t = self._telemetry
        return (
            t is not None
            and self.big_power_ref_w > t.big.power_w + 0.15
            and self.big_power_ref_w > BIG_POWER_FLOOR_W
        )

    def _guard_increase_big(self) -> bool:
        return self.big_power_ref_w < self._big_headroom_cap() - 0.05

    def _guard_decrease_little(self) -> bool:
        t = self._telemetry
        return (
            t is not None
            and t.little.ips < 0.1
            and self.little_power_ref_w > LITTLE_POWER_FLOOR_W + 0.02
        )

    def _guard_increase_little(self) -> bool:
        t = self._telemetry
        return (
            t is not None
            and t.little.ips > 0.3
            and self.little_power_ref_w
            < 0.15 * self.goals.power_budget_w - 0.02
        )

    # ------------------------------------------------------------------
    # action effects (Com_hi_lo commands to the leaf controllers)
    # ------------------------------------------------------------------
    def _effect_switch_power_gains(self) -> None:
        if not self.enable_gain_scheduling:
            return
        now = self._telemetry.time_s if self._telemetry else 0.0
        if self.big_mimo.switch_gains(POWER_GAINS):
            self.gain_log.record(now, "big", POWER_GAINS)
        if self.little_mimo.switch_gains(POWER_GAINS):
            self.gain_log.record(now, "little", POWER_GAINS)

    def _effect_switch_qos_gains(self) -> None:
        if self.enable_gain_scheduling:
            now = self._telemetry.time_s if self._telemetry else 0.0
            if self.big_mimo.switch_gains(QOS_GAINS):
                self.gain_log.record(now, "big", QOS_GAINS)
            if self.little_mimo.switch_gains(QOS_GAINS):
                self.gain_log.record(now, "little", QOS_GAINS)
        if self.enable_reference_regulation:
            # Restore nominal allocations for the QoS-driven regime.
            self.big_power_ref_w = (
                INITIAL_BIG_SHARE * self.goals.power_budget_w
            )
            self.little_power_ref_w = max(
                LITTLE_POWER_FLOOR_W,
                INITIAL_LITTLE_SHARE * self.goals.power_budget_w,
            )

    def _effect_control_power(self) -> None:
        if not self.enable_reference_regulation:
            return
        self.big_power_ref_w, self.little_power_ref_w = (
            self._capping_allocations()
        )

    def _effect_decrease_critical(self) -> None:
        if not self.enable_reference_regulation:
            return
        big, little = self._capping_allocations()
        self.big_power_ref_w = max(
            BIG_POWER_FLOOR_W, HARD_DROP_FACTOR * big
        )
        self.little_power_ref_w = max(
            LITTLE_POWER_FLOOR_W, HARD_DROP_FACTOR * little
        )

    def _effect_decrease_big(self) -> None:
        t = self._telemetry
        if t is None or not self.enable_reference_regulation:
            return
        self.big_power_ref_w = max(
            BIG_POWER_FLOOR_W, t.big.power_w + 0.10
        )

    def _effect_increase_big(self) -> None:
        if not self.enable_reference_regulation:
            return
        self.big_power_ref_w = min(
            self._big_headroom_cap(), self.big_power_ref_w + 0.30
        )

    def _effect_decrease_little(self) -> None:
        t = self._telemetry
        if t is None or not self.enable_reference_regulation:
            return
        self.little_power_ref_w = max(
            LITTLE_POWER_FLOOR_W, t.little.power_w + 0.05
        )

    def _effect_increase_little(self) -> None:
        if not self.enable_reference_regulation:
            return
        self.little_power_ref_w = min(
            0.15 * self.goals.power_budget_w, self.little_power_ref_w + 0.10
        )
