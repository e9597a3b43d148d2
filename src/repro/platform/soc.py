"""The simulated big.LITTLE SoC.

Assembles OPP tables, power/performance models, sensors and the HMP
scheduler into a discrete-time plant with exactly the sensor/actuator
surface the paper's resource managers see on the ODROID-XU3:

* per-cluster actuators: DVFS frequency (snapped to the OPP table) and
  active core count (hotplug);
* optional per-core idle-cycle-insertion actuators (used only by the
  large-MIMO scalability experiments of Figures 4/5/15);
* per-cluster power sensors, per-core PMU rate counters, and a
  Heartbeats-based QoS reading for the foreground application.

The simulation step is the 50 ms control interval of the paper's
userspace daemon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.platform.opp import OPPTable, big_cluster_opps, little_cluster_opps
from repro.platform.perf import (
    ClusterPerfModel,
    big_cluster_perf_model,
    little_cluster_perf_model,
)
from repro.platform.power import (
    PowerModel,
    big_cluster_power_model,
    little_cluster_power_model,
)
from repro.platform.scheduler import ClusterCapacity, HMPScheduler, fair_share
from repro.platform.sensors import (
    NoisySensor,
    batched_noise_eligible,
    pmu_counter,
    power_sensor,
)
from repro.workloads.base import BackgroundTask, QoSWorkload
from repro.workloads.heartbeats import HeartbeatMonitor


class PlatformError(RuntimeError):
    """Raised on invalid actuation or configuration."""


class Cluster:
    """One homogeneous core cluster with its actuators and sensors."""

    def __init__(
        self,
        name: str,
        *,
        n_cores: int,
        opps: OPPTable,
        power_model: PowerModel,
        perf_model: ClusterPerfModel,
    ) -> None:
        if n_cores < 1:
            raise PlatformError("cluster needs at least one core")
        self.name = name
        self.n_cores = n_cores
        self.opps = opps
        self.power_model = power_model
        self.perf_model = perf_model
        self._frequency_ghz = opps.max_frequency
        self._voltage_v = opps.snap(self._frequency_ghz).voltage_v
        self._active_cores = n_cores
        self._idle_fractions = np.zeros(n_cores, dtype=float)
        # Count of cores with nonzero idle insertion; lets the hot path
        # skip the idle-weighting array math in the common all-busy case.
        self._idle_cores = 0
        self.power_sensor: NoisySensor = power_sensor(name)
        self.pmu_sensors: list[NoisySensor] = [
            pmu_counter(f"{name}-core{i}") for i in range(n_cores)
        ]
        # Optional fault-injection layer consulted by the actuators
        # (set by repro.platform.faults.inject_actuator_fault).
        self.actuator_faults = None
        # Identity-keyed cache of bound ``set_time`` methods; rebuilt
        # when fault injection swaps an instrument (see clock_setters).
        self._clock_setter_key: tuple | None = None
        self._clock_setters: tuple = ()

    # ------------------------------ actuators -------------------------
    @property
    def frequency_ghz(self) -> float:
        return self._frequency_ghz

    def set_frequency(self, frequency_ghz: float) -> float:
        """DVFS request; snaps to the nearest OPP and returns it.

        When a fault-injection layer is attached, the request passes
        through it first (it may be rejected, clamped, applied
        partially, or delayed); the value that survives is snapped to
        the OPP table like any governor write.
        """
        opp = self.opps.snap(frequency_ghz)
        if self.actuator_faults is not None:
            target_ghz = self.actuator_faults.filter_frequency(
                self._frequency_ghz, opp.frequency_ghz
            )
            opp = self.opps.snap(target_ghz)
        self._frequency_ghz = opp.frequency_ghz
        self._voltage_v = opp.voltage_v
        return opp.frequency_ghz

    @property
    def voltage_v(self) -> float:
        # Cached alongside the frequency by set_frequency, so telemetry
        # never re-bisects the OPP table.
        return self._voltage_v

    @property
    def active_cores(self) -> int:
        return self._active_cores

    def set_active_cores(self, count: float) -> int:
        """Hotplug request; rounds and clamps to [1, n_cores].

        Rounding is Python's built-in round-half-to-even ("banker's
        rounding"): a request of 2.5 cores plugs **2**, while 3.5 plugs
        4.  This is pinned as the intended actuator semantics
        (``tests/platform/test_soc.py::TestHotplugRounding``): it is
        the behaviour the golden traces were generated with, it avoids
        a systematic upward hotplug bias when a continuous controller
        dithers around ``.5`` requests, and ``ActuatorProxy`` applies
        the same rounding so proxied and direct actuation agree.

        A request dropped by an attached fault-injection layer leaves
        the active count unchanged (silent hotplug failure).
        """
        if (
            self.actuator_faults is not None
            and not self.actuator_faults.allow_hotplug()
        ):
            return self._active_cores
        snapped = int(round(float(count)))
        snapped = max(1, min(self.n_cores, snapped))
        self._active_cores = snapped
        return snapped

    @property
    def idle_fractions(self) -> np.ndarray:
        return self._idle_fractions.copy()

    def set_idle_fraction(self, core: int, fraction: float) -> None:
        """Per-core idle-cycle insertion (Figure 4's per-core actuator)."""
        if not 0 <= core < self.n_cores:
            raise PlatformError(f"core index {core} out of range")
        clipped = float(fraction)
        if clipped < 0.0:
            clipped = 0.0
        elif clipped > 0.95:
            clipped = 0.95
        was_idle = self._idle_fractions[core] > 0.0
        self._idle_fractions[core] = clipped
        if (clipped > 0.0) != was_idle:
            self._idle_cores += 1 if clipped > 0.0 else -1

    # ------------------------------ derived ---------------------------
    def effective_capacity(self) -> float:
        """Core-equivalents available after idle-cycle insertion."""
        if self._idle_cores == 0:
            # All-busy common case; bit-identical to summing ones.
            return float(self._active_cores)
        return _idle_adjusted_capacity(self._idle_fractions, self._active_cores)

    def core_rate_ips(self) -> float:
        """Instructions/s of one fully-busy core at the current OPP (G-inst/s)."""
        # IPC-like constant folded into ipc_factor; 1 G-inst/s per GHz
        # for a Big core at alpha=1.
        return self.perf_model.ipc_factor * self._frequency_ghz

    # ------------------------------ clocking --------------------------
    def clock_setters(self) -> tuple:
        """Bound ``set_time`` methods of the time-aware instruments.

        Cached on the identity of the instrument objects: fault
        injection replaces ``power_sensor`` / attaches
        ``actuator_faults`` by plain assignment, so the per-step cost is
        one id-tuple comparison instead of a ``getattr`` scan over every
        sensor.  Plain sensors (no ``set_time``) contribute nothing, so
        the fault-free fast path iterates an empty tuple.
        """
        key = (
            id(self.power_sensor),
            id(self.actuator_faults),
            *map(id, self.pmu_sensors),
        )
        if key != self._clock_setter_key:
            setters = []
            for instrument in (
                self.power_sensor,
                *self.pmu_sensors,
                self.actuator_faults,
            ):
                setter = getattr(instrument, "set_time", None)
                if setter is not None:
                    setters.append(setter)
            self._clock_setters = tuple(setters)
            self._clock_setter_key = key
        return self._clock_setters


@dataclass
class ClusterTelemetry:
    """Per-cluster sensor readings for one interval."""

    frequency_ghz: float
    voltage_v: float
    active_cores: int
    busy_core_equivalents: float
    power_w: float
    ips: float
    per_core_ips: np.ndarray


@dataclass
class Telemetry:
    """Full sensor snapshot the resource managers consume each interval."""

    time_s: float
    qos_rate: float
    qos_raw: float
    big: ClusterTelemetry
    little: ClusterTelemetry

    @property
    def chip_power_w(self) -> float:
        return self.big.power_w + self.little.power_w


@dataclass
class SoCConfig:
    """Construction parameters for :class:`ExynosSoC`."""

    dt_s: float = 0.05
    seed: int = 2018
    heartbeat_window_s: float = 0.10
    cores_per_cluster: int = 4


class ExynosSoC:
    """The simulated Exynos-5422-like platform.

    A single foreground :class:`QoSWorkload` runs (pinned) on the Big
    cluster; background tasks are free to migrate.  Call
    :meth:`step` once per 50 ms control interval.
    """

    def __init__(
        self,
        *,
        qos_app: QoSWorkload | None = None,
        background: list[BackgroundTask] | None = None,
        config: SoCConfig | None = None,
    ) -> None:
        self.config = config or SoCConfig()
        if self.config.dt_s <= 0:
            raise PlatformError("dt must be positive")
        self.big = Cluster(
            "big",
            n_cores=self.config.cores_per_cluster,
            opps=big_cluster_opps(),
            power_model=big_cluster_power_model(),
            perf_model=big_cluster_perf_model(),
        )
        self.little = Cluster(
            "little",
            n_cores=self.config.cores_per_cluster,
            opps=little_cluster_opps(),
            power_model=little_cluster_power_model(),
            perf_model=little_cluster_perf_model(),
        )
        self.qos_app = qos_app
        self.background = list(background or [])
        self.scheduler = HMPScheduler()
        self.heartbeats = HeartbeatMonitor(
            window_s=self.config.heartbeat_window_s
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.time_s = 0.0
        self._clusters = (self.big, self.little)

    # ------------------------------------------------------------------
    def add_background_task(self, task: BackgroundTask) -> None:
        self.background.append(task)

    def clusters(self) -> tuple[Cluster, Cluster]:
        return self._clusters

    # ------------------------------------------------------------------
    def step(self) -> Telemetry:
        """Advance one control interval and return sensor readings.

        Hot path: the RNG draw order here is a contract (see
        ``tests/platform/test_rng_contract.py``) — per step, the QoS
        workload draws first (if present and noisy), then each cluster
        in Big/Little order draws its power sensor followed by one PMU
        draw per core.  Optimizations must preserve that order exactly;
        the golden traces in ``tests/exec/fixtures`` pin it down to the
        bit.
        """
        now = self.time_s
        big = self.big
        little = self.little
        sync_cluster_clocks(self._clusters, now)
        qos_app = self.qos_app
        qos_threads = float(qos_app.threads) if qos_app else 0.0
        active_bg = [t for t in self.background if t.active_at(now)]
        if active_bg:
            placement = self.scheduler.place(
                active_bg,
                big=ClusterCapacity(
                    active_cores=big._active_cores,
                    core_strength=big.core_rate_ips(),
                ),
                little=ClusterCapacity(
                    active_cores=little._active_cores,
                    core_strength=little.core_rate_ips(),
                ),
                big_resident_threads=qos_threads,
            )
            big_demand = placement.big_demand
            little_demand = placement.little_demand
        else:
            # No runnable background work: skip capacity-view and
            # placement churn entirely (still lets the scheduler drop
            # departed tasks so names can be reused across phases).
            self.scheduler.place_idle()
            big_demand = 0.0
            little_demand = 0.0

        # --- Big cluster: QoS app + its share of background tasks -----
        big_capacity = big.effective_capacity()
        big_runnable = qos_threads + big_demand
        big_share = fair_share_capacity(big_capacity, big_runnable)
        qos_rate_raw = 0.0
        if qos_app is not None:
            qos_rate_raw = qos_app.rate(
                big.perf_model,
                big._frequency_ghz,
                qos_threads * big_share,
                time_s=now,
                rng=self.rng,
            )
            self.heartbeats.issue(now, qos_rate_raw * self.config.dt_s)
        big_busy = min(big_capacity, big_runnable)

        # --- Little cluster: background only ---------------------------
        little_capacity = little.effective_capacity()
        little_busy = min(little_capacity, little_demand)

        big_telemetry = self._cluster_telemetry(big, big_busy)
        little_telemetry = self._cluster_telemetry(little, little_busy)

        qos_rate = self.heartbeats.rate(now) if qos_app is not None else 0.0
        telemetry = Telemetry(
            time_s=now,
            qos_rate=qos_rate,
            qos_raw=qos_rate_raw,
            big=big_telemetry,
            little=little_telemetry,
        )
        self.time_s = now + self.config.dt_s
        return telemetry

    def _cluster_telemetry(
        self, cluster: Cluster, busy_core_equivalents: float
    ) -> ClusterTelemetry:
        # Thin indirection kept so repro.perf can hook the sensor stage
        # per SoC instance; the shared kernel lives at module level.
        return read_cluster_telemetry(cluster, busy_core_equivalents, self.rng)


def read_cluster_telemetry(
    cluster: Cluster, busy_core_equivalents: float, rng: np.random.Generator
) -> ClusterTelemetry:
    """One cluster's sensor readings for one interval (shared kernel).

    Used by both :class:`ExynosSoC` and ``ManyCoreSoC``.  Draw order per
    cluster: one power-sensor draw, then one PMU draw per core (all
    cores, including inactive ones — their target rate is simply zero).
    The uniform-weights fast path avoids the per-step numpy temporaries;
    it is bit-identical to the array formulation because each share is
    the same ``1/active`` quotient and a sequential sum matches
    ``np.sum`` below numpy's 8-wide pairwise unroll.  When every sensor
    is a plain noisy one, the noise gains come from one batched
    ``standard_normal`` call — ``rng.normal(1, s)`` equals
    ``1 + s * standard_normal()`` draw-for-draw, so the stream is
    consumed identically (asserted by the RNG contract tests).
    """
    frequency_ghz = cluster._frequency_ghz
    true_power_w = cluster.power_model.cluster_power(
        frequency_ghz,
        cluster._voltage_v,
        cluster._active_cores,
        busy_core_equivalents,
    )
    n_cores = cluster.n_cores
    active = cluster._active_cores
    total_ips = busy_core_equivalents * (
        cluster.perf_model.ipc_factor * frequency_ghz
    )
    pmu_sensors = cluster.pmu_sensors
    power_sensor_ = cluster.power_sensor
    if cluster._idle_cores == 0 and n_cores < 8:
        share = 1.0 / float(active)
        target = total_ips * share
        ips = 0.0
        values = []
        if (
            type(power_sensor_) is NoisySensor
            and power_sensor_.noise_fraction > 0
            and all(
                type(s) is NoisySensor and s.noise_fraction > 0
                for s in pmu_sensors
            )
        ):
            z = rng.standard_normal(n_cores + 1)
            measured_power_w = _read_with_gain(
                power_sensor_, true_power_w, z[0]
            )
            for i in range(n_cores):
                value = _read_with_gain(
                    pmu_sensors[i],
                    target if i < active else 0.0,
                    z[i + 1],
                )
                values.append(value)
                ips += value
        else:
            measured_power_w = power_sensor_.read(true_power_w, rng)
            for i in range(n_cores):
                value = pmu_sensors[i].read(
                    target if i < active else 0.0, rng
                )
                values.append(value)
                ips += value
        per_core_ips = np.array(values, dtype=float)
    else:
        measured_power_w = power_sensor_.read(true_power_w, rng)
        per_core_ips, ips = _telemetry_with_idle_insertion(
            cluster, total_ips, rng
        )
    return ClusterTelemetry(
        frequency_ghz=frequency_ghz,
        voltage_v=cluster._voltage_v,
        active_cores=active,
        busy_core_equivalents=busy_core_equivalents,
        power_w=measured_power_w,
        ips=ips,
        per_core_ips=per_core_ips,
    )


def _read_with_gain(sensor: NoisySensor, true_value: float, z: float) -> float:
    """``NoisySensor.read`` with the noise gain supplied from a batched
    standard-normal draw: ``1 + noise_fraction * z`` is bit-identical to
    the scalar ``rng.normal(1, noise_fraction)`` the sensor would draw.
    """
    value = float(true_value)
    gain = 1.0 + sensor.noise_fraction * z
    if gain < 0.0:
        gain = 0.0
    elif gain > 2.0:
        gain = 2.0
    value *= float(gain)
    resolution = sensor.resolution
    if resolution > 0:
        value = round(value / resolution) * resolution
    return max(value, sensor.floor)


def _telemetry_with_idle_insertion(
    cluster: Cluster, total_ips: float, rng: np.random.Generator
):
    """Idle-insertion / wide-cluster telemetry slow path.

    Deliberately kept on numpy (REPRO-F003 allowlisted): idle weighting
    needs the array math, and for >= 8 cores a sequential sum would not
    match ``np.sum``'s pairwise reduction bit-for-bit.
    """
    n_cores = cluster.n_cores
    per_core_ips = np.zeros(n_cores, dtype=float)
    weights = 1.0 - cluster._idle_fractions
    weights[cluster._active_cores:] = 0.0
    total_weight = float(np.sum(weights))
    for i in range(n_cores):
        share = weights[i] / total_weight if total_weight > 0 else 0.0
        per_core_ips[i] = cluster.pmu_sensors[i].read(total_ips * share, rng)
    return per_core_ips, float(np.sum(per_core_ips))


def _idle_adjusted_capacity(
    idle_fractions: np.ndarray, active_cores: int
) -> float:
    """Capacity under idle insertion (REPRO-F003 allowlisted slow path)."""
    return float(np.sum(1.0 - idle_fractions[:active_cores]))


def sync_cluster_clocks(clusters, time_s: float) -> None:
    """Propagate the simulator clock to every time-aware sensor/actuator.

    Called once per control interval by the SoC step loops.  Any object
    exposing ``set_time`` (fault-injection sensor wrappers, actuator
    fault layers) is time-aware; plain sensors are skipped.  This is
    native clock propagation — fault injection never wraps ``soc.step``,
    so injecting faults on multiple clusters cannot double-wrap the
    step loop.

    :class:`Cluster` precomputes its time-aware instruments
    (``clock_setters``), so the fault-free fast path makes zero
    ``getattr`` probes; duck-typed cluster objects without the cache
    fall back to the original per-instrument scan.
    """
    for cluster in clusters:
        cached = getattr(cluster, "clock_setters", None)
        if cached is not None:
            for clock_setter in cached():
                clock_setter(time_s)
            continue
        for instrument in (
            cluster.power_sensor,
            *cluster.pmu_sensors,
            cluster.actuator_faults,
        ):
            clock_setter = getattr(instrument, "set_time", None)
            if clock_setter is not None:
                clock_setter(time_s)


def fair_share_capacity(capacity: float, runnable_threads: float) -> float:
    """Per-thread core share when capacity may be fractional."""
    if runnable_threads <= 0:
        return 0.0
    return min(1.0, capacity / runnable_threads)


def fleet_sensor_layout(cluster: Cluster):
    """Validate a cluster for fleet vectorization; return its sensors.

    The fleet kernel (``repro.platform.fleet``) only reproduces the
    scalar *fast* path of :func:`read_cluster_telemetry`: plain noisy
    sensors, no idle insertion, fewer than 8 cores, no attached fault
    layers (faulted devices run on the scalar oracle).  Anything else
    would change how many RNG draws each tick consumes, so it is
    rejected loudly here rather than silently diverging.
    """
    if cluster._idle_cores != 0:
        raise PlatformError(
            f"cluster {cluster.name!r}: idle insertion is active; the fleet "
            "kernel only reproduces the scalar fast path"
        )
    if cluster.n_cores >= 8:
        raise PlatformError(
            f"cluster {cluster.name!r}: >= 8 cores uses the pairwise-sum "
            "telemetry slow path, which the fleet kernel does not vectorize"
        )
    if cluster.actuator_faults is not None:
        raise PlatformError(
            f"cluster {cluster.name!r}: actuator fault layers are attached; "
            "faulted devices must run on the scalar oracle"
        )
    if not batched_noise_eligible(cluster.power_sensor, cluster.pmu_sensors):
        raise PlatformError(
            f"cluster {cluster.name!r}: sensors are not plain NoisySensor "
            "instances with positive noise, so the batched standard_normal "
            "block would not match the scalar draw order"
        )
    return cluster.power_sensor, tuple(cluster.pmu_sensors)


# Re-export for symmetry with the scheduler module.
__all__ = [
    "Cluster",
    "ClusterTelemetry",
    "ExynosSoC",
    "PlatformError",
    "SoCConfig",
    "Telemetry",
    "fair_share",
    "fair_share_capacity",
    "fleet_sensor_layout",
    "read_cluster_telemetry",
    "sync_cluster_clocks",
]
