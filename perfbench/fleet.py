"""The ``fleet-spectr`` and ``fleet-baselines`` workloads.

Both run ``run_fleet_scenario`` on the x264 three-phase scenario (5 s
phases, 300 ticks of 50 ms) over N=1000 devices whose RNG seeds are
``derive_seed(seed, "fleet", i)``.  ``fleet-spectr`` runs ``FleetSPECTR``,
whose per-row supervisor dominates the run; ``fleet-baselines`` runs
MM-Pow, MM-Perf and FS in turn, which have no supervisor, so the batched
platform and servo kernels do the work.  One pass is one run per manager;
the work rate is simulated device-ticks per host second over all passes.

An operation is one 100 ms supervisory period (two ticks) across the
whole fleet, summed over the pass's managers: single ticks fall into two
groups (with and without the supervisor), so their percentiles are
unstable while periods are not.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from perfbench.common import (
    Tracer,
    alternate_passes,
    median,
    percentile,
    run_passes,
    setup_probes,
    setup_splits,
)

N_DEVICES = 1000
PHASE_S = 5.0
PERIOD_TICKS = 2
ORACLE_ROWS = 4
MANAGERS = {
    "fleet-spectr": ("SPECTR",),
    "fleet-baselines": ("MM-Pow", "MM-Perf", "FS"),
}
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


def make_inputs(workload: str, seed: int) -> dict:
    """Device seeds and the rows the scalar oracle re-runs."""
    from repro.exec.job import derive_seed

    rng = np.random.default_rng([seed, 0xF1EE7])
    return {
        "managers": MANAGERS[workload],
        "device_seeds": [derive_seed(seed, "fleet", i) for i in range(N_DEVICES)],
        "oracle_rows": sorted(
            int(r) for r in rng.choice(N_DEVICES, ORACLE_ROWS, replace=False)
        ),
    }


def trace_digest(trace) -> str:
    """SHA-256 over every series of a ``FleetTrace``."""
    digest = hashlib.sha256(trace.manager.encode())
    for name in TRACE_FIELDS + ("gain_ids",):
        digest.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return digest.hexdigest()


def sim_quality(trace) -> tuple[float, float]:
    """(share of device-ticks above 105% of the budget, mean QoS
    tracking error in percent of the reference)."""
    over = trace.chip_power > 1.05 * trace.power_reference[:, None]
    ref = trace.qos_reference[:, None]
    error = np.abs(trace.qos - ref) / ref
    return float(over.mean()), float(100.0 * error.mean())


class FleetWorkload:
    def __init__(self, workload: str, seed: int) -> None:
        from repro.experiments.figures import (
            case_study_supervisor,
            identified_systems,
        )
        from repro.experiments.fleet import fleet_manager_factory
        from repro.experiments.scenario import three_phase_scenario

        self.inputs = make_inputs(workload, seed)
        self.systems = identified_systems()
        if "SPECTR" in self.inputs["managers"]:
            case_study_supervisor()
        self.factories = {
            name: fleet_manager_factory(name, self.systems)
            for name in self.inputs["managers"]
        }
        self.scenario = three_phase_scenario(phase_duration_s=PHASE_S)
        self.periods_s: list[float] = []
        self.digests: dict[str, set[str]] = {
            name: set() for name in self.inputs["managers"]
        }
        self.checks = 0
        self.mismatches: list[str] = []
        self.quality: dict[str, tuple[float, float]] = {}
        self.steps = 0

    # -- one pass ------------------------------------------------------
    def _run(self, factory, tick_marks: list[float] | None = None):
        from repro.experiments.fleet import run_fleet_scenario
        from repro.workloads import x264

        if tick_marks is not None:
            inner = factory

            def factory(platform, goals):
                step = platform.step
                clock = time.perf_counter
                mark = tick_marks.append

                def stamped():
                    mark(clock())
                    return step()

                platform.step = stamped
                return inner(platform, goals)

        return run_fleet_scenario(
            factory, x264(), self.scenario, seeds=self.inputs["device_seeds"]
        )

    def clocked_pass(self) -> dict:
        """One run per manager, recording each tick's start time.

        Period ``k`` of a pass is the summed time of period ``k`` of
        every manager's run: one supervisory period of the whole
        workload, a single distribution even when managers differ.
        """
        traces = {}
        periods = None
        for name, factory in self.factories.items():
            marks: list[float] = []
            trace = self._run(factory, marks)
            marks.append(time.perf_counter())
            ticks = np.diff(marks)
            run_periods = np.add.reduceat(
                ticks, np.arange(0, ticks.size, PERIOD_TICKS)
            )
            periods = run_periods if periods is None else periods + run_periods
            traces[name] = trace
        self.periods_s.extend(periods.tolist())
        return traces

    def traced_pass(self, tracer: Tracer) -> dict:
        """One run per manager with a span around every layer call."""
        import repro.experiments.fleet as fleet_runner
        from repro.control.batch import BatchedLQGServo

        def install(platform, manager) -> None:
            tracer.wrap(
                platform, "step", "platform.step", first_name="platform.first_step"
            )
            tracer.wrap(manager, "control", "managers.control")
            for servo in vars(manager).values():
                if isinstance(servo, BatchedLQGServo):
                    tracer.wrap(servo, "step", "control.servo_step")
                    tracer.wrap(
                        servo,
                        "switch_rows",
                        "control.switch_rows",
                        count=lambda rows, *a, **k: len(rows),
                    )
            for cluster in (platform.big, platform.little):
                tracer.wrap(cluster, "set_frequency", "platform.actuate")
                tracer.wrap(cluster, "apply_core_requests", "platform.actuate")

        traces = {}
        tracer.patch(fleet_runner, "FleetPlatform", "platform.construct")
        try:
            run = tracer.timed("experiments.run", self._run)
            for name, factory in self.factories.items():
                construct = tracer.timed("managers.construct", factory)

                def traced_factory(platform, goals, construct=construct):
                    manager = construct(platform, goals)
                    install(platform, manager)
                    return manager

                traces[name] = run(traced_factory)
        finally:
            tracer.detach()
        return traces

    # -- checks (outside the timed region) -----------------------------
    def check(self, traces: dict, *, oracle: bool) -> None:
        """Digest every trace; on request re-run the oracle rows through
        the scalar ``run_scenario`` and compare them bit for bit."""
        for name, trace in traces.items():
            self.digests[name].add(trace_digest(trace))
            self.steps = trace.times.shape[0]
            if name not in self.quality:
                self.quality[name] = sim_quality(trace)
            if oracle:
                self._oracle(name, trace)

    def _oracle(self, name: str, trace) -> None:
        from repro.experiments.figures import manager_factory
        from repro.experiments.runner import run_scenario
        from repro.workloads import x264

        for row in self.inputs["oracle_rows"]:
            self.checks += 1
            scalar = run_scenario(
                manager_factory(name, self.systems),
                x264(),
                self.scenario,
                seed=self.inputs["device_seeds"][row],
            )
            fleet_row = trace.row(row)
            same = fleet_row.gain_sets == scalar.gain_sets and all(
                getattr(fleet_row, f).tobytes() == getattr(scalar, f).tobytes()
                for f in TRACE_FIELDS
            )
            if not same:
                self.mismatches.append(f"{name} row {row} differs from scalar")

    def digest_failures(self) -> int:
        """Managers whose repeat runs did not reproduce one digest."""
        return sum(1 for seen in self.digests.values() if len(seen) > 1)

    def quality_means(self) -> tuple[float, float]:
        values = list(self.quality.values())
        return (
            float(np.mean([v[0] for v in values])),
            float(np.mean([v[1] for v in values])),
        )


def _attempted_failed(
    bench: FleetWorkload, passes: int, errors: int
) -> tuple[int, int]:
    """Fleet runs and oracle rows attempted; failed runs, mismatched
    rows and managers whose repeat runs changed digest."""
    attempted = passes * len(bench.factories) + bench.checks
    failed = errors + len(bench.mismatches) + bench.digest_failures()
    return attempted, failed


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end run: set-up probes, one warm-up pass, timed passes."""
    probes = setup_probes(workload, seed, 5, cold=False)
    bench = FleetWorkload(workload, seed)
    bench.check(bench.clocked_pass(), oracle=True)
    bench.periods_s.clear()
    log = run_passes(
        bench.clocked_pass, seconds, after=lambda t: bench.check(t, oracle=False)
    )
    periods_ms = [p * 1e3 for p in bench.periods_s]
    attempted, failed = _attempted_failed(bench, log.attempted + 1, len(log.errors))
    steps_per_s = (
        N_DEVICES * bench.steps * len(bench.factories) * len(log.seconds)
        / sum(log.seconds)
    )
    tdp, qos_error = bench.quality_means()
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": log.errors + bench.mismatches,
        "metrics": {
            "setup_s": median(p["setup_s"] for p in probes),
            "work_per_s": steps_per_s,
            "op_ms_p50": percentile(periods_ms, 50),
            "op_ms_p90": percentile(periods_ms, 90),
        },
        "summary": {
            "sim_steps_per_s": steps_per_s,
            "period_ms_p50": percentile(periods_ms, 50),
            "period_ms_p90": percentile(periods_ms, 90),
            "periods": len(periods_ms),
            "passes": len(log.seconds),
            "failed_frac": failed / attempted,
            "sim_tdp_violation_frac": tdp,
            "sim_qos_error_pct": qos_error,
        },
    }


def layer_metrics(tracer: Tracer, runs: int) -> dict:
    """Per-run self times (ms) and counts from a traced fleet run."""

    def ms(name: str) -> float:
        return tracer.self_s.get(name, 0.0) * 1e3 / runs

    return {
        "experiments.loop_self_ms": ms("experiments.run"),
        "platform.construct_ms": ms("platform.construct"),
        "managers.construct_ms": ms("managers.construct"),
        "platform.first_step_ms": ms("platform.first_step"),
        "platform.step_ms": ms("platform.step"),
        "platform.actuate_ms": ms("platform.actuate"),
        "managers.control_self_ms": ms("managers.control"),
        "control.servo_step_ms": ms("control.servo_step"),
        "control.switch_rows_ms": ms("control.switch_rows"),
        "control.switch_rows_calls": tracer.calls.get("control.switch_rows", 0) / runs,
        "control.rows_switched": tracer.counts.get("control.switch_rows", 0.0) / runs,
    }


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: cold set-up probes, then untraced and traced passes
    alternating, so ``trace.overhead_frac`` compares like with like."""
    probes = setup_probes(workload, seed, 3, cold=True)
    bench = FleetWorkload(workload, seed)
    bench.check(bench.clocked_pass(), oracle=True)
    tracer = Tracer()
    plain, traced = alternate_passes(
        bench.clocked_pass,
        lambda: bench.traced_pass(tracer),
        seconds,
        after=lambda traces: bench.check(traces, oracle=False),
    )
    attempted, failed = _attempted_failed(bench, len(plain) + len(traced) + 1, 0)
    tdp, qos_error = bench.quality_means()
    metrics = setup_splits(probes)
    metrics.update(layer_metrics(tracer, len(traced) * len(bench.factories)))
    metrics["experiments.tdp_violation_frac"] = tdp
    metrics["experiments.qos_error_pct"] = qos_error
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": bench.mismatches,
        "metrics": metrics,
        "summary": {"traced_passes": len(traced), "plain_passes": len(plain)},
    }
