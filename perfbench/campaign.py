"""The ``campaign`` workload: the paper's scalar job matrices.

One pass submits ``tdp_sweep``, ``qos_reference_sweep``,
``ablate_mechanisms`` and ``ablate_supervisor_period`` (33 scenario jobs,
base seed ``derive_seed(seed, "campaign")``) through an
``ExperimentEngine`` with two pool workers, a fresh ``ResultCache`` and
a fresh ``RunJournal``, then a seeded resubmission of 12 of those cells:
8 unchanged (cache reads) and 4 with a new seed (computed and written).
This covers the scalar simulation path and the ``exec`` layer, pool
start-up included.  The work rate is jobs delivered (cache hits
included) per second; an operation is one freshly computed job, timed
from its ``engine.run`` submission to its result.
"""

from __future__ import annotations

import pickle
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from perfbench.common import (
    Tracer,
    alternate_passes,
    fresh_dir,
    median,
    percentile,
    run_passes,
    setup_probes,
    setup_splits,
)

WORKERS = 2
MATRIX_JOBS = 33
RESUBMIT_REPEATS = 8
RESUBMIT_RESEEDED = 4
JOBS_PER_PASS = MATRIX_JOBS + RESUBMIT_REPEATS + RESUBMIT_RESEEDED


def make_inputs(seed: int) -> dict:
    """Campaign base seed and the resubmitted cells."""
    from repro.exec.job import derive_seed

    rng = np.random.default_rng([seed, 0xCA3B])
    picks = [
        int(i)
        for i in rng.choice(
            MATRIX_JOBS, RESUBMIT_REPEATS + RESUBMIT_RESEEDED, replace=False
        )
    ]
    return {
        "seed": derive_seed(seed, "campaign"),
        "repeat": picks[:RESUBMIT_REPEATS],
        "reseed": {
            index: derive_seed(seed, "resubmit", index)
            for index in picks[RESUBMIT_REPEATS:]
        },
    }


@dataclass
class PassResult:
    records: list  # first-round JobRecords, matrix order
    resubmitted: list  # resubmission JobRecords
    latencies_s: list[float]  # fresh jobs, submission to result
    cache_hit_ratio: float
    work_dir: Path  # the pass's cache and journal, removed by check()


def canonical_bytes(value) -> bytes:
    """Pickle bytes after one pickle round trip.

    Engine results arrive unpickled (from a worker or the cache); a round
    trip changes a pickle's memo layout but no value, so both sides of
    every comparison are normalized through one.
    """
    return pickle.dumps(pickle.loads(pickle.dumps(value)))


def _matrices():
    from repro.experiments.ablations import (
        ablate_mechanisms,
        ablate_supervisor_period,
    )
    from repro.experiments.sweeps import qos_reference_sweep, tdp_sweep

    return (tdp_sweep, qos_reference_sweep, ablate_mechanisms, ablate_supervisor_period)


def sim_quality(traces) -> tuple[float, float]:
    """Mean over scalar traces of (share of ticks above 105% of the
    budget, QoS tracking error in percent of the reference)."""
    over = [float((t.chip_power > 1.05 * t.power_reference).mean()) for t in traces]
    error = [
        float(100.0 * (np.abs(t.qos - t.qos_reference) / t.qos_reference).mean())
        for t in traces
    ]
    return float(np.mean(over)), float(np.mean(error))


class CampaignWorkload:
    def __init__(self, seed: int) -> None:
        from repro.experiments.figures import (
            case_study_supervisor,
            identified_systems,
        )

        self.inputs = make_inputs(seed)
        self.systems = identified_systems()
        case_study_supervisor()
        self.matrices = _matrices()
        self.failures: list[str] = []
        self.checks = 0
        self.jobs = 0
        self.ticks = 0

    def one_pass(self, tracer: Tracer | None = None) -> PassResult:
        from repro.exec import ExperimentEngine, ResultCache, RunJournal

        work = fresh_dir("campaign-")
        try:
            cache = ResultCache(work / "cache")
            journal = RunJournal(work / "journal.jsonl", salt=cache.salt)
            if tracer is not None:
                tracer.wrap(cache, "get", "exec.cache_get")
                tracer.wrap(cache, "put", "exec.cache_put")
                tracer.wrap(journal, "record", "exec.journal_record")
            submitted = [0.0]
            latencies: list[float] = []

            def done(record) -> None:
                latencies.append(time.perf_counter() - submitted[0])

            engine = ExperimentEngine(
                max_workers=WORKERS, cache=cache, journal=journal, progress=done
            )
            run = engine.run

            def submit(jobs):
                submitted[0] = time.perf_counter()
                return run(jobs)

            engine.run = submit
            records = []
            seed = self.inputs["seed"]
            for matrix in self.matrices:
                matrix(seed=seed, engine=engine)
                records.extend(engine.last_records)
            jobs = [records[i].job for i in self.inputs["repeat"]] + [
                replace(records[i].job, seed=s)
                for i, s in self.inputs["reseed"].items()
            ]
            resubmitted = engine.run(jobs)
        except BaseException:
            shutil.rmtree(work, ignore_errors=True)
            raise
        finally:
            if tracer is not None:
                tracer.detach()
        lookups = cache.hits + cache.misses
        return PassResult(
            records, resubmitted, latencies, cache.hits / lookups, work
        )

    # -- checks (outside the timed region) -----------------------------
    def check(self, result: PassResult) -> None:
        """Every record succeeded; every cache hit returns the pickle of
        the entry computed and stored for that digest."""
        shutil.rmtree(result.work_dir, ignore_errors=True)
        fresh = self.fresh_records(result)
        self.jobs += len(result.records) + len(result.resubmitted)
        # Simulated ticks per pass (cache hits simulate nothing).
        self.ticks = sum(len(r.result.times) for r in fresh if r.ok)
        if len(result.records) != MATRIX_JOBS:
            self.failures.append(f"{len(result.records)} matrix jobs")
        for record in result.records + result.resubmitted:
            if not record.ok:
                self.failures.append(f"{record.job.label}: {record.error}")
        stored = {r.digest: canonical_bytes(r.result) for r in fresh if r.ok}
        for position, record in enumerate(result.resubmitted):
            self.checks += 1
            expect_hit = position < RESUBMIT_REPEATS
            if record.cache_hit != expect_hit or (
                record.cache_hit
                and canonical_bytes(record.result) != stored.get(record.digest)
            ):
                self.failures.append(f"resubmitted {record.job.label} wrong")

    @staticmethod
    def fresh_records(result: PassResult) -> list:
        return result.records + [r for r in result.resubmitted if not r.cache_hit]

    def replay(self, result: PassResult, profiler=None) -> None:
        """Re-run every freshly computed job serially in this process and
        require the engine's result byte for byte."""
        from repro.exec.scenario_jobs import build_manager_factory, workload_by_name
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import three_phase_scenario

        for record in self.fresh_records(result):
            self.checks += 1
            job = record.job
            hooks = {}
            if profiler is not None:
                hooks = {
                    "soc_setup": profiler.attach_soc,
                    "manager_setup": profiler.attach_manager,
                }
            try:
                trace = run_scenario(
                    build_manager_factory(job.manager, self.systems, job.params()),
                    workload_by_name(job.workload),
                    job.scenario or three_phase_scenario(),
                    seed=job.seed,
                    **hooks,
                )
            finally:
                if profiler is not None:
                    profiler.detach()
            if canonical_bytes(trace) != canonical_bytes(record.result):
                self.failures.append(f"replay of {job.label} differs")


def measure(seed: int, seconds: float) -> dict:
    probes = setup_probes("campaign", seed, 5, cold=False)
    bench = CampaignWorkload(seed)
    warm = bench.one_pass()
    bench.check(warm)
    bench.replay(warm)
    latencies: list[float] = []

    def after(result: PassResult) -> None:
        bench.check(result)
        latencies.extend(result.latencies_s)

    log = run_passes(bench.one_pass, seconds, after=after)
    attempted = bench.jobs + bench.checks + len(log.errors)
    failed = len(bench.failures) + len(log.errors)
    latencies_ms = [s * 1e3 for s in latencies]
    busy_s = sum(log.seconds)
    passes = len(log.seconds)
    tdp, qos_error = sim_quality([r.result for r in bench.fresh_records(warm)])
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": log.errors + bench.failures,
        "metrics": {
            "setup_s": median(p["setup_s"] for p in probes),
            "work_per_s": JOBS_PER_PASS * passes / busy_s,
            "op_ms_p50": percentile(latencies_ms, 50),
            "op_ms_p90": percentile(latencies_ms, 90),
        },
        "summary": {
            "jobs_per_s": JOBS_PER_PASS * passes / busy_s,
            "sim_steps_per_s": bench.ticks * passes / busy_s,
            "jobs": len(latencies_ms),
            "passes": passes,
            "failed_frac": failed / attempted,
            "sim_tdp_violation_frac": tdp,
            "sim_qos_error_pct": qos_error,
        },
    }


def _exec_layers(results: list[PassResult], makespans: list[float], tracer: Tracer) -> dict:
    fresh = [CampaignWorkload.fresh_records(r) for r in results]
    busy = [sum(r.duration_s for r in records) for records in fresh]
    makespan = float(np.mean(makespans))
    job_busy = float(np.mean(busy))
    flat = [r for records in fresh for r in records]

    def per_call_ms(name: str) -> float:
        return tracer.total[name] * 1e3 / max(tracer.calls[name], 1)

    return {
        "exec.makespan_s": makespan,
        "exec.job_busy_s": job_busy,
        "exec.pool_utilization": job_busy / (makespan * WORKERS),
        "exec.dispatch_overhead_s": makespan - job_busy / WORKERS,
        "exec.job_ms_p50": percentile([r.duration_s * 1e3 for r in flat], 50),
        "exec.attempts_per_job": float(np.mean([r.attempts for r in flat])),
        "exec.result_bytes": float(np.mean([len(pickle.dumps(r.result)) for r in flat])),
        "exec.cache_get_ms": per_call_ms("exec.cache_get"),
        "exec.cache_put_ms": per_call_ms("exec.cache_put"),
        "exec.cache_hit_ratio": float(np.mean([r.cache_hit_ratio for r in results])),
        "exec.journal_record_ms": per_call_ms("exec.journal_record"),
    }


def _scalar_stages(profiler, ticks: int) -> dict:
    def us(stage: str) -> float:
        return profiler.stats[stage].total_s * 1e6 / ticks

    return {
        "platform.soc_step_us": us("step_total"),
        "platform.sensors_us": us("sensors"),
        "platform.scheduler_us": us("scheduler"),
        "platform.workload_us": us("workload"),
        "managers.controller_us": us("controller"),
        "core.supervisor_us": us("supervisor"),
    }


def trace(seed: int, seconds: float) -> dict:
    """Traced run: cold set-up probes, untraced and traced passes
    alternating, and a serial replay of one pass under ``StepProfiler``."""
    from repro.perf import StepProfiler

    probes = setup_probes("campaign", seed, 3, cold=True)
    bench = CampaignWorkload(seed)
    bench.check(bench.one_pass())
    tracer = Tracer()
    traced_results: list[PassResult] = []

    def traced_pass() -> PassResult:
        traced_results.append(bench.one_pass(tracer))
        return traced_results[-1]

    plain, traced = alternate_passes(bench.one_pass, traced_pass, seconds, bench.check)
    profiler = StepProfiler()
    bench.replay(traced_results[0], profiler)
    ticks = profiler.stats["step_total"].calls
    tdp, qos_error = sim_quality(
        [r.result for r in bench.fresh_records(traced_results[0])]
    )
    metrics = setup_splits(probes)
    metrics.update(_exec_layers(traced_results, traced, tracer))
    metrics.update(_scalar_stages(profiler, ticks))
    metrics["experiments.tdp_violation_frac"] = tdp
    metrics["experiments.qos_error_pct"] = qos_error
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return {
        "attempted": bench.jobs + bench.checks,
        "failed": len(bench.failures),
        "errors": bench.failures,
        "metrics": metrics,
        "summary": {"traced_passes": len(traced), "plain_passes": len(plain)},
    }
