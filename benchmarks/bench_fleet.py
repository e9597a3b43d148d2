"""Wall-clock benchmark of the vectorized fleet kernel.

Measures aggregate device-steps/sec — ``N devices x T ticks / elapsed``
— for batched ``run_fleet_scenario`` runs of MM-Perf and SPECTR at
several fleet sizes, and compares each against its scalar oracle's
throughput measured in the same process (one ``run_scenario`` call,
same scenario and protocol).  The headline number is the aggregate
speedup at N=1000: one numpy op advancing a thousand simulated SoCs
amortizes the per-tick Python overhead that dominates the scalar path.

Writes ``benchmarks/results/fleet.json`` so the numbers are diffable
across runs, with host metadata: CPU count, numpy version, whether the
fused kernels compiled, and per manager which batched servos ran the
fused servo kernel at N=1000 (a servo whose probe fails steps in
numpy, which changes what the throughput measures).  Full mode
asserts two bars at N=1000: >= 100x aggregate
throughput over the scalar oracle for MM-Perf, and SPECTR (the paper's
method, whose supervisor runs as a compiled table on the fleet path)
at >= 0.55x MM-Perf's aggregate throughput.  Quick mode
(``FLEET_QUICK=1``) is for CI smoke: a small fleet, no assertion —
timing on a cold, loaded box is noise, but the benchmark must still
complete and emit valid JSON (under ``benchmarks/results-quick/``).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import results_dir

# Full-mode acceptance bars at N=1000: MM-Perf's aggregate fleet
# throughput vs its scalar oracle, and SPECTR's vs MM-Perf's.
REQUIRED_AGGREGATE_SPEEDUP = 100.0
REQUIRED_SPECTR_SHARE = 0.55

QUICK = os.environ.get("FLEET_QUICK", "") not in ("", "0")
FLEET_SIZES = (64,) if QUICK else (10, 100, 1000)
HEADLINE_N = FLEET_SIZES[-1]
WARMUP_RUNS = 1
TIMED_RUNS = 2 if QUICK else 3
MANAGERS = ("MM-Perf", "SPECTR")


def _scenario():
    from repro.experiments.scenario import three_phase_scenario

    return three_phase_scenario(phase_duration_s=5.0)


def _scalar_steps_per_s(manager: str):
    """Scalar-oracle throughput (steps/sec) on the benchmark scenario."""
    from repro.experiments.figures import (
        identified_systems,
        manager_factory,
    )
    from repro.experiments.runner import run_scenario
    from repro.workloads import x264

    scenario = _scenario()
    factory = manager_factory(manager, identified_systems())

    def one_run():
        start = time.perf_counter()
        trace = run_scenario(factory, x264(), scenario, seed=2018)
        elapsed = time.perf_counter() - start
        return len(trace.times) / elapsed

    for _ in range(WARMUP_RUNS):
        one_run()
    return max(one_run() for _ in range(TIMED_RUNS))


def _fleet_steps_per_s(manager: str, n_devices: int):
    """Aggregate device-steps/sec for one batched fleet run, and which
    of the manager's batched servos ran the fused servo kernel."""
    from repro.control.batch import BatchedLQGServo
    from repro.exec.job import derive_seed
    from repro.experiments.figures import identified_systems
    from repro.experiments.fleet import (
        fleet_manager_factory,
        run_fleet_scenario,
    )
    from repro.workloads import x264

    scenario = _scenario()
    build = fleet_manager_factory(manager, identified_systems())
    seeds = [derive_seed(2018, "fleet", i) for i in range(n_devices)]
    fused: dict[str, bool] = {}

    def factory(platform, goals):
        instance = build(platform, goals)
        for attr, servo in vars(instance).items():
            if isinstance(servo, BatchedLQGServo):
                fused[attr] = servo.fused_enabled
        return instance

    def one_run():
        start = time.perf_counter()
        trace = run_fleet_scenario(factory, x264(), scenario, seeds=seeds)
        elapsed = time.perf_counter() - start
        ticks = trace.times.shape[0]
        assert trace.n_devices == n_devices
        return ticks * n_devices / elapsed

    for _ in range(WARMUP_RUNS):
        one_run()
    return max(one_run() for _ in range(TIMED_RUNS)), fused


def test_fleet_throughput(save_result):
    from repro.control.fused import fused_kernel

    scalar = {m: _scalar_steps_per_s(m) for m in MANAGERS}
    runs = {m: {n: _fleet_steps_per_s(m, n) for n in FLEET_SIZES} for m in MANAGERS}
    fleet = {m: {n: rate for n, (rate, _) in runs[m].items()} for m in MANAGERS}
    speedups = {
        m: {n: fleet[m][n] / scalar[m] for n in FLEET_SIZES} for m in MANAGERS
    }
    spectr_share = {
        n: fleet["SPECTR"][n] / fleet["MM-Perf"][n] for n in FLEET_SIZES
    }

    def by_size(values, digits=1):
        return {str(n): round(value, digits) for n, value in values.items()}

    payload = {
        "host": {
            "cpus": os.cpu_count(),
            "numpy": np.__version__,
            "fused_kernel": fused_kernel() is not None,
            # Per manager, whether each batched servo ran the fused
            # servo kernel at the headline fleet size.
            "fused_servos": {m: runs[m][HEADLINE_N][1] for m in MANAGERS},
        },
        "protocol": {
            "scenario": "three_phase_scenario(phase_duration_s=5.0)",
            "steps": 300,
            "workload": "x264",
            "managers": list(MANAGERS),
            "seed_base": 2018,
            "fleet_sizes": list(FLEET_SIZES),
            "warmup_runs": WARMUP_RUNS,
            "timed_runs": TIMED_RUNS,
            "quick_mode": QUICK,
        },
        "scalar_steps_per_s": {m: round(scalar[m], 1) for m in MANAGERS},
        "fleet_aggregate_steps_per_s": {
            m: by_size(fleet[m]) for m in MANAGERS
        },
        "aggregate_speedup": {m: by_size(speedups[m]) for m in MANAGERS},
        "spectr_to_mm_perf": by_size(spectr_share, 2),
    }
    (results_dir(QUICK) / "fleet.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    lines = [
        "Fleet kernel aggregate throughput (device-steps/sec, "
        f"best of {TIMED_RUNS} after {WARMUP_RUNS} warm-up runs)"
    ]
    for m in MANAGERS:
        lines.append(f"  {m:<8} scalar oracle {scalar[m]:10.1f} steps/s")
        for n in FLEET_SIZES:
            lines.append(
                f"  {m:<8} N={n:<6} {fleet[m][n]:12.1f} agg steps/s"
                f"  ({speedups[m][n]:.1f}x scalar)"
            )
    for n in FLEET_SIZES:
        lines.append(f"  SPECTR / MM-Perf at N={n:<6} {spectr_share[n]:.2f}x")
    for m in MANAGERS:
        servos = runs[m][HEADLINE_N][1]
        flags = ", ".join(
            f"{attr} {'fused' if on else 'numpy'}" for attr, on in servos.items()
        )
        lines.append(f"  {m:<8} servo kernels at N={HEADLINE_N}: {flags}")
    save_result("fleet", "\n".join(lines), quick=QUICK)

    if not QUICK:
        headline = speedups["MM-Perf"][HEADLINE_N]
        assert headline >= REQUIRED_AGGREGATE_SPEEDUP, (
            f"fleet kernel at N={HEADLINE_N} only {headline:.1f}x the "
            f"scalar oracle (need {REQUIRED_AGGREGATE_SPEEDUP}x)"
        )
        share = spectr_share[HEADLINE_N]
        assert share >= REQUIRED_SPECTR_SHARE, (
            f"fleet SPECTR at N={HEADLINE_N} only {share:.2f}x MM-Perf's "
            f"throughput (need {REQUIRED_SPECTR_SHARE}x)"
        )
