"""Tests of the benchmark itself.

Run from the checkout root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time

import pytest

from perfbench import campaign, common, fleet, synthesis

if str(common.SRC) not in sys.path:
    sys.path.insert(0, str(common.SRC))


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------
GENERATORS = {
    "fleet-spectr": lambda seed: fleet.make_inputs("fleet-spectr", seed),
    "fleet-baselines": lambda seed: fleet.make_inputs("fleet-baselines", seed),
    "campaign": campaign.make_inputs,
    "synthesis": synthesis.make_inputs,
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = GENERATORS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_fleet_workloads_share_device_seeds():
    spectr = fleet.make_inputs("fleet-spectr", 3)
    baselines = fleet.make_inputs("fleet-baselines", 3)
    assert spectr["device_seeds"] == baselines["device_seeds"]
    assert len(set(spectr["device_seeds"])) == fleet.N_DEVICES


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
SELF_TIMES = (
    "experiments.loop_self_ms",
    "platform.construct_ms",
    "managers.construct_ms",
    "platform.first_step_ms",
    "platform.step_ms",
    "platform.actuate_ms",
    "managers.control_self_ms",
    "control.servo_step_ms",
    "control.switch_rows_ms",
)


@pytest.fixture
def small_fleet(monkeypatch):
    monkeypatch.setattr(fleet, "N_DEVICES", 16)
    monkeypatch.setattr(fleet, "PHASE_S", 0.5)


@pytest.mark.parametrize("workload", ["fleet-spectr", "fleet-baselines"])
def test_fleet_self_times_sum_to_traced_loop(small_fleet, workload):
    bench = fleet.FleetWorkload(workload, seed=5)
    tracer = common.Tracer()
    start = time.perf_counter()
    traced = bench.traced_pass(tracer)
    wall_s = time.perf_counter() - start

    runs = len(bench.factories)
    layers = fleet.layer_metrics(tracer, runs)
    summed_s = sum(layers[name] for name in SELF_TIMES) * runs / 1e3
    loop_s = tracer.total["experiments.run"]
    assert summed_s == pytest.approx(loop_s, rel=1e-9)
    assert loop_s <= wall_s < loop_s + 0.05
    if workload == "fleet-spectr":
        assert layers["managers.control_self_ms"] > 0.0
        assert layers["control.switch_rows_calls"] > 0
    else:
        assert layers["control.switch_rows_calls"] == 0

    # Hooks only observe: the traced run reproduces the plain run.
    plain = bench.clocked_pass()
    for name in plain:
        assert fleet.trace_digest(traced[name]) == fleet.trace_digest(plain[name])


def test_fleet_oracle_accepts_the_fleet_and_catches_a_change(small_fleet):
    bench = fleet.FleetWorkload("fleet-baselines", seed=9)
    traces = bench.clocked_pass()
    bench.check(traces, oracle=True)
    assert bench.checks == fleet.ORACLE_ROWS * 3 and not bench.mismatches

    row = bench.inputs["oracle_rows"][0]
    traces["FS"].qos[5, row] += 1e-12
    bench.check(traces, oracle=True)
    assert bench.mismatches == [f"FS row {row} differs from scalar"]
    assert bench.digest_failures() == 1


def test_tracer_self_time_and_detach():
    class Layer:
        def outer(self, inner):
            time.sleep(0.002)
            return inner()

        def inner(self):
            time.sleep(0.003)
            return 7

    layer = Layer()
    tracer = common.Tracer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner", first_name="first_inner")
    assert layer.outer(layer.inner) == 7
    assert layer.outer(layer.inner) == 7
    assert tracer.calls == {"outer": 2, "first_inner": 1, "inner": 1}
    total = tracer.self_s["outer"] + tracer.self_s["inner"] + tracer.self_s["first_inner"]
    assert total == pytest.approx(tracer.total["outer"], rel=1e-12)
    tracer.detach()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)


def test_percentile_matches_interpolation():
    values = [4.0, 1.0, 3.0, 2.0]
    assert common.percentile(values, 50) == 2.5
    assert common.percentile(values, 90) == pytest.approx(3.7)
    assert common.percentile([5.0], 90) == 5.0


# ----------------------------------------------------------------------
# The command as a benchmark harness runs it
# ----------------------------------------------------------------------
def _snapshot() -> dict[str, str]:
    """Hashes of committed results plus the names of repo-level caches."""
    root = common.ROOT
    state = {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((root / "benchmarks" / "results").glob("*"))
    }
    for cache in (".exec-cache", "benchmarks/.exec-cache", ".analysis-cache"):
        state[cache] = str((root / cache).exists())
    return state


def test_campaign_command_output_and_no_repo_writes():
    before = _snapshot()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=common.ROOT, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _snapshot() == before


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in common.ROOT.joinpath("perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((common.ROOT / "BENCHMARK.json").read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-spectr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _noop() -> int:
    return 0


def test_stop_children_ends_the_pool_resource_tracker():
    import os
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context, resource_tracker

    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        assert pool.submit(_noop).result(timeout=60) == 0
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    common.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already waited for, so reaped
