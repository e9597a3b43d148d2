"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``fleet-spectr``    N=1000 fleet under ``FleetSPECTR`` (``perfbench/fleet.py``)
* ``fleet-baselines`` the same fleet under MM-Pow, MM-Perf and FS in turn
* ``campaign``        the paper's scalar job matrices through the
                      experiment engine (``perfbench/campaign.py``)
* ``synthesis``       7-cluster synthesis and the 10-cluster fleet
                      fixpoint (``perfbench/synthesis.py``)

Each workload does *passes* made of *operations* (a supervisory period
of the whole fleet, a campaign job, a synthesis pass).  With
``--trace 0`` it reports the end-to-end metrics, measured without
instrumentation: ``setup_s`` (median of fresh interpreters, spawn to
ready), ``work_per_s`` (the workload's unit of work per second over all
timed passes: simulated device-ticks, jobs, or supervisor states),
``op_ms_p50``/``op_ms_p90`` and ``peak_rss_mb``.  With ``--trace 1`` a
separate run wraps calls into each layer and reports the per-layer
metrics; a layer the workload does not exercise reports 0.  Outputs are
checked against oracles in both modes, outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
carry host metadata and workload-specific figures (device-steps/s,
jobs/s, synthesis seconds, simulated quality) for people reading logs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("fleet-spectr", "fleet-baselines", "campaign", "synthesis")


def load_spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if workload.startswith("fleet-"):
        from perfbench import fleet

        mode = fleet.trace if traced else fleet.measure
        return mode(workload, seed, seconds)
    if workload == "campaign":
        from perfbench import campaign

        return (campaign.trace if traced else campaign.measure)(seed, seconds)
    from perfbench import synthesis

    return (synthesis.trace if traced else synthesis.measure)(seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    common.isolate_environment()
    import repro

    if Path(repro.__file__).resolve().parent != (common.SRC / "repro").resolve():
        raise SystemExit(f"benchmark needs the checkout's src/repro, found {repro.__file__}")
    # Compile (or load) the fused kernels once, before anything is timed.
    from repro.control.fused import fused_kernel

    fused = fused_kernel() is not None

    traced = bool(args.trace)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, traced)
    finally:
        common.stop_children()
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    reported = dict(outcome["metrics"])
    if not traced:
        reported["peak_rss_mb"] = common.peak_rss_mb()
    names = {m["name"] for m in declared}
    unknown = set(reported) - names
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not traced and names - set(reported):
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(names - set(reported))}")

    print(json.dumps({"host": common.host_metadata(fused), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    if outcome["summary"]:
        print(json.dumps({"summary": outcome["summary"]}))
    for error in outcome["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            m["name"]: {"value": float(reported.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
