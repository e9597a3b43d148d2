"""Explicit vs. bitset model checking on scaled closed-loop models.

The scalable platform family (``core/scalable.py``) composed with
per-cluster budget counters gives a closed loop whose state space grows
as ``levels ** n_clusters`` — the stress model for the symbolic
verification kernel.  This bench verifies the flat supervisor against
the counter plant both ways:

* ``explicit_verify_supervisor`` — materialize the synchronous
  composition and walk Python sets (the pre-kernel oracle);
* ``verify_supervisor`` — the bitset reachability kernel
  (``repro/automata/symbolic.py``).

Hard assertions: the two reports must be **byte-identical** (same
``to_dict()`` payload — verdicts, blocking states, violation traces) at
every size, and the kernel must be at least 10x faster at the largest
size.  Each row also times supervisor *synthesis* on both engines
(explicit oracle vs. ``engine="symbolic"``, the default used by the
design flow and the REPRO-M007 stale-bundle re-synthesis), so the
recorded baselines reflect what the analyzer actually pays.  Timings
and speedups land in ``benchmarks/results/model_check.json``.

Set ``MODEL_CHECK_QUICK=1`` to cap the sweep at the mid size (used by
``scripts/check.sh`` so the pre-merge gate stays fast); the 10x
assertion then relaxes to 3x — small models cannot amortize encoding.
Quick runs write under ``benchmarks/results-quick/``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import host_metadata, results_dir

FULL_SIZES = [(2, 3), (4, 3), (7, 3)]
QUICK_SIZES = [(2, 3), (4, 3)]

# Speedup floors: python-set walking has low constants on tiny models,
# so only the largest size carries the headline requirement.
FULL_MIN_SPEEDUP = 10.0
QUICK_MIN_SPEEDUP = 3.0


def _verify_both(plant, supervisor):
    from repro.automata.verification import (
        explicit_verify_supervisor,
        verify_supervisor,
    )

    # Warm numpy dispatch paths before timing the kernel.
    verify_supervisor(plant, supervisor)
    start = time.perf_counter()
    symbolic = verify_supervisor(plant, supervisor)
    symbolic_s = time.perf_counter() - start

    start = time.perf_counter()
    explicit = explicit_verify_supervisor(plant, supervisor)
    explicit_s = time.perf_counter() - start
    return symbolic, symbolic_s, explicit, explicit_s


def _synthesize_both(plant, spec):
    from repro.automata import (
        explicit_synthesize_supervisor,
        synthesize_supervisor,
    )

    # Warm the encoding memo and numpy dispatch before timing.
    synthesize_supervisor(plant, spec, engine="symbolic")
    start = time.perf_counter()
    symbolic = synthesize_supervisor(plant, spec, engine="symbolic")
    symbolic_s = time.perf_counter() - start
    start = time.perf_counter()
    explicit = explicit_synthesize_supervisor(plant, spec)
    explicit_s = time.perf_counter() - start
    assert len(symbolic.supervisor) == len(explicit.supervisor)
    return symbolic_s, explicit_s


def test_model_check_speedup(save_result):
    from repro.core.scalable import (
        build_scalable_supervisor,
        scalable_alphabet,
        scalable_counter_plant,
        scalable_specification,
    )

    quick = bool(os.environ.get("MODEL_CHECK_QUICK"))
    sizes = QUICK_SIZES if quick else FULL_SIZES
    min_speedup = QUICK_MIN_SPEEDUP if quick else FULL_MIN_SPEEDUP

    rows = []
    for n_clusters, levels in sizes:
        sigma = scalable_alphabet(n_clusters)
        plant = scalable_counter_plant(n_clusters, levels, sigma)
        supervisor = build_scalable_supervisor(n_clusters).supervisor
        symbolic, symbolic_s, explicit, explicit_s = _verify_both(
            plant, supervisor
        )
        synth_symbolic_s, synth_explicit_s = _synthesize_both(
            plant, scalable_specification(n_clusters, sigma)
        )

        # The kernel must agree with the explicit oracle exactly —
        # verdicts, blocking-state names, violation traces, the lot.
        assert symbolic.to_dict() == explicit.to_dict()
        assert symbolic.verified

        rows.append(
            {
                "n_clusters": n_clusters,
                "budget_levels": levels,
                "plant_states": len(plant.states),
                "plant_transitions": plant.n_transitions,
                "supervisor_states": len(supervisor.states),
                "explicit_s": round(explicit_s, 4),
                "symbolic_s": round(symbolic_s, 4),
                "speedup": round(explicit_s / symbolic_s, 2),
                "synthesis_engine": "symbolic",
                "synth_explicit_s": round(synth_explicit_s, 4),
                "synth_symbolic_s": round(synth_symbolic_s, 4),
                "synth_speedup": round(
                    synth_explicit_s / synth_symbolic_s, 2
                ),
            }
        )

    largest = rows[-1]
    assert largest["speedup"] >= min_speedup, (
        f"bitset kernel only {largest['speedup']}x faster than explicit "
        f"at {largest['plant_states']} plant states (need "
        f">= {min_speedup}x)"
    )

    payload = {"quick": quick, "host": host_metadata(), "sizes": rows}
    (results_dir(quick) / "model_check.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        "explicit vs bitset supervisor verification and synthesis "
        "(byte-identical reports/bundles)",
        f"{'plant states':>13} {'verify expl':>12} {'verify symb':>12} "
        f"{'synth expl':>11} {'synth symb':>11} {'synth spd':>10}",
    ]
    lines += [
        f"{row['plant_states']:>13} {row['explicit_s']:>11.3f}s "
        f"{row['symbolic_s']:>11.3f}s {row['synth_explicit_s']:>10.3f}s "
        f"{row['synth_symbolic_s']:>10.3f}s {row['synth_speedup']:>9.1f}x"
        for row in rows
    ]
    save_result("model_check", "\n".join(lines), quick=quick)
