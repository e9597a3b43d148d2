"""The ``synthesis`` workload: supremal supervisor synthesis at scale.

One pass builds the scalable 7-cluster model (3 budget levels: 61,236
plant states) and runs ``synthesize_supervisor`` on it, then folds the
10-cluster fleet model (2 levels) with ``encode_composition`` and runs
``supremal_fixpoint``.  Model objects are built anew in every pass, so
the ``encode_automaton`` memo never serves a repeat.  The work rate is
supervisor states synthesized per second; the operation is the pass.

The models are fixed by the workload's definition.  The seed draws what
the checks look at: the budget levels of the 4-cluster model that is
synthesized by both engines and compared byte for byte, and the sample
of 7-cluster supervisor states whose uncontrollable events are checked
against the plant.
"""

from __future__ import annotations

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

SCALABLE = {"n_clusters": 7, "levels": 3}
FLEET = {"n_clusters": 10, "levels": 2}
SPOT_CHECKS = 64

# Committed in benchmarks/results/symbolic_synthesis.json.
EXPECTED = {
    "scalable": {"plant_states": 61236, "supervisor_states": 43740,
                 "removed_uncontrollable": 8748, "removed_blocking": 0},
    "fleet": {"supervisor_states": 102400, "removed_uncontrollable": 45056,
              "removed_blocking": 0},
}


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 0x5E7])
    return {
        "cross_check_levels": int(rng.integers(2, 4)),
        "spot_check_ranks": sorted(
            int(i)
            for i in rng.choice(
                EXPECTED["scalable"]["supervisor_states"], SPOT_CHECKS, replace=False
            )
        ),
    }


def one_pass(tracer: Tracer | None = None) -> dict:
    """Build both models and synthesize; spans cover each stage."""
    import repro.automata.symbolic_synthesis as symbolic
    from repro.automata import encode_composition, synthesize_supervisor
    from repro.core import scalable

    build_scalable = _build_scalable
    build_fleet = _build_fleet
    synthesize, compose = synthesize_supervisor, encode_composition
    fixpoint, encode = symbolic.supremal_fixpoint, symbolic.encode_automaton
    if tracer is not None:
        build_scalable = tracer.timed("automata.build_model", build_scalable)
        build_fleet = tracer.timed("automata.build_model", build_fleet)
        synthesize = tracer.timed("automata.synthesize", synthesize)
        compose = tracer.timed("automata.encode", compose)
        tracer.patch(symbolic, "encode_automaton", "automata.encode")
        tracer.patch(symbolic, "supremal_fixpoint", "automata.fixpoint")
        fixpoint, encode = symbolic.supremal_fixpoint, symbolic.encode_automaton
    try:
        plant, spec = build_scalable(scalable)
        result = synthesize(plant, spec)
        components, fleet_spec = build_fleet(scalable)
        fleet = fixpoint(compose(components), encode(fleet_spec))
    finally:
        if tracer is not None:
            tracer.detach()
    return {"plant": plant, "result": result, "fleet": fleet}


def _build_scalable(scalable):
    sigma = scalable.scalable_alphabet(SCALABLE["n_clusters"])
    plant = scalable.scalable_counter_plant(
        SCALABLE["n_clusters"], SCALABLE["levels"], sigma
    )
    return plant, scalable.scalable_specification(SCALABLE["n_clusters"], sigma)


def _build_fleet(scalable):
    sigma = scalable.fleet_alphabet(FLEET["n_clusters"])
    components = scalable.fleet_plant_components(
        FLEET["n_clusters"], FLEET["levels"], sigma
    )
    return components, scalable.fleet_specification(FLEET["n_clusters"], sigma)


def check(outcome: dict, inputs: dict) -> list[str]:
    """State and pruning counts against the committed values, plus the
    seeded controllability spot check; returns what failed."""
    result, fleet, plant = outcome["result"], outcome["fleet"], outcome["plant"]
    got = {
        "scalable": {
            "plant_states": len(plant.states),
            "supervisor_states": len(result.supervisor),
            "removed_uncontrollable": len(result.removed_uncontrollable),
            "removed_blocking": len(result.removed_blocking),
        },
        "fleet": {
            "supervisor_states": fleet.n_supervisor_states,
            "removed_uncontrollable": int(fleet.removed_uncontrollable.sum()),
            "removed_blocking": int(fleet.removed_blocking.sum()),
        },
    }
    failures = [
        f"{model} {key}: {got[model][key]} != {value}"
        for model, expected in EXPECTED.items()
        for key, value in expected.items()
        if got[model][key] != value
    ]
    supervisor = result.supervisor
    states = sorted(supervisor.states, key=lambda s: s.name)
    for rank in inputs["spot_check_ranks"]:
        if rank >= len(states):
            failures.append(f"spot-check state {rank} missing")
            continue
        state = states[rank]
        enabled = supervisor.enabled_events(state)
        for event in plant.enabled_events(result.state_map[state].plant):
            if not event.controllable and event not in enabled:
                failures.append(f"{state.name} disables {event.name}")
    return failures


def cross_check(levels: int) -> list[str]:
    """Symbolic and explicit engines agree byte for byte at 4 clusters."""
    from repro.automata import (
        automaton_to_dict,
        explicit_synthesize_supervisor,
        synthesize_supervisor,
    )
    from repro.core import scalable

    sigma = scalable.scalable_alphabet(4)
    plant = scalable.scalable_counter_plant(4, levels, sigma)
    spec = scalable.scalable_specification(4, sigma)
    symbolic = synthesize_supervisor(plant, spec, engine="symbolic")
    explicit = explicit_synthesize_supervisor(plant, spec)
    same = (
        automaton_to_dict(symbolic.supervisor) == automaton_to_dict(explicit.supervisor)
        and symbolic.removed_uncontrollable == explicit.removed_uncontrollable
        and symbolic.removed_blocking == explicit.removed_blocking
        and symbolic.iterations == explicit.iterations
        and symbolic.state_map == explicit.state_map
    )
    return [] if same else [f"4-cluster x{levels} engines disagree"]


def measure(seed: int, seconds: float) -> dict:
    probes = setup_probes("synthesis", seed, 5, cold=False)
    inputs = make_inputs(seed)
    failures = cross_check(inputs["cross_check_levels"])
    checks = [1]

    def after(outcome: dict) -> None:
        checks[0] += 1
        failures.extend(check(outcome, inputs))

    log = run_passes(one_pass, seconds, after=after)
    attempted = checks[0] + len(log.errors)
    failed = len(failures) + len(log.errors)
    pass_s = median(log.seconds)
    states = sum(EXPECTED[model]["supervisor_states"] for model in EXPECTED)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": log.errors + failures,
        "metrics": {
            "setup_s": median(p["setup_s"] for p in probes),
            "work_per_s": states * len(log.seconds) / sum(log.seconds),
            "op_ms_p50": pass_s * 1e3,
            "op_ms_p90": percentile(log.seconds, 90) * 1e3,
        },
        "summary": {
            "synth_s": pass_s,
            "passes": len(log.seconds),
            "failed_frac": failed / attempted,
        },
    }


def trace(seed: int, seconds: float) -> dict:
    """Traced run: cold set-up probes, then untraced and traced passes
    alternating; stage times are per traced pass."""
    probes = setup_probes("synthesis", seed, 3, cold=True)
    inputs = make_inputs(seed)
    failures = cross_check(inputs["cross_check_levels"])
    tracer = Tracer()
    outcomes: list[dict] = []

    def traced_pass() -> dict:
        outcomes.append(one_pass(tracer))
        return outcomes[-1]

    plain, traced = alternate_passes(
        one_pass, traced_pass, seconds, lambda o: failures.extend(check(o, inputs))
    )
    passes = len(traced)
    result, fleet = outcomes[0]["result"], outcomes[0]["fleet"]
    metrics = setup_splits(probes)
    metrics.update({
        "automata.build_model_s": tracer.self_s["automata.build_model"] / passes,
        "automata.encode_s": tracer.self_s["automata.encode"] / passes,
        "automata.fixpoint_s": tracer.self_s["automata.fixpoint"] / passes,
        # The self time of synthesize_supervisor: decoding the fixpoint
        # back into a named supervisor automaton.
        "automata.decode_s": tracer.self_s["automata.synthesize"] / passes,
        "automata.fixpoint_rounds": float(result.iterations + fleet.iterations),
        "automata.product_states": float(len(outcomes[0]["plant"].states)),
        "automata.supervisor_states": float(len(result.supervisor)),
        "trace.overhead_frac": median(traced) / median(plain) - 1.0,
    })
    return {
        "attempted": 1 + len(plain) + len(traced),
        "failed": len(failures),
        "errors": failures,
        "metrics": metrics,
        "summary": {"traced_passes": passes, "plain_passes": len(plain)},
    }
