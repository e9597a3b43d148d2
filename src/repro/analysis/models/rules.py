"""REPRO-M rules: model checks on formal artifacts.

Unlike strict decode in :mod:`repro.analysis.models.scan` (payload and
schema sanity on serialized automata), the M-rules model-check the
*behaviour*: reachability, blocking, and controllability verdicts come
from the bitset kernel in :mod:`repro.automata.symbolic` and every
negative verdict carries a shortest counterexample event trace,
mirroring what Supremica's verification dialogs give the paper's
authors.

Rules
-----
``REPRO-M001`` (warning)
    Unreachable states, and reachable dead states (no outgoing
    transitions, unmarked, not forbidden) — modelling debris.
``REPRO-M002`` (error)
    Blocking states — reachable but unable to reach any marked state —
    with a shortest counterexample trace to the nearest one.  Forbidden
    states are excluded: a specification *declares* bad states; blocking
    is judged on the permitted remainder.  Checked per model and on the
    closed loop ``plant || supervisor``.
``REPRO-M003`` (error)
    Controllability violations of a supervisor against its plant, one
    finding per violation with the witness trace.
``REPRO-M004`` (error / warning)
    Alphabet inconsistencies across a plant/specification/supervisor
    set (an event controllable in one model, uncontrollable in another;
    specification events the plant does not know), and — per model —
    alphabet events never enabled at any state (spec coverage gaps).
``REPRO-M005`` (warning)
    Uncontrollable dead-ends: a healthy reachable state with an
    uncontrollable transition into a forbidden or blocking state — the
    environment, not the supervisor, decides whether the model degrades.
``REPRO-M006`` (error / warning)
    Runtime-monitor consistency: the RES-I2/RES-I3 episode rules of
    ``resilience/monitor.py`` replayed against the supervisor model via
    a capping-episode tracker product.  Flags transitions the monitor
    would reject although the model permits them (budget raises during
    an episode, escalated criticals with no hard-drop answer) and rules
    the model can never trigger.
``REPRO-M007`` (error / warning)
    Stale persisted supervisor: re-synthesize the supremal controllable
    supervisor from the bundled plant (and specification when present)
    and compare languages and canonical digests; a divergence means the
    shipped artifact no longer matches what synthesis would produce.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.automata.automaton import Automaton, automaton_from_table
from repro.automata.events import Alphabet
from repro.automata.language import marked_language_difference
from repro.automata.serialization import canonical_digest
from repro.automata.symbolic import (
    EncodedAutomaton,
    SearchTree,
    backward_reachable,
    encode_automaton,
    forward_reachable,
    forward_search,
    nearest_state,
    restrict_states,
    synchronous_product,
    witness_trace,
)
from repro.automata.synthesis import SynthesisError, synthesize_supervisor
from repro.automata.verification import check_controllability
from repro.core.alphabet import (
    CRITICAL,
    DECREASE_CRITICAL_POWER,
    INCREASE_BIG_POWER,
    INCREASE_LITTLE_POWER,
    SAFE_POWER,
)

__all__ = [
    "MAX_LISTED",
    "MAX_PER_RULE",
    "check_alphabet_consistency",
    "check_bundle_freshness",
    "check_closed_loop_blocking",
    "check_event_coverage",
    "check_model",
    "check_monitor_consistency",
    "check_pair_controllability",
    "check_reachability",
]

# How many state/event names a summary message lists before eliding.
MAX_LISTED = 8
# How many findings one rule may emit per model before summarizing.
MAX_PER_RULE = 10


def _names(items: list[str]) -> str:
    shown = items[:MAX_LISTED]
    suffix = ", ..." if len(items) > MAX_LISTED else ""
    return "[" + ", ".join(repr(name) for name in shown) + suffix + "]"


def _trace_text(trace: tuple[str, ...]) -> str:
    return "[" + " -> ".join(trace) + "]" if trace else "[]"


def _finding(
    path: str, rule: str, severity: Severity, message: str
) -> Finding:
    return Finding(
        path=path, line=1, rule=rule, severity=severity, message=message
    )


# ----------------------------------------------------------------------
# M001 / M002 / M005 — reachability, blocking, uncontrollable dead-ends
# ----------------------------------------------------------------------
def check_reachability(
    automaton: Automaton,
    path: str,
    *,
    role: str | None = None,
    enc: EncodedAutomaton | None = None,
) -> list[Finding]:
    """M001 (unreachable/dead), M002 (blocking + trace), M005
    (uncontrollable dead-ends).

    ``role='specification'`` skips M005 — a specification *intentionally*
    routes uncontrollable events into forbidden states so synthesis must
    avoid the prefix; flagging that would punish the paper's own models.
    """
    findings: list[Finding] = []
    enc = enc if enc is not None else encode_automaton(automaton)
    if enc.initial < 0:
        findings.append(
            _finding(
                path,
                "REPRO-M001",
                Severity.WARNING,
                f"automaton {automaton.name!r} has no initial state; every "
                "state is unreachable",
            )
        )
        return findings

    full_reach = forward_reachable(enc)
    unreachable = ~full_reach
    if unreachable.any():
        names = sorted(
            enc.state_label(int(i)) for i in np.flatnonzero(unreachable)
        )
        findings.append(
            _finding(
                path,
                "REPRO-M001",
                Severity.WARNING,
                f"automaton {automaton.name!r}: "
                f"{len(names)} unreachable state(s): {_names(names)}",
            )
        )

    # Out-degree zero, reachable, neither marked nor forbidden: a state
    # the model can enter but never leave or complete from.
    out_degree = np.zeros(enc.n_states, dtype=np.int64)
    for e in range(enc.n_events):
        if enc.src[e].size:
            np.add.at(out_degree, enc.src[e], 1)
    dead = full_reach & (out_degree == 0) & ~enc.marked & ~enc.forbidden
    if dead.any():
        names = sorted(enc.state_label(int(i)) for i in np.flatnonzero(dead))
        findings.append(
            _finding(
                path,
                "REPRO-M001",
                Severity.WARNING,
                f"automaton {automaton.name!r}: {len(names)} dead state(s) "
                f"(no outgoing transitions, unmarked): {_names(names)}",
            )
        )

    blocking_findings, tree, blocking = _blocking(
        enc, enc.state_label, path, f"automaton {automaton.name!r}"
    )
    findings.extend(blocking_findings)

    if role != "specification":
        findings.extend(
            _uncontrollable_deadends(
                automaton, path, enc, tree.visited, blocking, tree
            )
        )
    return findings


def _blocking(
    enc: EncodedAutomaton,
    label: Callable[[int], str],
    path: str,
    subject: str,
) -> tuple[list[Finding], SearchTree, np.ndarray]:
    """M002 on ``enc``, judged on the non-forbidden subgraph: one finding
    with a shortest counterexample trace if any reachable state cannot
    reach a marked one, plus the search tree and the blocking mask."""
    restricted = restrict_states(enc, ~enc.forbidden)
    tree = forward_search(restricted)
    blocking = tree.visited & ~backward_reachable(restricted)
    findings: list[Finding] = []
    if blocking.any():
        names = sorted(label(int(i)) for i in np.flatnonzero(blocking))
        witness_target = nearest_state(tree, blocking)
        trace = witness_trace(restricted, tree, witness_target)
        findings.append(
            _finding(
                path,
                "REPRO-M002",
                Severity.ERROR,
                f"{subject}: {len(names)} blocking state(s) {_names(names)}; "
                f"shortest counterexample trace to {label(witness_target)!r}: "
                f"{_trace_text(trace)}",
            )
        )
    return findings, tree, blocking


def check_closed_loop_blocking(
    plant: Automaton, supervisor: Automaton, path: str
) -> list[Finding]:
    """M002 on the closed loop ``plant || supervisor``: a supervisor that
    is nonblocking alone can still steer the product into a state with
    no path back to a marked pair (Figure 11 step 5)."""
    pair = synchronous_product(
        encode_automaton(plant), encode_automaton(supervisor)
    )
    findings, _, _ = _blocking(
        pair.product,
        pair.pair_label,
        path,
        f"closed loop {plant.name!r} || {supervisor.name!r}",
    )
    return findings


def _uncontrollable_deadends(
    automaton: Automaton,
    path: str,
    enc: EncodedAutomaton,
    reach: np.ndarray,
    blocking: np.ndarray,
    tree,
) -> list[Finding]:
    """M005: uncontrollable transitions from healthy reachable states
    into forbidden or blocking states."""
    bad = enc.forbidden | blocking
    if not bad.any():
        return []
    findings: list[Finding] = []
    hits: list[tuple[tuple[str, ...], str, str, str]] = []
    for e in range(enc.n_events):
        if enc.event_controllable[e] or not enc.src[e].size:
            continue
        src, dst = enc.src[e], enc.dst[e]
        mask = reach[src] & ~bad[src] & bad[dst]
        for k in np.flatnonzero(mask):
            source = int(src[k])
            hits.append(
                (
                    witness_trace(enc, tree, source),
                    enc.state_label(source),
                    enc.event_names[e],
                    enc.state_label(int(dst[k])),
                )
            )
    hits.sort(key=lambda h: (len(h[0]), h[0], h[1], h[2]))
    for trace, source, event, target in hits[:MAX_PER_RULE]:
        findings.append(
            _finding(
                path,
                "REPRO-M005",
                Severity.WARNING,
                f"automaton {automaton.name!r}: uncontrollable event "
                f"{event!r} forces state {source!r} into degraded state "
                f"{target!r}; witness trace: {_trace_text(trace)}",
            )
        )
    if len(hits) > MAX_PER_RULE:
        findings.append(
            _finding(
                path,
                "REPRO-M005",
                Severity.WARNING,
                f"automaton {automaton.name!r}: "
                f"{len(hits) - MAX_PER_RULE} further uncontrollable "
                "dead-end(s) elided",
            )
        )
    return findings


# ----------------------------------------------------------------------
# M003 — controllability with witness traces
# ----------------------------------------------------------------------
def check_pair_controllability(
    plant: Automaton, supervisor: Automaton, path: str
) -> list[Finding]:
    """M003: every violation of L(S/P) controllability, with traces."""
    ok, violations = check_controllability(plant, supervisor)
    if ok:
        return []
    findings = [
        _finding(
            path,
            "REPRO-M003",
            Severity.ERROR,
            f"{violation}; witness trace: {_trace_text(violation.trace)}",
        )
        for violation in violations[:MAX_PER_RULE]
    ]
    if len(violations) > MAX_PER_RULE:
        findings.append(
            _finding(
                path,
                "REPRO-M003",
                Severity.ERROR,
                f"{len(violations) - MAX_PER_RULE} further controllability "
                "violation(s) elided",
            )
        )
    return findings


# ----------------------------------------------------------------------
# M004 — alphabet consistency and spec coverage
# ----------------------------------------------------------------------
def check_event_coverage(
    automaton: Automaton,
    path: str,
    *,
    enc: EncodedAutomaton | None = None,
) -> list[Finding]:
    """M004 (per model): alphabet events never enabled at any state."""
    enc = enc if enc is not None else encode_automaton(automaton)
    silent = sorted(
        enc.event_names[e]
        for e in range(enc.n_events)
        if not enc.src[e].size
    )
    if not silent:
        return []
    return [
        _finding(
            path,
            "REPRO-M004",
            Severity.WARNING,
            f"automaton {automaton.name!r}: event(s) {_names(silent)} are "
            "in the alphabet but never enabled at any state (spec "
            "coverage gap)",
        )
    ]


def check_alphabet_consistency(
    models: dict[str, Automaton], path: str
) -> list[Finding]:
    """M004 (cross-model): attribute disagreements and plant coverage.

    An event that is controllable in one model and uncontrollable in
    another silently changes the synthesis result — error.  A
    specification event the plant's alphabet lacks constrains nothing —
    warning.
    """
    findings: list[Finding] = []
    seen: dict[str, tuple[str, bool, bool]] = {}
    for role in sorted(models):
        automaton = models[role]
        for event in automaton.alphabet:
            prior = seen.get(event.name)
            if prior is None:
                seen[event.name] = (
                    role,
                    event.controllable,
                    event.observable,
                )
                continue
            prior_role, prior_ctrl, prior_obs = prior
            if prior_ctrl != event.controllable:
                findings.append(
                    _finding(
                        path,
                        "REPRO-M004",
                        Severity.ERROR,
                        f"event {event.name!r} is "
                        f"{'controllable' if prior_ctrl else 'uncontrollable'}"
                        f" in {prior_role!r} but "
                        f"{'controllable' if event.controllable else 'uncontrollable'}"
                        f" in {role!r}",
                    )
                )
            elif prior_obs != event.observable:
                findings.append(
                    _finding(
                        path,
                        "REPRO-M004",
                        Severity.ERROR,
                        f"event {event.name!r} is "
                        f"{'observable' if prior_obs else 'unobservable'} in "
                        f"{prior_role!r} but "
                        f"{'observable' if event.observable else 'unobservable'}"
                        f" in {role!r}",
                    )
                )
    plant = models.get("plant")
    specification = models.get("specification")
    if plant is not None and specification is not None:
        plant_names = {e.name for e in plant.alphabet}
        orphaned = sorted(
            e.name
            for e in specification.alphabet
            if e.name not in plant_names
        )
        if orphaned:
            findings.append(
                _finding(
                    path,
                    "REPRO-M004",
                    Severity.WARNING,
                    f"specification event(s) {_names(orphaned)} are not in "
                    "the plant alphabet and constrain nothing",
                )
            )
    return findings


# ----------------------------------------------------------------------
# M006 — runtime-monitor consistency
# ----------------------------------------------------------------------
def _episode_tracker(alphabet: Alphabet) -> Automaton:
    """The capping-episode flag the runtime monitor keeps: Free until an
    accepted ``critical``, back to Free on ``safePower`` (the exact
    semantics of ``InvariantMonitor.capping_episode``)."""
    sigma = Alphabet.of([alphabet[CRITICAL], alphabet[SAFE_POWER]])
    return automaton_from_table(
        "EpisodeTracker",
        sigma,
        transitions=[
            ("Free", SAFE_POWER, "Free"),
            ("Free", CRITICAL, "Locked"),
            ("Locked", CRITICAL, "Locked"),
            ("Locked", SAFE_POWER, "Free"),
        ],
        initial="Free",
        marked=["Free", "Locked"],
    )


def check_monitor_consistency(
    supervisor: Automaton,
    path: str,
    *,
    enc: EncodedAutomaton | None = None,
) -> list[Finding]:
    """M006: replay the monitor's RES-I2/RES-I3 episode rules against
    the supervisor model.

    The monitor (``repro/resilience/monitor.py``) tracks a capping
    episode between an accepted ``critical`` and the next ``safePower``.
    We shadow that flag as a two-state tracker composed with the
    supervisor and check, over the *reachable* product:

    * RES-I2 shadow — the model must not enable a budget-raising action
      while the episode flag is set, else every such run is flagged by a
      monitor that is right to do so (error, with witness trace);
    * RES-I3 shadow — after an escalated ``critical`` (fired while the
      episode is active) the hard drop ``decreaseCriticalPower`` must be
      executable via controllable events only, or the monitor's demand
      can never be satisfied (error, with witness trace);
    * dead rules — if ``critical`` can never fire, RES-I2/RES-I3 can
      never trigger at runtime (warning);
    * ambiguity — a state reachable both inside and outside an episode
      makes the monitor's verdict trace-dependent (warning).

    Skipped entirely for models whose alphabet lacks the capping events.
    """
    names = {event.name for event in supervisor.alphabet}
    if CRITICAL not in names or SAFE_POWER not in names:
        return []
    enc = enc if enc is not None else encode_automaton(supervisor)
    if enc.initial < 0:
        return []
    findings: list[Finding] = []
    critical_enabled = enc.event_enabled(CRITICAL)
    if not critical_enabled.any():
        findings.append(
            _finding(
                path,
                "REPRO-M006",
                Severity.WARNING,
                f"automaton {supervisor.name!r}: {CRITICAL!r} is never "
                "enabled, so monitor rules RES-I2/RES-I3 can never trigger",
            )
        )
        return findings

    tracker = encode_automaton(_episode_tracker(supervisor.alphabet))
    # Sorted state order puts Free at 0, Locked at 1.
    locked_index = tracker.state_names.index("Locked")  # type: ignore[union-attr]
    pair = synchronous_product(enc, tracker)
    tree = forward_search(pair.product)
    visited = tree.visited.reshape(enc.n_states, tracker.n_states)
    locked_reach = visited[:, locked_index]
    free_reach = visited[:, 1 - locked_index]

    # RES-I2 shadow: budget raises while the episode flag is set.
    for event_name in (INCREASE_BIG_POWER, INCREASE_LITTLE_POWER):
        if event_name not in names:
            continue
        raised = locked_reach & enc.event_enabled(event_name)
        for state in np.flatnonzero(raised)[:MAX_PER_RULE]:
            target = int(state) * tracker.n_states + locked_index
            findings.append(
                _finding(
                    path,
                    "REPRO-M006",
                    Severity.ERROR,
                    f"automaton {supervisor.name!r}: {event_name!r} is "
                    f"enabled at state {enc.state_label(int(state))!r} "
                    "during a capping episode — the runtime monitor "
                    "(RES-I2) rejects every such execution; witness "
                    f"trace: {_trace_text(witness_trace(pair.product, tree, target))}",
                )
            )

    # RES-I3 shadow: escalated criticals must admit the hard drop.
    if DECREASE_CRITICAL_POWER in names:
        drop_enabled = enc.event_enabled(DECREASE_CRITICAL_POWER)
        critical_index = enc.event_index(CRITICAL)
        assert critical_index is not None
        src, dst = enc.src[critical_index], enc.dst[critical_index]
        controllable_only = enc.event_controllable.copy()
        emitted = 0
        for k in np.flatnonzero(locked_reach[src]):
            if emitted >= MAX_PER_RULE:
                break
            source, target = int(src[k]), int(dst[k])
            start = np.zeros(enc.n_states, dtype=bool)
            start[target] = True
            closure = forward_reachable(
                enc, start=start, event_mask=controllable_only
            )
            if (closure & drop_enabled).any():
                continue
            pair_source = source * tracker.n_states + locked_index
            trace = witness_trace(pair.product, tree, pair_source)
            emitted += 1
            findings.append(
                _finding(
                    path,
                    "REPRO-M006",
                    Severity.ERROR,
                    f"automaton {supervisor.name!r}: escalated "
                    f"{CRITICAL!r} at state {enc.state_label(source)!r} "
                    f"reaches {enc.state_label(target)!r} where "
                    f"{DECREASE_CRITICAL_POWER!r} cannot be executed via "
                    "controllable events — the monitor's RES-I3 demand is "
                    f"unsatisfiable; witness trace: "
                    f"{_trace_text(trace + (CRITICAL,))}",
                )
            )
    else:
        findings.append(
            _finding(
                path,
                "REPRO-M006",
                Severity.WARNING,
                f"automaton {supervisor.name!r}: alphabet lacks "
                f"{DECREASE_CRITICAL_POWER!r}, so the monitor's RES-I3 "
                "demand can never be satisfied",
            )
        )

    ambiguous = locked_reach & free_reach
    if ambiguous.any():
        listed = sorted(
            enc.state_label(int(i)) for i in np.flatnonzero(ambiguous)
        )
        findings.append(
            _finding(
                path,
                "REPRO-M006",
                Severity.WARNING,
                f"automaton {supervisor.name!r}: state(s) {_names(listed)} "
                "are reachable both inside and outside a capping episode; "
                "monitor verdicts for RES-I2/RES-I3 become trace-dependent",
            )
        )
    return findings


# ----------------------------------------------------------------------
# M007 — stale-bundle detection
# ----------------------------------------------------------------------
def check_bundle_freshness(
    plant: Automaton,
    supervisor: Automaton,
    path: str,
    *,
    specification: Automaton | None = None,
) -> list[Finding]:
    """M007: does re-synthesis still produce the persisted supervisor?

    With a specification we re-run the paper's full design flow
    (``supC(plant, spec)``); without one, the persisted supervisor
    itself serves as the specification — for a genuine synthesis output
    ``supC(plant, supervisor)`` reproduces it exactly, so any
    difference means the artifact predates a model change.

    Re-synthesis runs on the symbolic engine (the explicit oracle yields
    an identical supervisor, only slower — large persisted bundles made
    this rule the analyzer's long pole before the bitset fixpoint).
    """
    spec = specification if specification is not None else supervisor
    try:
        synthesis = synthesize_supervisor(plant, spec, engine="symbolic")
    except (SynthesisError, ValueError) as exc:
        return [
            _finding(
                path,
                "REPRO-M007",
                Severity.ERROR,
                f"re-synthesis from the bundled models failed: {exc}",
            )
        ]
    fresh = synthesis.supervisor
    persisted_digest = canonical_digest(supervisor)
    fresh_digest = canonical_digest(fresh)
    difference = marked_language_difference(supervisor, fresh)
    if difference is not None:
        trace, reason = difference
        return [
            _finding(
                path,
                "REPRO-M007",
                Severity.ERROR,
                "persisted supervisor is stale: re-synthesized supremal "
                f"controllable supervisor diverges after trace "
                f"{_trace_text(trace)} ({reason}); persisted digest "
                f"{persisted_digest[:12]}, re-synthesized {fresh_digest[:12]}",
            )
        ]
    if persisted_digest != fresh_digest:
        return [
            _finding(
                path,
                "REPRO-M007",
                Severity.WARNING,
                "persisted supervisor is language-equivalent to the "
                "re-synthesized one but not canonically isomorphic "
                f"(digest {persisted_digest[:12]} vs {fresh_digest[:12]}); "
                "it likely carries redundant states",
            )
        ]
    return []


# ----------------------------------------------------------------------
# Per-model driver
# ----------------------------------------------------------------------
def check_model(
    automaton: Automaton, path: str, *, role: str | None = None
) -> list[Finding]:
    """All single-model M-rules for one automaton.

    ``role`` tunes the rules: specifications skip M005 (their forbidden
    traps are intentional) and only supervisors get the M006 monitor
    replay (the monitor replays the deployed supervisor, nothing else).
    """
    enc = encode_automaton(automaton)
    findings = check_reachability(automaton, path, role=role, enc=enc)
    findings.extend(check_event_coverage(automaton, path, enc=enc))
    if role == "supervisor":
        findings.extend(check_monitor_consistency(automaton, path, enc=enc))
    return findings
