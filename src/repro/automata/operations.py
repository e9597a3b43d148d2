"""Structural operations on DES automata.

Implements the synchronous composition operator ``||`` exactly as
defined in Section 4.3.1 of the paper, plus the reachability operators
(accessible, coaccessible, trim) on which supervisor synthesis is built.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from repro.automata.automaton import Automaton, AutomatonError, State
from repro.automata.events import Alphabet, Event
from repro.automata.symbolic import compose_encoded, encode_automaton


def synchronous_composition(
    a: Automaton, b: Automaton, name: str | None = None
) -> Automaton:
    """``A || B``: synchronize shared events, interleave private ones.

    Follows the paper's definition: for composite state ``qA.qB`` and
    event ``e``::

        delta(qA.qB, e) = delta_A(qA,e).delta_B(qB,e)  if defined in both
                          delta_A(qA,e).qB             if e not in Sigma_B
                          qA.delta_B(qB,e)             if e not in Sigma_A
                          undefined                    otherwise

    Marked states are pairs of marked states (``M_A x M_B``); a composite
    state is forbidden if either component is forbidden.  Only the
    reachable part of the product is constructed.
    """
    alphabet = a.alphabet.union(b.alphabet)
    _require_initial(a, b)
    return _compose([a, b], alphabet, name or f"{a.name}||{b.name}")


def compose_all(automata: Iterable[Automaton], name: str | None = None) -> Automaton:
    """``A_1 || A_2 || ... || A_n`` — the left fold of
    :func:`synchronous_composition`, built in one reachable-only pass.

    The alphabet is still folded pairwise, so controllability conflicts
    and missing initial states raise exactly where the fold would.  A
    single automaton is returned as is (renamed when ``name`` is given).
    """
    items = list(automata)
    if not items:
        raise AutomatonError("compose_all requires at least one automaton")
    if len(items) == 1:
        result = items[0]
    else:
        alphabet = items[0].alphabet
        for k, other in enumerate(items[1:]):
            alphabet = alphabet.union(other.alphabet)
            _require_initial(*(items[:2] if k == 0 else [other]))
        result = _compose(items, alphabet, "||".join(a.name for a in items))
    if name is not None:
        result.name = name
    return result


def _require_initial(*automata: Automaton) -> None:
    """Raise the :class:`AutomatonError` of the first automaton that has
    no initial state."""
    for automaton in automata:
        automaton.initial  # the property raises when it is missing


def _compose(items: list[Automaton], alphabet: Alphabet, name: str) -> Automaton:
    """Materialize the reachable product of ``items`` as an automaton.

    States come in FIFO-BFS discovery order and transitions in (source,
    event) order, as a state-at-a-time BFS would add them.  The bulk
    build skips add_transition's coercion and determinism checks; both
    are vacuous for a product of deterministic automata over the union
    alphabet.
    """
    product = compose_encoded([encode_automaton(a) for a in items])
    composed = Automaton(name, alphabet)
    labels = product.labels()
    states = np.empty(labels.size, dtype=object)
    states[:] = [State(label) for label in labels.tolist()]
    composed._states = {state.name: state for state in states.tolist()}
    composed._marked = set(states[product.all_marked()].tolist())
    composed._forbidden = set(states[product.any_forbidden()].tolist())
    composed._initial = states[0]

    events = np.empty(len(product.event_names), dtype=object)
    events[:] = [alphabet[event] for event in product.event_names]
    edge_src, edge_event, edge_dst = product.edges()
    sources = states[edge_src].tolist()
    edge_events = events[edge_event].tolist()
    composed._delta = dict(
        zip(zip(sources, edge_events), states[edge_dst].tolist())
    )
    # Edges are grouped by source already (discovery order).
    starts = np.flatnonzero(np.diff(edge_src, prepend=-1)).tolist()
    ends = starts[1:] + [len(sources)]
    composed._enabled = {
        sources[a]: set(edge_events[a:b]) for a, b in zip(starts, ends)
    }
    return composed


def accessible_states(automaton: Automaton) -> frozenset[State]:
    """States reachable from the initial state."""
    if not automaton.has_initial:
        return frozenset()
    # Forward adjacency built once: automaton.successors is
    # O(transitions) per call, which made this quadratic on product
    # automata before the symbolic kernel benchmarks exposed it.
    forward: dict[State, set[State]] = {}
    for source, _event, target in automaton.iter_transitions():
        forward.setdefault(source, set()).add(target)
    seen: set[State] = {automaton.initial}
    frontier = deque([automaton.initial])
    while frontier:
        state = frontier.popleft()
        for successor in forward.get(state, ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


def coaccessible_states(automaton: Automaton) -> frozenset[State]:
    """States from which some marked state is reachable.

    Computed by backward breadth-first search from the marked states.
    """
    seen: set[State] = set(automaton.marked)
    frontier = deque(automaton.marked)
    # Precompute the reverse adjacency once; automaton.predecessors is
    # O(transitions) per call which would make this quadratic.
    reverse: dict[State, set[State]] = {}
    for source, _event, target in automaton.iter_transitions():
        reverse.setdefault(target, set()).add(source)
    while frontier:
        state = frontier.popleft()
        for predecessor in reverse.get(state, ()):
            if predecessor not in seen:
                seen.add(predecessor)
                frontier.append(predecessor)
    return frozenset(seen)


def accessible(automaton: Automaton, name: str | None = None) -> Automaton:
    """Restrict to the reachable part."""
    return automaton.restricted_to(accessible_states(automaton), name=name)


def coaccessible(automaton: Automaton, name: str | None = None) -> Automaton:
    """Restrict to states that can still reach a marked state."""
    return automaton.restricted_to(coaccessible_states(automaton), name=name)


def trim(automaton: Automaton, name: str | None = None) -> Automaton:
    """Accessible *and* coaccessible part — the paper's trimming algorithm.

    A trim automaton is nonblocking by construction: every reachable
    state can complete some task (reach a marked state).
    """
    keep = accessible_states(automaton) & coaccessible_states(automaton)
    return automaton.restricted_to(keep, name=name)


def is_nonblocking(automaton: Automaton) -> bool:
    """True iff every reachable state is coaccessible (Section 4.3.4)."""
    reachable = accessible_states(automaton)
    if not reachable:
        return True
    return reachable <= coaccessible_states(automaton)


def blocking_states(automaton: Automaton) -> frozenset[State]:
    """Reachable states from which no marked state can be reached."""
    return frozenset(accessible_states(automaton) - coaccessible_states(automaton))


def disabled_uncontrollable(
    plant: Automaton, candidate: Automaton, state_map: dict[State, State]
) -> dict[State, frozenset[Event]]:
    """For each candidate state, plant-enabled uncontrollable events it disables.

    ``state_map`` maps candidate states to the plant states they refine.
    A non-empty result means ``candidate`` is not controllable w.r.t. the
    plant.
    """
    violations: dict[State, frozenset[Event]] = {}
    for cand_state, plant_state in state_map.items():
        plant_enabled = {
            e for e in plant.enabled_events(plant_state) if not e.controllable
        }
        cand_enabled = candidate.enabled_events(cand_state)
        missing = frozenset(plant_enabled - set(cand_enabled))
        if missing:
            violations[cand_state] = missing
    return violations
