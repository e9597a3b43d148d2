"""Reference implementations of the product constructions (test oracles).

These are the original, obviously-correct product builders that
``repro.automata`` replaced with the level-synchronous reachable-product
kernel (:func:`repro.automata.symbolic.reachable_product`):

* :func:`oracle_synchronous_composition` / :func:`oracle_compose_all` —
  the per-state, per-event Python BFS over pairs, folded left;
* :func:`oracle_synthesis_product` — the full cross join of
  :func:`~repro.automata.symbolic.synchronous_product` with
  specification-private events muted;
* :func:`oracle_encode_composition` — the fold of
  :func:`~repro.automata.symbolic.synchronous_product`, restricted to
  the forward-reachable part after every step.

The differential tests compare the kernel-backed versions against them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable

import numpy as np

from repro.automata.automaton import Automaton, AutomatonError, State
from repro.automata.symbolic import (
    _INDEX_DTYPE,
    EncodedAutomaton,
    PairEncoding,
    encode_automaton,
    forward_reachable,
    restrict_states,
    synchronous_product,
)


def oracle_synchronous_composition(
    a: Automaton, b: Automaton, name: str | None = None
) -> Automaton:
    """``A || B`` by a FIFO BFS over state pairs, one event at a time."""
    alphabet = a.alphabet.union(b.alphabet)
    composed = Automaton(name or f"{a.name}||{b.name}", alphabet)
    initial = a.initial.compose(b.initial)
    composed.add_state(
        initial,
        marked=a.is_marked(a.initial) and b.is_marked(b.initial),
        forbidden=a.is_forbidden(a.initial) or b.is_forbidden(b.initial),
        initial=True,
    )

    frontier: deque[tuple[State, State]] = deque([(a.initial, b.initial)])
    visited: set[tuple[State, State]] = {(a.initial, b.initial)}

    while frontier:
        state_a, state_b = frontier.popleft()
        source = state_a.compose(state_b)
        for event in alphabet:
            in_a = event in a.alphabet
            in_b = event in b.alphabet
            next_a = a.step(state_a, event) if in_a else state_a
            next_b = b.step(state_b, event) if in_b else state_b
            if in_a and next_a is None:
                continue
            if in_b and next_b is None:
                continue
            assert next_a is not None and next_b is not None
            target = next_a.compose(next_b)
            if (next_a, next_b) not in visited:
                visited.add((next_a, next_b))
                composed.add_state(
                    target,
                    marked=a.is_marked(next_a) and b.is_marked(next_b),
                    forbidden=a.is_forbidden(next_a) or b.is_forbidden(next_b),
                )
                frontier.append((next_a, next_b))
            composed.add_transition(source, event, target)
    return composed


def oracle_compose_all(
    automata: Iterable[Automaton], name: str | None = None
) -> Automaton:
    """Left fold of :func:`oracle_synchronous_composition`."""
    items = list(automata)
    if not items:
        raise AutomatonError("compose_all requires at least one automaton")
    result = items[0]
    for other in items[1:]:
        result = oracle_synchronous_composition(result, other)
    if name is not None:
        result.name = name
    return result


def oracle_synthesis_product(
    plant: EncodedAutomaton, spec: EncodedAutomaton
) -> PairEncoding:
    """The full pair-space cross join with spec-private events muted."""
    pair = synchronous_product(plant, spec)
    product = pair.product
    empty = np.asarray([], dtype=_INDEX_DTYPE)
    src = list(product.src)
    dst = list(product.dst)
    muted = False
    for e, name in enumerate(product.event_names):
        if plant.event_index(name) is None and src[e].size:
            src[e], dst[e] = empty, empty
            muted = True
    if muted:
        product = replace(product, src=tuple(src), dst=tuple(dst))
        pair = PairEncoding(product=product, left=plant, right=spec)
    return pair


def oracle_encode_composition(
    components: Iterable[Automaton | EncodedAutomaton],
    name: str | None = None,
) -> EncodedAutomaton:
    """Fold :func:`synchronous_product`, pruning to the reachable part
    after every step."""
    encoded = [
        item if isinstance(item, EncodedAutomaton) else encode_automaton(item)
        for item in components
    ]
    accumulated = encoded[0]
    for factor in encoded[1:]:
        accumulated = synchronous_product(accumulated, factor).product
        accumulated = restrict_states(
            accumulated, forward_reachable(accumulated)
        )
    if name is not None:
        accumulated = replace(accumulated, name=name)
    return accumulated
