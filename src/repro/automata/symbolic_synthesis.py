"""Supremal supervisor synthesis on the bitset kernel.

The explicit Ramadge-Wonham fixpoint in :mod:`repro.automata.synthesis`
enumerates the plant x spec product one Python ``(State, Event)`` lookup
at a time, which caps synthesis around the 61k-state scalable models.
This module runs the *same* fixpoint — trimming composed with the
uncontrollable-extension pruning, iterated to convergence (Section
4.3.4) — entirely as whole-array operations on
:class:`~repro.automata.symbolic.EncodedAutomaton`:

* the synthesis product is built in pair-index space by
  :func:`~repro.automata.symbolic.reachable_product` — transitions of
  the reachable pairs only — with spec-private events silenced (a
  constraint event the plant does not model can never fire — matching
  the explicit builder);
* the extension pass evaluates one *uncontrollable-escape mask* per
  plant event: ``escape = good & plant_enables_pairs & ~has_good_edge``,
  a handful of vectorized scatters instead of a per-state loop;
* trimming is ``forward_reachable & backward_reachable`` on the
  restriction of the product to the surviving states.

Both engines run the fixpoint on the *Jacobi* (snapshot) schedule: each
extension pass judges every state against the round-start good set.  The
supremal fixpoint is unique regardless of schedule, but the bookkeeping
that attributes a pruned state to ``removed_uncontrollable`` versus
``removed_blocking`` is not — the snapshot schedule makes the
attribution canonical, so :func:`symbolic_synthesize_supervisor` and the
explicit oracle agree field-for-field, not just up to isomorphism.

For models too large to hold as Python object graphs,
:func:`encode_composition` builds the reachable product of the encoded
factors in one pass — the 10-cluster plants never exist as
:class:`Automaton` objects, and :func:`supremal_fixpoint` synthesizes
directly on the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.automata.automaton import Automaton, State
from repro.automata.symbolic import (
    _INDEX_DTYPE,
    EncodedAutomaton,
    PairEncoding,
    backward_reachable,
    encode_automaton,
    forward_reachable,
    reachable_product,
    restrict_states,
)
from repro.automata.synthesis import (
    ProductState,
    SynthesisError,
    SynthesisResult,
)

__all__ = [
    "SupremalFixpoint",
    "encode_composition",
    "supremal_fixpoint",
    "symbolic_synthesize_supervisor",
    "synthesis_product",
]


def synthesis_product(
    plant: EncodedAutomaton, spec: EncodedAutomaton
) -> PairEncoding:
    """The plant x spec product with synthesis semantics, in pair space.

    Shared events synchronize and plant-private events interleave (the
    specification does not constrain them), exactly as in
    :func:`~repro.automata.symbolic.synchronous_product` — but events
    private to the *specification* are constraints the plant cannot
    execute, so they never fire.  Only the pairs reachable from the
    initial pair get transitions (built by
    :func:`~repro.automata.symbolic.reachable_product`, so memory follows
    the reachable product, not the cross product); ``marked`` (both
    marked) and ``forbidden`` (either forbidden) cover the whole pair
    space.
    """
    muted = frozenset(set(spec.event_names) - set(plant.event_names))
    reached = reachable_product([plant, spec], muted=muted)
    src, dst = reached.event_arrays()
    nb = spec.n_states
    product = EncodedAutomaton(
        name=f"{plant.name}||{spec.name}",
        n_states=plant.n_states * nb,
        event_names=reached.event_names,
        event_controllable=reached.event_controllable,
        src=src,
        dst=dst,
        initial=(
            plant.initial * nb + spec.initial
            if plant.initial >= 0 and spec.initial >= 0
            else -1
        ),
        marked=(plant.marked[:, None] & spec.marked[None, :]).ravel(),
        forbidden=(plant.forbidden[:, None] | spec.forbidden[None, :]).ravel(),
    )
    return PairEncoding(product=product, left=plant, right=spec)


@dataclass
class SupremalFixpoint:
    """Raw outcome of the symbolic supremal fixpoint, in pair space.

    All masks live in the product's (unrestricted) pair index space:
    ``good`` is the supervisor's state set, ``removed_uncontrollable`` /
    ``removed_blocking`` partition the pruned (initially reachable,
    non-forbidden) pairs, and ``restricted`` is the product limited to
    the surviving states — the supervisor, still encoded.
    """

    pair: PairEncoding
    reachable: np.ndarray
    good: np.ndarray
    removed_uncontrollable: np.ndarray
    removed_blocking: np.ndarray
    iterations: int
    restricted: EncodedAutomaton

    @property
    def n_supervisor_states(self) -> int:
        return int(self.good.sum())

    @property
    def is_empty(self) -> bool:
        initial = self.pair.product.initial
        return initial < 0 or not bool(self.good[initial])


def _uncontrollable_escape_masks(
    plant: EncodedAutomaton, product: EncodedAutomaton, n_spec: int
) -> list[tuple[int, np.ndarray]]:
    """Per uncontrollable plant event: ``(product event index, mask of
    pairs whose plant component enables the event)``.

    Derived from the plant's transition sources rather than its
    ``enabled`` matrix so folded encodings (which carry no matrix) work
    unchanged.  Spec-private uncontrollable events are skipped: they can
    never fire, so they cannot escape.
    """
    masks: list[tuple[int, np.ndarray]] = []
    for e, name in enumerate(product.event_names):
        if product.event_controllable[e]:
            continue
        pe = plant.event_index(name)
        if pe is None or not plant.src[pe].size:
            continue
        plant_on = np.zeros(plant.n_states, dtype=bool)
        plant_on[plant.src[pe]] = True
        masks.append((e, np.repeat(plant_on, n_spec)))
    return masks


def supremal_fixpoint(
    plant: EncodedAutomaton, spec: EncodedAutomaton
) -> SupremalFixpoint:
    """Supremal controllable nonblocking fixpoint over encoded factors.

    Accepts any encodings, including folded products from
    :func:`encode_composition`; only :func:`symbolic_synthesize_supervisor`
    needs state names for decoding.
    """
    pair = synthesis_product(plant, spec)
    product = pair.product
    n = product.n_states
    reachable = forward_reachable(product)
    good = reachable & ~product.forbidden
    removed_uncontrollable = np.zeros(n, dtype=bool)
    removed_blocking = np.zeros(n, dtype=bool)
    escapes = _uncontrollable_escape_masks(plant, product, spec.n_states)

    current = restrict_states(product, good)
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False

        # Extension pass (Jacobi schedule): a pair escapes when its
        # plant component enables an uncontrollable event but the
        # good-restricted product has no edge for it — either the spec
        # never allowed the event here, or the successor was pruned in
        # an earlier round.
        escape = np.zeros(n, dtype=bool)
        for e, plant_pairs in escapes:
            has_edge = np.zeros(n, dtype=bool)
            src = current.src[e]
            if src.size:
                has_edge[src] = True
            escape |= good & plant_pairs & ~has_edge
        if escape.any():
            removed_uncontrollable |= escape
            good &= ~escape
            current = restrict_states(current, good)
            changed = True

        # Trimming pass: keep the accessible and coaccessible part of
        # the surviving sub-product.
        keep = forward_reachable(current) & backward_reachable(current) & good
        dropped = good & ~keep
        if dropped.any():
            removed_blocking |= dropped
            good = keep
            current = restrict_states(current, good)
            changed = True

    return SupremalFixpoint(
        pair=pair,
        reachable=reachable,
        good=good,
        removed_uncontrollable=removed_uncontrollable,
        removed_blocking=removed_blocking,
        iterations=iterations,
        restricted=current,
    )


def _pair_states(pair: PairEncoding, mask: np.ndarray) -> frozenset[State]:
    """Decode a pair-space mask into ``plantState.specState`` labels."""
    left_names = pair.left.state_names
    right_names = pair.right.state_names
    assert left_names is not None and right_names is not None
    n_right = pair.right.n_states
    return frozenset(
        State(f"{left_names[k // n_right]}.{right_names[k % n_right]}")
        for k in np.flatnonzero(mask).tolist()
    )


def _decode_result(
    plant: Automaton, spec: Automaton, fixpoint: SupremalFixpoint
) -> SynthesisResult:
    """Materialize a :class:`SynthesisResult` from the fixpoint masks.

    Bulk-builds the supervisor through the same friend access the
    encoder uses: at tens of thousands of kept pairs, add_transition's
    per-call coercion and determinism checks dominate decode time, and
    both are vacuous here (the product of deterministic factors is
    deterministic and every event comes from the union alphabet).
    """
    pair = fixpoint.pair
    left_names = pair.left.state_names
    right_names = pair.right.state_names
    if left_names is None or right_names is None:
        raise SynthesisError(
            "decoding requires named factor encodings; synthesize from "
            "Automaton models or keep the SupremalFixpoint encoded"
        )
    alphabet = plant.alphabet.union(spec.alphabet)
    n_right = pair.right.n_states
    plant_states = tuple(State(name) for name in left_names)
    spec_states = tuple(State(name) for name in right_names)

    supervisor = Automaton(f"S({plant.name})", alphabet)
    state_map: dict[State, ProductState] = {}
    kept = np.flatnonzero(fixpoint.good)
    lefts, rights = np.divmod(kept, n_right)
    kept_states = [
        State(f"{left_names[i]}.{right_names[j]}")
        for i, j in zip(lefts.tolist(), rights.tolist())
    ]
    # Pair index -> State as an object array, so transition decoding is
    # a vectorized pointer gather instead of a dict probe per edge.
    labels = np.empty(pair.product.n_states, dtype=object)
    labels[kept] = kept_states
    supervisor._states = {state.name: state for state in kept_states}
    supervisor._marked = set(
        np.compress(pair.product.marked[kept], labels[kept]).tolist()
    )
    state_map = {
        state: ProductState(plant_states[i], spec_states[j])
        for state, i, j in zip(kept_states, lefts.tolist(), rights.tolist())
    }

    restricted = fixpoint.restricted
    delta = supervisor._delta
    flat_src: list[np.ndarray] = []
    flat_event: list[np.ndarray] = []
    for e, name in enumerate(restricted.event_names):
        src, dst = restricted.src[e], restricted.dst[e]
        if not src.size:
            continue
        event = alphabet[name]
        # Key tuples come out of a C-level zip against the gathered
        # label arrays; no per-edge Python frame.
        delta.update(
            zip(
                zip(labels[src].tolist(), repeat(event)),
                labels[dst].tolist(),
            )
        )
        flat_src.append(src)
        flat_event.append(np.full(src.size, e, dtype=_INDEX_DTYPE))
    # Out-edge index, grouped by source in one sort: the factors are
    # deterministic, so each (source, event) appears at most once and
    # the per-state event sets are exactly the grouped event codes.
    if flat_src:
        all_src = np.concatenate(flat_src)
        all_event = np.concatenate(flat_event)
        order = np.argsort(all_src, kind="stable")
        all_src, all_event = all_src[order], all_event[order]
        starts = np.flatnonzero(np.diff(all_src, prepend=-1))
        bounds = np.append(starts, all_src.size)
        events = [alphabet[name] for name in restricted.event_names]
        supervisor._enabled = {
            labels[all_src[a]]: {events[c] for c in all_event[a:b].tolist()}
            for a, b in zip(starts.tolist(), bounds[1:].tolist())
        }
    initial = pair.product.initial
    if initial >= 0 and fixpoint.good[initial]:
        supervisor.set_initial(labels[initial])

    return SynthesisResult(
        supervisor=supervisor,
        iterations=fixpoint.iterations,
        removed_uncontrollable=_pair_states(
            pair, fixpoint.removed_uncontrollable
        ),
        removed_blocking=_pair_states(pair, fixpoint.removed_blocking),
        state_map=state_map,
    )


def symbolic_synthesize_supervisor(
    plant: Automaton, spec: Automaton
) -> SynthesisResult:
    """Supremal controllable nonblocking synthesis on the bitset kernel.

    Drop-in replacement for the explicit engine: the returned
    :class:`SynthesisResult` matches it field-for-field (same supervisor
    states, transitions, marking and initial state; same
    ``removed_uncontrollable`` / ``removed_blocking`` attribution; same
    round count) — the equivalence suite asserts exact equality, not
    just isomorphism.
    """
    if not plant.has_initial:
        raise SynthesisError("plant has no initial state")
    if not spec.has_initial:
        raise SynthesisError("specification has no initial state")
    # Resolve the union alphabet first so conflicting controllability
    # attributes fail before any heavy work, as the explicit builder does.
    plant.alphabet.union(spec.alphabet)
    fixpoint = supremal_fixpoint(encode_automaton(plant), encode_automaton(spec))
    return _decode_result(plant, spec, fixpoint)


def encode_composition(
    components: Iterable[Automaton | EncodedAutomaton],
    name: str | None = None,
) -> EncodedAutomaton:
    """The synchronous product of ``components``, fully encoded.

    The composed plant never exists as an :class:`Automaton`: one
    :func:`~repro.automata.symbolic.reachable_product` pass builds the
    transitions of the reachable states only.  States keep the left
    fold's index space (``((i0 * n1 + i1) * n2 + i2) ...``, the full
    cross product), and ``marked``/``forbidden`` are set on reachable
    states only.  This is the entry point for scale runs, where the
    composed plant as an :class:`Automaton` would be a Python object
    graph of millions of transitions (the 10-cluster plants).

    The result has no state names; pair it with
    :func:`supremal_fixpoint` for scale runs, or with named encodings
    when a decoded supervisor is required.
    """
    encoded = [
        item
        if isinstance(item, EncodedAutomaton)
        else encode_automaton(item)
        for item in components
    ]
    if not encoded:
        raise SynthesisError("encode_composition requires at least one component")
    if len(encoded) == 1:
        composed = encoded[0]
    else:
        reached = reachable_product(encoded)
        src, dst = reached.event_arrays()
        n_states = reached.n_states
        marked = np.zeros(n_states, dtype=bool)
        marked[reached.keys[reached.all_marked()]] = True
        forbidden = np.zeros(n_states, dtype=bool)
        forbidden[reached.keys[reached.any_forbidden()]] = True
        composed = EncodedAutomaton(
            name="||".join(factor.name for factor in encoded),
            n_states=n_states,
            event_names=reached.event_names,
            event_controllable=reached.event_controllable,
            src=src,
            dst=dst,
            initial=int(reached.keys[0]) if reached.keys.size else -1,
            marked=marked,
            forbidden=forbidden,
        )
    if name is not None:
        composed = replace(composed, name=name)
    return composed
