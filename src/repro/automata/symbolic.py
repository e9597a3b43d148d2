"""Bitset-encoded symbolic reachability kernel for DES automata.

Explicit-state verification walks Python sets of :class:`State` objects;
that is fine for the case-study models but quadratic constant factors
make it the scaling wall the paper solved by leaning on Supremica's
symbolic engines (Section 4.3.4, ROADMAP item 4).  This module is the
set-based replacement: states become integer indices, state *sets*
become numpy bool vectors, and one BFS level advances every frontier
state over one event with a single vectorized gather/scatter — no
per-state Python loops.

Four ingredients:

* :func:`encode_automaton` — freeze an :class:`Automaton` into sorted
  index space (:class:`EncodedAutomaton`) with per-event ``src``/``dst``
  transition arrays.
* :func:`synchronous_product` / :func:`controllability_product` — build
  the encoded product ``A || B`` directly in pair-index space
  (``pair = i * n_B + j``) without materializing a composed
  :class:`Automaton`.
* :func:`reachable_product` — the *reachable* part of a product of any
  number of factors, by level-synchronous BFS over mixed-radix keys
  (the left fold's pair index), in exact FIFO discovery order.  It backs
  ``compose_all``, ``encode_composition`` and ``synthesis_product``;
  memory follows the reachable product, never the cross product.
* :func:`forward_reachable` / :func:`backward_reachable` /
  :func:`forward_search` — level-synchronized bitset BFS; the search
  variant records parent pointers so shortest counterexample event
  traces fall out of the same pass (:func:`witness_trace`).

Everything is deterministic: states are indexed in sorted-name order,
events in alphabet (sorted) order, and tie-breaks during parent claiming
always favour the smallest event index, then the smallest source index.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.automata.automaton import Automaton

__all__ = [
    "EncodedAutomaton",
    "PairEncoding",
    "ReachableProduct",
    "SearchTree",
    "backward_reachable",
    "compose_encoded",
    "controllability_product",
    "encode_automaton",
    "forward_reachable",
    "forward_search",
    "nearest_state",
    "reachable_product",
    "restrict_states",
    "synchronous_product",
    "witness_trace",
]

_INDEX_DTYPE = np.int64


@dataclass
class EncodedAutomaton:
    """An automaton flattened into index space for vectorized search.

    ``src[e]``/``dst[e]`` hold the source/target state indices of every
    transition on event ``e``, sorted by ``(source, target)``.  Product
    encodings have ``state_names=None`` (labels are derived on demand
    from the factor encodings) and ``enabled=None``.
    """

    name: str
    n_states: int
    event_names: tuple[str, ...]
    event_controllable: np.ndarray
    src: tuple[np.ndarray, ...]
    dst: tuple[np.ndarray, ...]
    initial: int
    marked: np.ndarray
    forbidden: np.ndarray
    state_names: tuple[str, ...] | None = None
    enabled: np.ndarray | None = None
    _event_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._event_index:
            self._event_index = {
                name: i for i, name in enumerate(self.event_names)
            }

    @property
    def n_events(self) -> int:
        return len(self.event_names)

    @property
    def n_transitions(self) -> int:
        return int(sum(arr.size for arr in self.src))

    def event_index(self, name: str) -> int | None:
        return self._event_index.get(name)

    def state_label(self, index: int) -> str:
        if self.state_names is not None:
            return self.state_names[index]
        return f"#{index}"

    def event_enabled(self, name: str) -> np.ndarray:
        """Bool vector of states where ``name`` is enabled (zeros when
        the event is outside this alphabet)."""
        index = self.event_index(name)
        if index is None or self.enabled is None:
            return np.zeros(self.n_states, dtype=bool)
        return self.enabled[index]


# Encoding memo: verification and synthesis on the same model used to
# re-encode it on every call (every verify_supervisor re-froze the plant).
# Keyed weakly by the Automaton instance so encodings die with their
# models, with a content fingerprint — transition count first, the same
# cheap change detector the supervisor-action caches use — so mutating a
# memoized automaton (more transitions, new marking, moved initial)
# transparently re-encodes.  Kept outside the instance on purpose:
# attaching it as an attribute would change the automaton's pickle bytes,
# which persistence bundles compare byte-for-byte.
_ENCODE_MEMO: "weakref.WeakKeyDictionary[Automaton, tuple[tuple[object, ...], EncodedAutomaton]]" = (
    weakref.WeakKeyDictionary()
)


def _encode_fingerprint(automaton: Automaton) -> tuple[object, ...]:
    initial = automaton._initial
    return (
        automaton.name,
        automaton.n_transitions,
        len(automaton._states),
        len(automaton._marked),
        len(automaton._forbidden),
        len(automaton.alphabet),
        initial.name if initial is not None else None,
    )


def encode_automaton(automaton: Automaton) -> EncodedAutomaton:
    """Freeze ``automaton`` into sorted index space (memoized).

    The returned encoding is shared between calls while the automaton's
    content fingerprint is unchanged; treat it as immutable.
    """
    fingerprint = _encode_fingerprint(automaton)
    entry = _ENCODE_MEMO.get(automaton)
    if entry is not None and entry[0] == fingerprint:
        return entry[1]
    encoded = _encode_automaton_uncached(automaton)
    _ENCODE_MEMO[automaton] = (fingerprint, encoded)
    return encoded


def _encode_automaton_uncached(automaton: Automaton) -> EncodedAutomaton:
    state_names = tuple(sorted(s.name for s in automaton.states))
    state_index = {name: i for i, name in enumerate(state_names)}
    event_names = tuple(e.name for e in automaton.alphabet)
    event_index = {name: i for i, name in enumerate(event_names)}
    n_states = len(state_names)
    n_events = len(event_names)

    # One flat pass plus a single global lexsort beats per-event sorts:
    # the arrays come out grouped by event and sorted by (src, dst)
    # within each group, which is the order the search kernels rely on.
    # Friend access to the raw transition map: at hundreds of thousands
    # of transitions even the iter_transitions generator frames show up.
    triples = [
        (event_index[event.name], state_index[source.name], state_index[target.name])
        for (source, event), target in automaton._delta.items()
    ]
    if triples:
        data = np.asarray(triples, dtype=_INDEX_DTYPE)
        ev, src_all, dst_all = data[:, 0], data[:, 1], data[:, 2]
        order = np.lexsort((dst_all, src_all, ev))
        ev, src_all, dst_all = ev[order], src_all[order], dst_all[order]
    else:
        ev = src_all = dst_all = np.asarray([], dtype=_INDEX_DTYPE)
    bounds = np.searchsorted(ev, np.arange(n_events + 1))
    src_arrays = [
        src_all[bounds[e] : bounds[e + 1]] for e in range(n_events)
    ]
    dst_arrays = [
        dst_all[bounds[e] : bounds[e + 1]] for e in range(n_events)
    ]
    enabled = np.zeros((n_events, n_states), dtype=bool)
    if ev.size:
        enabled[ev, src_all] = True

    marked = np.zeros(n_states, dtype=bool)
    for state in automaton.marked:
        marked[state_index[state.name]] = True
    forbidden = np.zeros(n_states, dtype=bool)
    for state in automaton.forbidden:
        forbidden[state_index[state.name]] = True

    controllable = np.array(
        [event.controllable for event in automaton.alphabet], dtype=bool
    )
    initial = (
        state_index[automaton.initial.name] if automaton.has_initial else -1
    )
    return EncodedAutomaton(
        name=automaton.name,
        n_states=n_states,
        event_names=event_names,
        event_controllable=controllable,
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=marked,
        forbidden=forbidden,
        state_names=state_names,
        enabled=enabled,
    )


# ----------------------------------------------------------------------
# Products in pair-index space
# ----------------------------------------------------------------------
@dataclass
class PairEncoding:
    """An encoded product plus the factor encodings that label its pairs.

    Pair ``k`` decodes to ``(k // right.n_states, k % right.n_states)``.
    """

    product: EncodedAutomaton
    left: EncodedAutomaton
    right: EncodedAutomaton

    def split(self, pair: int) -> tuple[int, int]:
        return divmod(pair, self.right.n_states)

    def pair_label(self, pair: int) -> str:
        i, j = self.split(pair)
        return f"{self.left.state_label(i)}.{self.right.state_label(j)}"


def _cross_pairs(
    sa: np.ndarray, da: np.ndarray, sb: np.ndarray, db: np.ndarray, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """All pair transitions of a shared event: the cross join of the two
    factors' transition arrays, in pair-index space.  Broadcasting
    (row-major ravel) gives the same ordering repeat/tile would, without
    their intermediate copies."""
    src = (sa[:, None] * nb + sb[None, :]).ravel()
    dst = (da[:, None] * nb + db[None, :]).ravel()
    return src, dst


def _private_pairs(
    s: np.ndarray, d: np.ndarray, other_n: int, *, left: bool, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair transitions of a private event: the other factor holds still."""
    other = np.arange(other_n, dtype=_INDEX_DTYPE)
    if left:
        src = (s[:, None] * nb + other[None, :]).ravel()
        dst = (d[:, None] * nb + other[None, :]).ravel()
    else:
        src = (other[:, None] * nb + s[None, :]).ravel()
        dst = (other[:, None] * nb + d[None, :]).ravel()
    return src, dst


def synchronous_product(
    left: EncodedAutomaton, right: EncodedAutomaton
) -> PairEncoding:
    """``left || right`` in pair-index space (Section 4.3.1 semantics):
    shared events synchronize, private events interleave.  Marked pairs
    are pairs of marked states; a pair is forbidden if either component
    is."""
    names = sorted(set(left.event_names) | set(right.event_names))
    nb = right.n_states
    src_arrays: list[np.ndarray] = []
    dst_arrays: list[np.ndarray] = []
    controllable: list[bool] = []
    empty = np.asarray([], dtype=_INDEX_DTYPE)
    for name in names:
        li = left.event_index(name)
        ri = right.event_index(name)
        if li is not None and ri is not None:
            sa, da = left.src[li], left.dst[li]
            sb, db = right.src[ri], right.dst[ri]
            if sa.size and sb.size:
                src, dst = _cross_pairs(sa, da, sb, db, nb)
            else:
                src, dst = empty, empty
            controllable.append(bool(left.event_controllable[li]))
        elif li is not None:
            src, dst = _private_pairs(
                left.src[li], left.dst[li], nb, left=True, nb=nb
            )
            controllable.append(bool(left.event_controllable[li]))
        else:
            assert ri is not None
            src, dst = _private_pairs(
                right.src[ri], right.dst[ri], left.n_states, left=False, nb=nb
            )
            controllable.append(bool(right.event_controllable[ri]))
        src_arrays.append(src)
        dst_arrays.append(dst)

    marked = (left.marked[:, None] & right.marked[None, :]).ravel()
    forbidden = (left.forbidden[:, None] | right.forbidden[None, :]).ravel()
    initial = (
        left.initial * nb + right.initial
        if left.initial >= 0 and right.initial >= 0
        else -1
    )
    product = EncodedAutomaton(
        name=f"{left.name}||{right.name}",
        n_states=left.n_states * nb,
        event_names=tuple(names),
        event_controllable=np.asarray(controllable, dtype=bool),
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=marked,
        forbidden=forbidden,
    )
    return PairEncoding(product=product, left=left, right=right)


def controllability_product(
    plant: EncodedAutomaton, supervisor: EncodedAutomaton
) -> PairEncoding:
    """The joint walk used by controllability checking.

    Only *plant* events drive the pair space, and a pair advances only
    when both factors enable the event — supervisor-private events never
    fire, and a plant event the supervisor's alphabet lacks is treated
    as disabled by the supervisor (matching the explicit checker).
    """
    nb = supervisor.n_states
    src_arrays: list[np.ndarray] = []
    dst_arrays: list[np.ndarray] = []
    empty = np.asarray([], dtype=_INDEX_DTYPE)
    for e, name in enumerate(plant.event_names):
        si = supervisor.event_index(name)
        if si is None:
            src, dst = empty, empty
        else:
            sa, da = plant.src[e], plant.dst[e]
            sb, db = supervisor.src[si], supervisor.dst[si]
            if sa.size and sb.size:
                src, dst = _cross_pairs(sa, da, sb, db, nb)
            else:
                src, dst = empty, empty
        src_arrays.append(src)
        dst_arrays.append(dst)
    marked = (plant.marked[:, None] & supervisor.marked[None, :]).ravel()
    forbidden = (
        plant.forbidden[:, None] | supervisor.forbidden[None, :]
    ).ravel()
    initial = (
        plant.initial * nb + supervisor.initial
        if plant.initial >= 0 and supervisor.initial >= 0
        else -1
    )
    product = EncodedAutomaton(
        name=f"{plant.name}/{supervisor.name}",
        n_states=plant.n_states * nb,
        event_names=plant.event_names,
        event_controllable=plant.event_controllable.copy(),
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=marked,
        forbidden=forbidden,
    )
    return PairEncoding(product=product, left=plant, right=supervisor)


# ----------------------------------------------------------------------
# Reachable products in mixed-radix key space
# ----------------------------------------------------------------------
_KEY_LIMIT = int(np.iinfo(_INDEX_DTYPE).max)

# A dense successor table costs one slot per factor state; it replaces
# the binary search when it is at most this many times the event's
# transition count.
_DENSE_FACTOR = 8

# Successor keys are computed for at most this many (state, event)
# slots at a time, bounding the temporaries of wide BFS levels.
_BLOCK_SLOTS = 1 << 22

# One factor's successor function on one event: ``(k, table, None)``
# with ``table[i]`` the successor of state ``i`` (-1 where disabled), or
# ``(k, src, dst)`` to binary-search when a table would be sparse.
_Move = tuple[int, np.ndarray, "np.ndarray | None"]


@dataclass
class ReachableProduct:
    """The reachable part of the synchronous product of encoded factors.

    A product state is the mixed-radix key ``sum_k i_k * strides[k]``
    over factor state indices ``i_k`` (the last factor has stride 1),
    which is exactly the left fold's pair index ``i * n_right + j``.
    ``keys`` lists the reachable keys in FIFO-BFS discovery order.
    Events are indexed in ``event_names`` (sorted union) order;
    transitions are regenerated from the factors on demand, by
    :meth:`edges` and :meth:`event_arrays`.
    """

    factors: tuple[EncodedAutomaton, ...]
    event_names: tuple[str, ...]
    event_controllable: np.ndarray
    strides: tuple[int, ...]
    keys: np.ndarray
    moves: list[list[_Move]] = field(repr=False)

    @property
    def n_states(self) -> int:
        """Size of the full (cross-product) key space."""
        return self.strides[0] * self.factors[0].n_states

    def digits(self, k: int) -> np.ndarray:
        """Factor ``k``'s state index of every reachable key."""
        return (self.keys // self.strides[k]) % self.factors[k].n_states

    def all_marked(self) -> np.ndarray:
        """Per reachable key: every factor marked."""
        mask = np.ones(self.keys.size, dtype=bool)
        for k, factor in enumerate(self.factors):
            mask &= factor.marked[self.digits(k)]
        return mask

    def any_forbidden(self) -> np.ndarray:
        """Per reachable key: some factor forbidden."""
        mask = np.zeros(self.keys.size, dtype=bool)
        for k, factor in enumerate(self.factors):
            mask |= factor.forbidden[self.digits(k)]
        return mask

    def labels(self) -> np.ndarray:
        """Object array of dotted state names, in discovery order."""
        labels: np.ndarray | None = None
        for k, factor in enumerate(self.factors):
            assert factor.state_names is not None
            names = np.asarray(factor.state_names, dtype=object)[self.digits(k)]
            labels = names if labels is None else labels + "." + names
        assert labels is not None
        return labels

    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys and the discovery position of each."""
        order = np.argsort(self.keys)
        return self.keys[order], order

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, event, dst)`` with states as discovery positions, in
        (source, event) order: the order a one-state-at-a-time FIFO BFS
        adds them."""
        sorted_keys, position = self._positions()
        src, ev, dst = [], [], []
        for offset, targets in _blocks(
            self.keys, self.moves, self.factors, self.strides
        ):
            flat = targets.T.ravel()
            hits = np.flatnonzero(flat >= 0)
            rows, events = np.divmod(hits, len(self.moves))
            src.append(offset + rows)
            ev.append(events)
            dst.append(position[np.searchsorted(sorted_keys, flat[hits])])
        return _cat(src), _cat(ev), _cat(dst)

    def event_arrays(
        self, by_key: bool = True
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Per-event ``(src, dst)`` arrays sorted by ``(src, dst)`` — the
        :class:`EncodedAutomaton` layout — with states numbered by key,
        or by discovery position when ``by_key`` is false."""
        sorted_keys, position = self._positions()
        walk = sorted_keys if by_key else self.keys
        src: list[list[np.ndarray]] = [[] for _ in self.moves]
        dst: list[list[np.ndarray]] = [[] for _ in self.moves]
        for offset, targets in _blocks(
            walk, self.moves, self.factors, self.strides
        ):
            for e, target in enumerate(targets):
                hits = np.flatnonzero(target >= 0)
                if not hits.size:
                    continue
                if by_key:
                    src[e].append(walk[offset + hits])
                    dst[e].append(target[hits])
                else:
                    src[e].append(offset + hits)
                    dst[e].append(
                        position[np.searchsorted(sorted_keys, target[hits])]
                    )
        return tuple(map(_cat, src)), tuple(map(_cat, dst))


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=_INDEX_DTYPE)


def _move(factor_index: int, factor: EncodedAutomaton, event: int) -> _Move:
    src, dst = factor.src[event], factor.dst[event]
    if factor.n_states <= _DENSE_FACTOR * src.size:
        table = np.full(factor.n_states, -1, dtype=_INDEX_DTYPE)
        table[src] = dst
        return factor_index, table, None
    return factor_index, src, dst


def _successors(
    keys: np.ndarray,
    moves: list[list[_Move]],
    factors: tuple[EncodedAutomaton, ...],
    strides: tuple[int, ...],
) -> np.ndarray:
    """``(n_events, len(keys))`` successor keys, -1 where disabled.

    An event fires where every participating factor enables it; each
    such factor swaps its digit of the key for its successor's.
    """
    targets = np.full((len(moves), keys.size), -1, dtype=_INDEX_DTYPE)
    digits: dict[int, np.ndarray] = {}
    for e, parts in enumerate(moves):
        enabled: np.ndarray | None = None
        target = keys
        for k, table, dst in parts:
            d = digits.get(k)
            if d is None:
                d = digits[k] = (keys // strides[k]) % factors[k].n_states
            if dst is None:
                nxt = table[d]
            else:
                pos = np.minimum(np.searchsorted(table, d), table.size - 1)
                nxt = np.where(table[pos] == d, dst[pos], -1)
            hit = nxt >= 0
            enabled = hit if enabled is None else enabled & hit
            target = target + (nxt - d) * strides[k]
        if enabled is not None:
            np.copyto(targets[e], target, where=enabled)
    return targets


def _blocks(
    keys: np.ndarray,
    moves: list[list[_Move]],
    factors: tuple[EncodedAutomaton, ...],
    strides: tuple[int, ...],
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`_successors` over ``keys`` in blocks: ``(offset, targets)``."""
    step = max(1, _BLOCK_SLOTS // max(1, len(moves)))
    for offset in range(0, keys.size, step):
        yield offset, _successors(keys[offset : offset + step], moves, factors, strides)


def _first_occurrences(
    keys: np.ndarray, key_space: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` (sorted) and where each first occurs.

    When every ``(key, position)`` pair packs into one int64, a single
    value sort of the packed pairs replaces a stable argsort: ties come
    out in position order, so each run starts at its first occurrence.
    """
    n = keys.size
    if key_space * n - 1 <= _KEY_LIMIT:
        packed = keys * n + np.arange(n, dtype=_INDEX_DTYPE)
        packed.sort()
        ordered, order = np.divmod(packed, n)
    else:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return ordered[starts], order[starts]


def reachable_product(
    factors: list[EncodedAutomaton] | tuple[EncodedAutomaton, ...],
    muted: frozenset[str] = frozenset(),
) -> ReachableProduct:
    """Find the reachable part of ``factors[0] || factors[1] || ...``.

    Level-synchronous BFS over mixed-radix keys (Section 4.3.1
    semantics: an event moves every factor whose alphabet has it and
    fires only where all of them enable it; the others hold still).
    Events in ``muted`` never fire.  Per level and per event, each
    participating factor's successor comes from its sorted per-event
    ``src`` array (binary search, or a dense table when that is small).
    Level edges are scanned in (frontier position, event) order and new
    keys kept in first-occurrence order, which is exactly FIFO BFS
    discovery order.  The visited set is a sorted key array, so memory
    follows the reachable product, never the cross product.  Factors
    must be deterministic (every encoding of an :class:`Automaton` is)
    and their cross product must fit in int64; :func:`compose_encoded`
    splits longer factor lists.
    """
    factors = tuple(factors)
    names = sorted(set().union(*(f.event_names for f in factors)))
    radix = [1] * len(factors)
    for k in range(len(factors) - 1, 0, -1):
        radix[k - 1] = radix[k] * factors[k].n_states
    strides = tuple(radix)
    key_space = strides[0] * factors[0].n_states
    if key_space - 1 > _KEY_LIMIT:
        raise OverflowError("product key space exceeds int64")

    controllable: list[bool] = []
    moves: list[list[_Move]] = []
    for name in names:
        present = [
            (k, f, i)
            for k, f in enumerate(factors)
            if (i := f.event_index(name)) is not None
        ]
        _, owner, index = present[0]
        controllable.append(bool(owner.event_controllable[index]))
        if name in muted or any(not f.src[i].size for _, f, i in present):
            moves.append([])
        else:
            moves.append([_move(k, f, i) for k, f, i in present])

    keys = _cat([])
    if all(f.initial >= 0 for f in factors):
        initial = sum(f.initial * s for f, s in zip(factors, strides))
        frontier = np.asarray([initial], dtype=_INDEX_DTYPE)
        levels = [frontier]
        seen = frontier  # sorted
        while frontier.size:
            found = []
            for _, targets in _blocks(frontier, moves, factors, strides):
                flat = targets.T.ravel()  # (frontier position, event) order
                found.append(flat[flat >= 0])
            uniq, first = _first_occurrences(_cat(found), key_space)
            at = np.minimum(np.searchsorted(seen, uniq), seen.size - 1)
            fresh = seen[at] != uniq
            frontier = uniq[fresh][np.argsort(first[fresh])]
            seen = np.insert(seen, np.searchsorted(seen, uniq[fresh]), uniq[fresh])
            levels.append(frontier)
        keys = np.concatenate(levels)

    return ReachableProduct(
        factors=factors,
        event_names=tuple(names),
        event_controllable=np.asarray(controllable, dtype=bool),
        strides=strides,
        keys=keys,
        moves=moves,
    )


def _compact(product: ReachableProduct) -> EncodedAutomaton:
    """A reachable product as one factor numbered by discovery position:
    marked where every factor is, forbidden where any is, labelled with
    dotted names when every factor is named."""
    src, dst = product.event_arrays(by_key=False)
    named = all(f.state_names is not None for f in product.factors)
    return EncodedAutomaton(
        name="||".join(f.name for f in product.factors),
        n_states=int(product.keys.size),
        event_names=product.event_names,
        event_controllable=product.event_controllable,
        src=src,
        dst=dst,
        initial=0 if product.keys.size else -1,
        marked=product.all_marked(),
        forbidden=product.any_forbidden(),
        state_names=tuple(product.labels().tolist()) if named else None,
    )


def compose_encoded(factors: list[EncodedAutomaton]) -> ReachableProduct:
    """:func:`reachable_product` of any number of factors.

    While the cross product of the remaining factors would overflow an
    int64 key, the longest prefix that fits is composed first and fed
    back in as one factor numbered by its reachable states.  That is
    exact: BFS discovery and edge order depend only on the reachable
    product graph, and the compacted prefix keeps names, marking and
    forbidden flags with product semantics.
    """
    factors = list(factors)
    while True:
        size, fit = 1, 0
        for factor in factors:
            size *= factor.n_states
            if size - 1 > _KEY_LIMIT:
                break
            fit += 1
        if fit == len(factors):
            return reachable_product(factors)
        if fit < 2:
            raise OverflowError("product key space exceeds int64")
        factors = [_compact(reachable_product(factors[:fit]))] + factors[fit:]


def restrict_states(enc: EncodedAutomaton, keep: np.ndarray) -> EncodedAutomaton:
    """The sub-encoding induced by ``keep`` (a bool mask).

    State indices are preserved (masks stay comparable across the
    original and the restriction); transitions touching a dropped state
    are removed, and dropped states lose their marked/forbidden/initial
    status.
    """
    src_arrays: list[np.ndarray] = []
    dst_arrays: list[np.ndarray] = []
    enabled = (
        np.zeros((enc.n_events, enc.n_states), dtype=bool)
        if enc.enabled is not None
        else None
    )
    for e in range(enc.n_events):
        src, dst = enc.src[e], enc.dst[e]
        if src.size:
            hits = keep[src] & keep[dst]
            src, dst = src[hits], dst[hits]
        src_arrays.append(src)
        dst_arrays.append(dst)
        if enabled is not None and src.size:
            enabled[e, src] = True
    initial = (
        enc.initial if enc.initial >= 0 and keep[enc.initial] else -1
    )
    return EncodedAutomaton(
        name=enc.name,
        n_states=enc.n_states,
        event_names=enc.event_names,
        event_controllable=enc.event_controllable,
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=enc.marked & keep,
        forbidden=enc.forbidden & keep,
        state_names=enc.state_names,
        enabled=enabled,
    )


# ----------------------------------------------------------------------
# Bitset breadth-first search
# ----------------------------------------------------------------------
def _start_mask(enc: EncodedAutomaton, start: np.ndarray | None) -> np.ndarray:
    if start is not None:
        return start.astype(bool, copy=True)
    mask = np.zeros(enc.n_states, dtype=bool)
    if enc.initial >= 0:
        mask[enc.initial] = True
    return mask


# A binary-search gather costs ~log2(T) per frontier state; a full scan
# costs T.  Below this frontier-to-transition ratio the gather wins.
_GATHER_FACTOR = 16


def _frontier_edges(
    keys: np.ndarray,
    values: np.ndarray,
    frontier_mask: np.ndarray,
    frontier_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Edges whose (ascending-sorted) ``keys`` entry lies in the
    frontier, in array order.

    Narrow frontiers use binary search over the sorted key array so only
    the frontier states' edges are touched — a whole BFS then costs
    O(E) amortized instead of re-scanning every transition array once
    per level.  Wide frontiers fall back to the vectorized full scan,
    which is cheaper than per-state bisection.  Either way edge
    positions come out ascending, preserving the smallest-source-first
    claim order :func:`forward_search` relies on.
    """
    if frontier_indices.size * _GATHER_FACTOR >= keys.size:
        hits = frontier_mask[keys]
        return keys[hits], values[hits]
    lo = np.searchsorted(keys, frontier_indices, side="left")
    hi = np.searchsorted(keys, frontier_indices, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        empty = np.asarray([], dtype=_INDEX_DTYPE)
        return empty, empty
    starts = np.cumsum(counts) - counts
    pos = np.repeat(lo - starts, counts) + np.arange(
        total, dtype=_INDEX_DTYPE
    )
    return keys[pos], values[pos]


def forward_reachable(
    enc: EncodedAutomaton,
    start: np.ndarray | None = None,
    event_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Bool mask of states reachable from ``start`` (default: initial),
    optionally restricted to events selected by ``event_mask``."""
    visited = _start_mask(enc, start)
    frontier = visited.copy()
    while frontier.any():
        fr = np.flatnonzero(frontier)
        nxt = np.zeros(enc.n_states, dtype=bool)
        for e in range(enc.n_events):
            if event_mask is not None and not event_mask[e]:
                continue
            src = enc.src[e]
            if not src.size:
                continue
            _, targets = _frontier_edges(src, enc.dst[e], frontier, fr)
            if targets.size:
                nxt[targets] = True
        frontier = nxt & ~visited
        visited |= frontier
    return visited


def backward_reachable(
    enc: EncodedAutomaton,
    targets: np.ndarray | None = None,
    event_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Bool mask of states that can reach ``targets`` (default: marked
    states) — the coaccessibility operator in bitset form."""
    visited = (
        targets.astype(bool, copy=True)
        if targets is not None
        else enc.marked.copy()
    )
    # Transition arrays are sorted by source; the backward walk keys on
    # targets.  Wide frontiers scan the unsorted arrays directly; the
    # first narrow frontier sorts an event's arrays by target once and
    # caches them for the remaining levels.
    by_dst: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    frontier = visited.copy()
    while frontier.any():
        fr = np.flatnonzero(frontier)
        nxt = np.zeros(enc.n_states, dtype=bool)
        for e in range(enc.n_events):
            if event_mask is not None and not event_mask[e]:
                continue
            dst = enc.dst[e]
            if not dst.size:
                continue
            if fr.size * _GATHER_FACTOR >= dst.size:
                hits = frontier[dst]
                if hits.any():
                    nxt[enc.src[e][hits]] = True
                continue
            pair = by_dst.get(e)
            if pair is None:
                order = np.argsort(dst, kind="stable")
                pair = (dst[order], enc.src[e][order])
                by_dst[e] = pair
            _, sources = _frontier_edges(pair[0], pair[1], frontier, fr)
            if sources.size:
                nxt[sources] = True
        frontier = nxt & ~visited
        visited |= frontier
    return visited


@dataclass
class SearchTree:
    """Forward BFS result with parent pointers for trace extraction."""

    visited: np.ndarray
    parent_state: np.ndarray
    parent_event: np.ndarray
    depth: np.ndarray


def forward_search(
    enc: EncodedAutomaton, start: np.ndarray | None = None
) -> SearchTree:
    """Level-synchronized forward BFS recording shortest-path parents.

    Parent claiming is deterministic: within a level, events are
    processed in alphabet order and a state keeps the first claim —
    smallest event index, then smallest source index.
    """
    n = enc.n_states
    visited = _start_mask(enc, start)
    parent_state = np.full(n, -1, dtype=_INDEX_DTYPE)
    parent_event = np.full(n, -1, dtype=_INDEX_DTYPE)
    depth = np.full(n, -1, dtype=_INDEX_DTYPE)
    depth[visited] = 0
    frontier = visited.copy()
    level = 0
    while frontier.any():
        level += 1
        fr = np.flatnonzero(frontier)
        claimed = visited.copy()
        for e in range(enc.n_events):
            src = enc.src[e]
            if not src.size:
                continue
            sources, targets = _frontier_edges(src, enc.dst[e], frontier, fr)
            if not targets.size:
                continue
            hits = ~claimed[targets]
            if not hits.any():
                continue
            sources = sources[hits]
            targets = targets[hits]
            # First occurrence wins: edge positions are ascending in the
            # (source, target)-sorted arrays, so ties resolve to the
            # smallest source.
            fresh, first = np.unique(targets, return_index=True)
            parent_state[fresh] = sources[first]
            parent_event[fresh] = e
            depth[fresh] = level
            claimed[fresh] = True
        frontier = claimed & ~visited
        visited = claimed
    return SearchTree(
        visited=visited,
        parent_state=parent_state,
        parent_event=parent_event,
        depth=depth,
    )


def witness_trace(
    enc: EncodedAutomaton, tree: SearchTree, target: int
) -> tuple[str, ...]:
    """The event trace from the search root to ``target`` (shortest, by
    construction of :func:`forward_search`)."""
    events: list[str] = []
    state = int(target)
    while tree.parent_state[state] >= 0:
        events.append(enc.event_names[int(tree.parent_event[state])])
        state = int(tree.parent_state[state])
    events.reverse()
    return tuple(events)


def nearest_state(tree: SearchTree, mask: np.ndarray) -> int:
    """The visited state in ``mask`` with minimal BFS depth (ties break
    to the smallest index); ``-1`` when none is reachable."""
    candidates = np.flatnonzero(mask & tree.visited)
    if not candidates.size:
        return -1
    return int(candidates[np.argmin(tree.depth[candidates])])
