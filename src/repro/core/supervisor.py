"""Runtime supervisory-controller engine.

The *verified* supervisor automaton is the only design artifact deployed
at runtime (Section 4.3.3).  This engine walks it: uncontrollable events
from the :class:`~repro.core.events.EventAbstractor` advance the state;
among the controllable events the supervisor currently *enables*, an
:class:`ActionPolicy` chooses which to execute, and each executed action
advances the state too.  The supervisor thus never commands an action
the formal model disables — controllability and nonblocking guarantees
carry over to the running system.

The engine is deliberately table-driven and allocation-free on the hot
path: the paper measures the supervisor at ~30 microseconds per
invocation (Section 5.3).

:class:`SupervisorTable` is the same walk compiled to integer arrays
for N independent copies of the supervisor at once (the fleet path):
one gather advances every row's state, and action selection is a
first-true scan over a priority-ordered enabled-and-guarded mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.automata.automaton import Automaton, State
from repro.automata.symbolic import encode_automaton


class SupervisorRuntimeError(RuntimeError):
    """Raised on engine misuse (e.g. executing a disabled action)."""


class ActionPolicy(Protocol):
    """Chooses which enabled controllable actions to execute.

    ``select`` receives the names of the controllable events the
    supervisor enables in its current state and returns the (possibly
    empty) ordered subset to execute this invocation.  Guards belong
    here: the formal supervisor decides what is *allowed*, the policy
    decides what is *opportune* (e.g. only trim a budget when there is
    actually headroom).
    """

    def select(self, enabled: tuple[str, ...]) -> tuple[str, ...]:
        ...  # pragma: no cover - protocol


@dataclass
class PriorityPolicy:
    """Execute the highest-priority enabled action whose guard passes.

    ``priorities`` orders action names from most to least urgent;
    ``guards`` maps an action name to a zero-argument callable returning
    whether firing it is currently useful.  Missing guard = always.
    """

    priorities: tuple[str, ...]
    guards: dict[str, Callable[[], bool]] = field(default_factory=dict)
    max_actions_per_invocation: int = 2

    def select(self, enabled: tuple[str, ...]) -> tuple[str, ...]:
        chosen: list[str] = []
        for name in self.priorities:
            if len(chosen) >= self.max_actions_per_invocation:
                break
            if name not in enabled:
                continue
            guard = self.guards.get(name)
            if guard is None or guard():
                chosen.append(name)
        return tuple(chosen)


@dataclass
class SupervisorTrace:
    """One engine invocation's record, for inspection and tests."""

    time_s: float
    observed: tuple[str, ...]
    ignored: tuple[str, ...]
    executed: tuple[str, ...]
    state: str


class SupervisorEngine:
    """Walks a synthesized supervisor automaton at runtime."""

    def __init__(self, supervisor: Automaton, *, record_trace: bool = False) -> None:
        self.automaton = supervisor
        self._state: State = supervisor.initial
        self.record_trace = record_trace
        self.trace: list[SupervisorTrace] = []
        self.invocations = 0
        # Sorted enabled-event name tuples per state.  The deployed
        # automaton is a finished design artifact, but add_transition is
        # technically reachable, so the caches self-invalidate when the
        # transition count changes.
        self._events_cache: dict[State, tuple[str, ...]] = {}
        self._actions_cache: dict[State, tuple[str, ...]] = {}
        self._cached_n_transitions = supervisor.n_transitions

    def _check_cache_freshness(self) -> None:
        n = self.automaton.n_transitions
        if n != self._cached_n_transitions:
            self._events_cache.clear()
            self._actions_cache.clear()
            self._cached_n_transitions = n

    @property
    def state(self) -> State:
        return self._state

    def reset(self) -> None:
        self._state = self.automaton.initial
        self.trace.clear()
        self.invocations = 0

    # ------------------------------------------------------------------
    def enabled_events(self) -> tuple[str, ...]:
        self._check_cache_freshness()
        cached = self._events_cache.get(self._state)
        if cached is None:
            cached = tuple(
                sorted(
                    e.name for e in self.automaton.enabled_events(self._state)
                )
            )
            self._events_cache[self._state] = cached
        return cached

    def enabled_actions(self) -> tuple[str, ...]:
        """Controllable events the supervisor currently permits."""
        self._check_cache_freshness()
        cached = self._actions_cache.get(self._state)
        if cached is None:
            cached = tuple(
                sorted(
                    e.name
                    for e in self.automaton.enabled_events(self._state)
                    if e.controllable
                )
            )
            self._actions_cache[self._state] = cached
        return cached

    def observe(self, event_name: str) -> bool:
        """Consume an uncontrollable observation.

        Returns True if the supervisor state advanced; False if the
        event is not enabled here (the abstraction may emit observations
        the current mode does not react to — e.g. ``QoSmet`` during a
        capping episode — which are simply ignored).
        """
        target = self.automaton.step(self._state, event_name)
        if target is None:
            return False
        self._state = target
        return True

    def execute(self, action_name: str) -> None:
        """Advance over a controllable action the supervisor enables."""
        target = self.automaton.step(self._state, action_name)
        if target is None:
            raise SupervisorRuntimeError(
                f"action {action_name!r} is disabled by the supervisor at "
                f"state {self._state}"
            )
        self._state = target

    # ------------------------------------------------------------------
    def invoke(
        self,
        observations: list[str],
        policy: ActionPolicy,
        *,
        time_s: float = 0.0,
        effects: dict[str, Callable[[], None]] | None = None,
    ) -> tuple[str, ...]:
        """One supervisor invocation: observe, decide, act.

        Returns the names of the executed actions.  ``effects`` maps
        action names to their side-effecting implementations (gain
        switches, reference updates); each is run exactly when its
        action executes.
        """
        ignored: list[str] = []
        accepted: list[str] = []
        for event in observations:
            if self.observe(event):
                accepted.append(event)
            else:
                ignored.append(event)
        # Execute actions one at a time: each execution may change the
        # supervisor state (and the effects may change guard outcomes),
        # so the enabled set is re-queried between actions.
        executed: list[str] = []
        limit = getattr(policy, "max_actions_per_invocation", 2)
        while len(executed) < limit:
            selected = policy.select(self.enabled_actions())
            if not selected:
                break
            action = selected[0]
            self.execute(action)
            if effects is not None and action in effects:
                effects[action]()
            executed.append(action)
        self.invocations += 1
        if self.record_trace:
            self.trace.append(
                SupervisorTrace(
                    time_s=time_s,
                    observed=tuple(accepted),
                    ignored=tuple(ignored),
                    executed=tuple(executed),
                    state=self._state.name,
                )
            )
        return tuple(executed)


class SupervisorTable:
    """A supervisor automaton compiled to integer transition tables.

    States and events use :func:`~repro.automata.symbolic.encode_automaton`'s
    sorted index space.  ``next_state[s, e]`` is the target of event
    ``e`` in state ``s``, or -1 where the supervisor disables it.  The
    action arrays are columns in ``actions`` (priority) order, plus one
    trailing *idle* column: ``enabled`` says which actions the
    supervisor permits in each state (an action outside the alphabet,
    or uncontrollable, is never enabled, exactly as in
    :meth:`SupervisorEngine.enabled_actions`), and ``action_next`` is
    where each one leads.  The idle column is enabled everywhere and
    loops, so a row that picks nothing needs no masking.

    Row states are ``(N,)`` integer arrays owned by the caller; one call
    advances every row, with the same semantics as one
    :class:`SupervisorEngine` per row.
    """

    def __init__(
        self, supervisor: Automaton, actions: tuple[str, ...]
    ) -> None:
        enc = encode_automaton(supervisor)
        n_states = enc.n_states  # repro: shape[int[S]]
        n_events = enc.n_events  # repro: shape[int[E]]
        self.state_names = enc.state_names
        self.event_names = enc.event_names
        self.actions = tuple(actions)
        self.initial = enc.initial
        # Event column ``n_events`` is "no observation".
        self.no_event = n_events
        self.idle = len(self.actions)  # repro: shape[int[A]]
        states = np.arange(n_states)  # repro: shape[(S,) i8]
        table = np.full((n_states, n_events), -1, dtype=np.int64)  # repro: shape[(S, E) i8]
        for e in range(n_events):
            table[enc.src[e], e] = enc.dst[e]
        self.next_state = table
        # Observation walk: a disabled observation is ignored (the row
        # stays put), as in SupervisorEngine.observe.
        observe = np.empty((n_states, n_events + 1), dtype=np.int64)  # repro: shape[(S, E+1) i8]
        observe[:, :n_events] = np.where(table >= 0, table, states[:, None])
        observe[:, n_events] = states
        self._observe = observe.ravel()
        enabled = np.zeros((n_states, self.idle + 1), dtype=bool)  # repro: shape[(S, A+1) b1]
        action_next = np.full((n_states, self.idle + 1), -1, dtype=np.int64)  # repro: shape[(S, A+1) i8]
        for j, name in enumerate(self.actions):
            e = enc.event_index(name)
            if e is None or not enc.event_controllable[e]:
                continue
            enabled[:, j] = table[:, e] >= 0
            action_next[:, j] = table[:, e]
        enabled[:, self.idle] = True
        action_next[:, self.idle] = states
        self.enabled = enabled
        self.action_next = action_next

    def event_column(self, name: str) -> int:
        """Column of event ``name`` (which must be in the alphabet, as
        :meth:`SupervisorEngine.observe` requires)."""
        try:
            return self.event_names.index(name)
        except ValueError:
            raise SupervisorRuntimeError(
                f"event {name!r} is not in the supervisor's alphabet"
            ) from None

    def observe(self, state: np.ndarray, events) -> None:
        # repro: shape[state: (N,) i8]
        """Advance each row over its observation (in place).

        ``events`` holds one event column per row (or one for all);
        rows whose event is disabled, or ``no_event``, stay put.
        """
        width = self.no_event + 1
        np.take(self._observe, state * width + events, out=state)

    def select(
        self, state: np.ndarray, guards: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # repro: shape[state: (N,) i8; guards: (N, A+1) b1; out: (N,) i8; -> (N,) i8]
        """Per row, the first action in priority order that the
        supervisor enables and whose guard passes; ``idle`` if none.

        ``guards`` is ``(N, A+1)`` with the idle column set to True; it
        is overwritten with the enabled-and-guarded mask.
        """
        np.logical_and(guards, self.enabled[state], out=guards)
        return np.argmax(guards, axis=1, out=out)

    def execute(self, state: np.ndarray, choice: np.ndarray) -> None:
        # repro: shape[state: (N,) i8; choice: (N,) i8]
        """Advance each row over its chosen action (in place).

        Raises :class:`SupervisorRuntimeError` if any row's action is
        disabled in its state, the check :meth:`SupervisorEngine.execute`
        makes.
        """
        width = self.idle + 1
        target = self.action_next.ravel()[state * width + choice]
        if target.min() < 0:
            row = int(np.flatnonzero(target < 0)[0])
            raise SupervisorRuntimeError(
                f"action {self.actions[choice[row]]!r} is disabled by the "
                f"supervisor at state {self.state_names[state[row]]} "
                f"(row {row})"
            )
        state[...] = target
