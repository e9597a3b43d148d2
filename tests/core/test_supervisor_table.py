"""Differential tests: the compiled :class:`SupervisorTable` vs the engine.

The table advances N rows of one supervisor per array op; its contract
is that every row behaves exactly like its own
:class:`SupervisorEngine` driven by a :class:`PriorityPolicy`.
Hypothesis generates per-row observation sequences (disabled events
included) and per-slot guard outcomes (priorities may name events that
are uncontrollable or outside the alphabet), and both sides must
agree on the state and the executed actions after every invocation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.core.supervisor import (
    PriorityPolicy,
    SupervisorEngine,
    SupervisorRuntimeError,
    SupervisorTable,
)
from repro.managers.spectr import ACTION_PRIORITIES, MAX_ACTIONS_PER_INVOCATION

from tests.core.test_supervisor_engine import small_supervisor


def looping_supervisor():
    """One state, a self-looping action: every slot may fire."""
    return automaton_from_table(
        "loop",
        Alphabet.of([controllable("a"), uncontrollable("tick")]),
        transitions=[("S", "a", "S"), ("S", "tick", "S")],
        initial="S",
        marked=["S"],
    )


class _ScriptedGuards:
    """Per-slot guard outcomes for one engine invocation.

    Every action's effect advances the slot, so the guards the engine
    consults before its k-th action read row ``k`` of ``outcomes``.
    """

    def __init__(self, outcomes) -> None:
        self.outcomes = outcomes
        self.slot = 0

    def guard(self, j: int):
        return lambda: self.outcomes[self.slot][j]

    def advance(self) -> None:
        self.slot += 1


def _engine_invoke(engine, priorities, max_actions, observations, outcomes):
    scripted = _ScriptedGuards(outcomes)
    policy = PriorityPolicy(
        priorities=priorities,
        guards={name: scripted.guard(j) for j, name in enumerate(priorities)},
        max_actions_per_invocation=max_actions,
    )
    effects = {name: scripted.advance for name in priorities}
    return engine.invoke(observations, policy, effects=effects)


def _table_invoke(table, state, max_actions, observations, outcomes):
    """One invocation on every row; returns each row's executed actions."""
    n_rows = state.size
    width = max((len(obs) for obs in observations), default=0)
    columns = np.full((n_rows, width), table.no_event, dtype=np.int64)
    for row, obs in enumerate(observations):
        columns[row, : len(obs)] = [table.event_column(e) for e in obs]
    for k in range(width):
        table.observe(state, columns[:, k])
    executed: list[list[str]] = [[] for _ in range(n_rows)]
    stopped = np.zeros(n_rows, dtype=bool)
    choice = np.empty(n_rows, dtype=np.int64)
    for slot in range(max_actions):
        guards = np.ones((n_rows, table.idle + 1), dtype=bool)
        guards[:, : table.idle] = outcomes[:, slot, :]
        # The engine stops at its first empty selection.
        guards[stopped, : table.idle] = False
        table.select(state, guards, choice)
        table.execute(state, choice)
        stopped |= choice == table.idle
        for row in np.flatnonzero(~stopped).tolist():
            executed[row].append(table.actions[choice[row]])
    return [tuple(e) for e in executed]


CASES = {
    "small": (small_supervisor, ("act", "trim", "alarm", "bogus"), 2),
    "loop": (looping_supervisor, ("a",), 3),
}


@pytest.fixture(scope="module")
def cases(verified_supervisor):
    built = {
        name: (factory(), priorities, max_actions)
        for name, (factory, priorities, max_actions) in CASES.items()
    }
    built["case-study"] = (
        verified_supervisor.supervisor,
        ACTION_PRIORITIES,
        MAX_ACTIONS_PER_INVOCATION,
    )
    return built


@st.composite
def scripts(draw, alphabet: tuple[str, ...], n_actions: int, max_actions: int):
    n_rows = draw(st.integers(1, 5))
    n_invocations = draw(st.integers(1, 8))
    observation = st.lists(st.sampled_from(alphabet), max_size=3)
    invocations = []
    for _ in range(n_invocations):
        observations = [draw(observation) for _ in range(n_rows)]
        outcomes = draw(
            st.lists(
                st.booleans(),
                min_size=n_rows * max_actions * n_actions,
                max_size=n_rows * max_actions * n_actions,
            )
        )
        invocations.append(
            (
                observations,
                np.array(outcomes, dtype=bool).reshape(
                    n_rows, max_actions, n_actions
                ),
            )
        )
    return n_rows, invocations


@pytest.mark.parametrize("case", ["small", "loop", "case-study"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_matches_engine(cases, case, data):
    supervisor, priorities, max_actions = cases[case]
    alphabet = tuple(e.name for e in supervisor.alphabet)
    n_rows, invocations = data.draw(
        scripts(alphabet, len(priorities), max_actions)
    )
    table = SupervisorTable(supervisor, priorities)
    engines = [SupervisorEngine(supervisor) for _ in range(n_rows)]
    state = np.full(n_rows, table.initial, dtype=np.int64)
    for step, (observations, outcomes) in enumerate(invocations):
        executed = _table_invoke(
            table, state, max_actions, observations, outcomes
        )
        for row, engine in enumerate(engines):
            expected = _engine_invoke(
                engine, priorities, max_actions, observations[row],
                outcomes[row],
            )
            assert executed[row] == expected, (case, step, row)
            assert table.state_names[state[row]] == engine.state.name, (
                case,
                step,
                row,
            )


class TestTableLayout:
    def test_disabled_entries_are_minus_one(self):
        table = SupervisorTable(small_supervisor(), ("act", "trim"))
        normal = table.state_names.index("Normal")
        act = table.event_names.index("act")
        assert table.next_state[normal, act] == -1
        assert table.initial == normal

    def test_unknown_and_uncontrollable_actions_never_enabled(self):
        table = SupervisorTable(small_supervisor(), ("alarm", "bogus"))
        assert not table.enabled[:, : table.idle].any()
        assert table.enabled[:, table.idle].all()

    def test_missing_observation_is_ignored(self):
        table = SupervisorTable(small_supervisor(), ("act",))
        state = np.full(2, table.initial, dtype=np.int64)
        table.observe(state, np.array([table.no_event, table.event_column("alarm")]))
        assert [table.state_names[s] for s in state] == ["Normal", "Alarmed"]

    def test_unknown_event_name_raises(self):
        table = SupervisorTable(small_supervisor(), ("act",))
        with pytest.raises(SupervisorRuntimeError, match="bogus"):
            table.event_column("bogus")


class TestDisabledActionCheck:
    def test_tampered_table_raises(self):
        table = SupervisorTable(small_supervisor(), ("act", "trim"))
        normal = table.state_names.index("Normal")
        trim = table.actions.index("trim")
        # The enabled mask still offers trim; the next-state table no
        # longer has it, the mismatch a corrupted artifact would show.
        table.action_next[normal, trim] = -1
        state = np.full(3, table.initial, dtype=np.int64)
        guards = np.ones((3, table.idle + 1), dtype=bool)
        choice = table.select(state, guards, np.empty(3, dtype=np.int64))
        assert choice.tolist() == [trim] * 3
        with pytest.raises(SupervisorRuntimeError, match="trim"):
            table.execute(state, choice)

    def test_disabled_choice_raises_and_leaves_state(self):
        table = SupervisorTable(small_supervisor(), ("act", "trim"))
        state = np.full(2, table.initial, dtype=np.int64)
        act = table.actions.index("act")
        with pytest.raises(SupervisorRuntimeError, match="act"):
            table.execute(state, np.array([table.idle, act]))
        assert (state == table.initial).all()
