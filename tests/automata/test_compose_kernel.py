"""Differential gate for the reachable-product kernel.

``compose_all`` / ``synchronous_composition``, ``encode_composition``
and ``synthesis_product`` all build products through
:func:`repro.automata.symbolic.reachable_product`.  This suite compares
each against the construction it replaced (kept in
:mod:`tests.automata.compose_oracle`):

* composed automata must equal the pairwise BFS fold *including
  insertion order* — ``_states``, ``_delta``, the alphabet's event
  order — plus marking, forbidden flags, initial state, name, and the
  exceptions raised on a missing initial state or a controllability
  conflict;
* encoded products must equal the oracle's arrays after restriction to
  the reachable states, and every ``SupremalFixpoint`` mask must be
  unchanged;
* products whose cross product overflows int64, or is far too large to
  allocate, must still come out exact.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.automata.symbolic_synthesis as symbolic_synthesis
from repro.automata import (
    automaton_from_dict,
    encode_automaton,
    encode_composition,
    explicit_verify_supervisor,
    supremal_fixpoint,
    synthesis_product,
    synthesize_supervisor,
)
from repro.automata.automaton import Automaton
from repro.automata.events import Alphabet, Event, controllable, uncontrollable
from repro.automata.modular import synthesize_modular
from repro.automata.operations import compose_all, synchronous_composition
from repro.automata.symbolic import forward_reachable, restrict_states
from repro.core.plant_model import (
    case_study_alphabet,
    gain_mode_plant,
    power_capping_plant,
    qos_tracking_plant,
)
from repro.core.scalable import (
    fleet_alphabet,
    fleet_plant_components,
    fleet_specification,
    scalable_alphabet,
    scalable_budget_lock_spec,
    scalable_counter_plant,
    scalable_plant_components,
    scalable_specification,
)
from repro.core.specification import budget_lock_spec, three_band_spec
from tests.automata.compose_oracle import (
    oracle_compose_all,
    oracle_encode_composition,
    oracle_synchronous_composition,
    oracle_synthesis_product,
)

ARTIFACTS = Path(__file__).resolve().parents[2] / "artifacts"

# Shared pool: factors draw overlapping subsets, so some events are
# shared and some private.  ``b`` has an uncontrollable twin for the
# controllability-conflict case.
POOL = [
    controllable("a"),
    controllable("b"),
    uncontrollable("u"),
    uncontrollable("v"),
    controllable("w"),
]
CONFLICT = uncontrollable("b")
STATE_NAMES = ["S0", "S1", "S2", "S3"]


def assert_same_automaton(got: Automaton, want: Automaton) -> None:
    assert got.name == want.name
    assert list(got._states) == list(want._states)
    assert list(got._delta.items()) == list(want._delta.items())
    assert got._enabled == want._enabled
    assert list(got._enabled) == list(want._enabled)
    assert got._marked == want._marked
    assert got._forbidden == want._forbidden
    assert got._initial == want._initial
    assert list(got.alphabet._events.items()) == list(
        want.alphabet._events.items()
    )


def outcome(build, *args, **kwargs):
    """The built automaton, or the type and message of what it raised."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want) -> None:
    if isinstance(want, Automaton):
        assert isinstance(got, Automaton), got
        assert_same_automaton(got, want)
    else:
        assert got == want


def assert_same_encoding(got, want) -> None:
    assert got.name == want.name
    assert got.n_states == want.n_states
    assert got.event_names == want.event_names
    assert np.array_equal(got.event_controllable, want.event_controllable)
    assert len(got.src) == len(want.src)
    for e in range(len(want.src)):
        assert np.array_equal(got.src[e], want.src[e])
        assert np.array_equal(got.dst[e], want.dst[e])
        assert got.src[e].dtype == want.src[e].dtype
    assert got.initial == want.initial
    assert np.array_equal(got.marked, want.marked)
    assert np.array_equal(got.forbidden, want.forbidden)
    assert got.state_names == want.state_names


@st.composite
def factors(draw, min_size=2, max_size=5, conflicts=True, initials=True):
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    built = []
    for k in range(count):
        events = draw(
            st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True)
        )
        if conflicts and draw(st.integers(0, 19)) == 0:
            events = [e for e in events if e.name != "b"] + [CONFLICT]
        if draw(st.booleans()):
            events.append(controllable(f"p{k}"))
        n_states = draw(st.integers(min_value=1, max_value=len(STATE_NAMES)))
        states = STATE_NAMES[:n_states]
        automaton = Automaton(f"F{k}", Alphabet.of(events))
        for state in states:
            automaton.add_state(state)
        if not initials or draw(st.integers(0, 14)):
            automaton.set_initial(draw(st.sampled_from(states)))
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            source = draw(st.sampled_from(states))
            event = draw(st.sampled_from(events))
            target = draw(st.sampled_from(states))
            if automaton.step(source, event) is None:
                automaton.add_transition(source, event, target)
        for state in draw(st.lists(st.sampled_from(states), max_size=n_states)):
            automaton.mark(state)
        for state in draw(st.lists(st.sampled_from(states), max_size=2)):
            automaton.forbid(state)
        built.append(automaton)
    return built


# ----------------------------------------------------------------------
# compose_all / synchronous_composition against the pairwise BFS fold
# ----------------------------------------------------------------------
class TestComposeDifferential:
    @given(factors())
    @settings(max_examples=200, deadline=None)
    def test_random_factors(self, items):
        assert_same_outcome(
            outcome(compose_all, items), outcome(oracle_compose_all, items)
        )
        assert_same_outcome(
            outcome(compose_all, items, name="named"),
            outcome(oracle_compose_all, items, name="named"),
        )
        a, b = items[0], items[1]
        assert_same_outcome(
            outcome(synchronous_composition, a, b),
            outcome(oracle_synchronous_composition, a, b),
        )
        assert_same_outcome(
            outcome(synchronous_composition, b, a, name="ba"),
            outcome(oracle_synchronous_composition, b, a, name="ba"),
        )

    def test_missing_initial_raises_like_the_fold(self):
        sigma = Alphabet.of(POOL)
        first = Automaton("first", sigma, initial="S0")
        lacking = Automaton("lacking", sigma)
        lacking.add_state("S0")
        for items in ([first, lacking], [lacking, first], [first, first, lacking]):
            got = outcome(compose_all, items)
            assert got == outcome(oracle_compose_all, items)
            assert got[1] == "automaton 'lacking' has no initial state"

    def test_conflict_raises_before_missing_initial(self):
        # The fold merges alphabets step by step: a conflict in the
        # first step wins over a missing initial state in a later one.
        good = Automaton("good", Alphabet.of([POOL[1]]), initial="S0")
        clash = Automaton("clash", Alphabet.of([CONFLICT]), initial="S0")
        lacking = Automaton("lacking", Alphabet.of([POOL[0]]))
        lacking.add_state("S0")
        for items in ([good, clash, lacking], [good, lacking, clash]):
            got = outcome(compose_all, items)
            assert got == outcome(oracle_compose_all, items)

    def test_single_automaton_is_returned_renamed(self):
        item = Automaton("solo", Alphabet.of(POOL), initial="S0")
        assert compose_all([item], name="renamed") is item
        assert item.name == "renamed"

    def test_case_study_models(self):
        sigma = case_study_alphabet()
        for parts, name in (
            (
                [power_capping_plant(sigma), gain_mode_plant(sigma),
                 qos_tracking_plant(sigma)],
                "ExynosPlant",
            ),
            ([three_band_spec(sigma), budget_lock_spec(sigma)], "ExynosSpec"),
        ):
            assert_same_automaton(
                compose_all(parts, name=name), oracle_compose_all(parts, name=name)
            )

    @pytest.mark.parametrize("n_clusters", [2, 3, 4, 5])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_scalable_models(self, n_clusters, levels):
        sigma = scalable_alphabet(n_clusters)
        parts = scalable_plant_components(n_clusters, levels, sigma)
        assert_same_automaton(compose_all(parts), oracle_compose_all(parts))
        spec_parts = [
            three_band_spec(sigma),
            scalable_budget_lock_spec(n_clusters, sigma),
        ]
        assert_same_automaton(
            compose_all(spec_parts), oracle_compose_all(spec_parts)
        )

    @pytest.mark.parametrize("n_clusters", [2, 3, 4, 5])
    def test_fleet_models(self, n_clusters):
        sigma = fleet_alphabet(n_clusters)
        parts = fleet_plant_components(n_clusters, 2, sigma)
        assert_same_automaton(
            compose_all(parts, name="fleet"), oracle_compose_all(parts, name="fleet")
        )

    def test_committed_artifacts_closed_loop(self):
        def load(name):
            return automaton_from_dict(
                json.loads((ARTIFACTS / "case_study" / name).read_text())
            )

        plant, spec, supervisor = (
            load("plant.json"),
            load("specification.json"),
            load("supervisor.json"),
        )
        for a, b in ((plant, supervisor), (plant, spec), (supervisor, spec)):
            assert_same_automaton(
                synchronous_composition(a, b, name=f"{a.name}||{b.name}"),
                oracle_synchronous_composition(a, b, name=f"{a.name}||{b.name}"),
            )

    def test_modular_composite(self):
        sigma = case_study_alphabet()
        plant = compose_all(
            [power_capping_plant(sigma), gain_mode_plant(sigma),
             qos_tracking_plant(sigma)],
            name="ExynosPlant",
        )
        result = synthesize_modular(
            plant, [three_band_spec(sigma), budget_lock_spec(sigma)]
        )
        want = oracle_compose_all(
            [r.supervisor for r in result.supervisors], name="modular-composite"
        )
        assert_same_automaton(result.composite, want)

    def test_verification_closed_loop(self):
        sigma = scalable_alphabet(3)
        plant = scalable_counter_plant(3, 2, sigma)
        supervisor = synthesize_supervisor(
            plant, scalable_specification(3, sigma)
        ).supervisor
        name = f"{plant.name}||{supervisor.name}"
        assert_same_automaton(
            synchronous_composition(plant, supervisor, name=name),
            oracle_synchronous_composition(plant, supervisor, name=name),
        )
        report = explicit_verify_supervisor(plant, supervisor)
        assert report.nonblocking and report.controllable


# ----------------------------------------------------------------------
# encode_composition / synthesis_product against full products
# ----------------------------------------------------------------------
def _model_cases():
    sigma = case_study_alphabet()
    yield (
        "case-study",
        [power_capping_plant(sigma), gain_mode_plant(sigma), qos_tracking_plant(sigma)],
        compose_all([three_band_spec(sigma), budget_lock_spec(sigma)]),
    )
    for n in (2, 3, 4, 5):
        sigma = scalable_alphabet(n)
        yield (
            f"scalable-{n}",
            scalable_plant_components(n, 3 if n < 5 else 2, sigma),
            scalable_specification(n, sigma),
        )
    for n in (2, 3, 4):
        sigma = fleet_alphabet(n)
        yield (
            f"fleet-{n}",
            fleet_plant_components(n, 2, sigma),
            fleet_specification(n, sigma),
        )


MODEL_CASES = list(_model_cases())


def assert_reachable_product(plant_enc, spec_enc) -> None:
    got = synthesis_product(plant_enc, spec_enc).product
    full = oracle_synthesis_product(plant_enc, spec_enc).product
    reach = restrict_states(full, forward_reachable(full))
    assert got.name == full.name
    assert got.n_states == full.n_states
    assert got.event_names == full.event_names
    assert np.array_equal(got.event_controllable, full.event_controllable)
    assert got.initial == full.initial
    # Masks stay whole-pair-space; only the transitions are restricted.
    assert np.array_equal(got.marked, full.marked)
    assert np.array_equal(got.forbidden, full.forbidden)
    for e in range(len(full.src)):
        assert np.array_equal(got.src[e], reach.src[e])
        assert np.array_equal(got.dst[e], reach.dst[e])


def assert_fixpoint_unchanged(plant_enc, spec_enc, monkeypatch) -> None:
    got = supremal_fixpoint(plant_enc, spec_enc)
    with monkeypatch.context() as patch:
        patch.setattr(
            symbolic_synthesis, "synthesis_product", oracle_synthesis_product
        )
        want = supremal_fixpoint(plant_enc, spec_enc)
    for mask in ("reachable", "good", "removed_uncontrollable", "removed_blocking"):
        assert np.array_equal(getattr(got, mask), getattr(want, mask)), mask
    assert got.iterations == want.iterations
    assert_same_encoding(got.restricted, want.restricted)


class TestReachableProductDifferential:
    @pytest.mark.parametrize(
        "label,parts,spec", MODEL_CASES, ids=[case[0] for case in MODEL_CASES]
    )
    def test_models(self, label, parts, spec, monkeypatch):
        plant_enc = encode_composition(parts, name=label)
        assert_same_encoding(
            plant_enc, oracle_encode_composition(parts, name=label)
        )
        assert_same_encoding(
            encode_composition(parts), oracle_encode_composition(parts)
        )
        spec_enc = encode_automaton(spec)
        assert_reachable_product(plant_enc, spec_enc)
        # Named factors: the decoding path of symbolic synthesis.
        plant_named = encode_automaton(compose_all(parts))
        assert_reachable_product(plant_named, spec_enc)
        assert_fixpoint_unchanged(plant_enc, spec_enc, monkeypatch)
        assert_fixpoint_unchanged(plant_named, spec_enc, monkeypatch)

    @given(factors(conflicts=False, initials=False))
    @settings(max_examples=150, deadline=None)
    def test_random_factors(self, items):
        assert_same_encoding(
            encode_composition(items), oracle_encode_composition(items)
        )
        plant = encode_composition(items[:-1])
        spec = encode_automaton(items[-1])
        assert_reachable_product(plant, spec)
        got = supremal_fixpoint(plant, spec)
        full = oracle_synthesis_product(plant, spec)
        reachable = forward_reachable(full.product)
        assert np.array_equal(got.reachable, reachable)

    def test_single_component_is_passed_through(self):
        (part,) = [power_capping_plant(case_study_alphabet())]
        assert encode_composition([part]) is encode_automaton(part)
        assert encode_composition([part], name="x").name == "x"


# ----------------------------------------------------------------------
# Sparse products and int64 overflow
# ----------------------------------------------------------------------
def toggles(count: int) -> list[Automaton]:
    toggle = Event("toggle")
    parts = []
    for k in range(count):
        automaton = Automaton(f"T{k}", Alphabet.of([toggle]), initial="Off")
        automaton.add_transition("Off", toggle, "On")
        automaton.add_transition("On", toggle, "Off")
        automaton.mark("Off")
        parts.append(automaton)
    return parts


class TestSparseProducts:
    def test_64_synchronized_toggles(self):
        # 2**64 cross product, 2 reachable states: the key space
        # overflows int64, so a prefix is composed first.
        parts = toggles(64)
        start = time.perf_counter()
        got = compose_all(parts, name="toggles")
        elapsed = time.perf_counter() - start
        assert_same_automaton(got, oracle_compose_all(parts, name="toggles"))
        assert len(got) == 2
        assert elapsed < 1.0

    def test_encoded_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            encode_composition(toggles(64))

    def test_closed_loop_allocates_no_cross_product(self):
        sigma = scalable_alphabet(7)
        plant = scalable_counter_plant(7, 3, sigma)
        supervisor = synthesize_supervisor(
            plant, scalable_specification(7, sigma)
        ).supervisor
        cross = len(plant) * len(supervisor)
        assert cross > 2.6e9
        tracemalloc.start()
        try:
            closed = synchronous_composition(plant, supervisor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(closed) == len(supervisor)
        # One byte per pair would be a 2.6 GB mask.
        assert peak < cross // 16
