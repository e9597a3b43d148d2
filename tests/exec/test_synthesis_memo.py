"""Cache discipline for the content-addressed synthesis memo."""

import pytest

from repro.automata import (
    automaton_to_dict,
    synthesize_supervisor,
)
from repro.automata.automaton import Automaton
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.exec import ResultCache, cached_synthesize, synthesis_digest


def machine_pair():
    sigma = Alphabet.of(
        [
            controllable("start"),
            uncontrollable("finish"),
            uncontrollable("break"),
            controllable("repair"),
        ]
    )
    plant = Automaton("machine", sigma, initial="Idle")
    plant.add_transition("Idle", "start", "Working")
    plant.add_transition("Working", "finish", "Idle")
    plant.add_transition("Working", "break", "Down")
    plant.add_transition("Down", "repair", "Idle")
    plant.mark("Idle")
    spec = Automaton(
        "max-one-repair", Alphabet.of([sigma["repair"]]), initial="Fresh"
    )
    spec.add_transition("Fresh", "repair", "Used")
    spec.mark("Fresh")
    spec.mark("Used")
    return plant, spec


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def pair():
    return machine_pair()


def assert_results_equal(left, right):
    assert automaton_to_dict(left.supervisor) == automaton_to_dict(
        right.supervisor
    )
    assert left.removed_uncontrollable == right.removed_uncontrollable
    assert left.removed_blocking == right.removed_blocking
    assert left.iterations == right.iterations
    assert left.state_map == right.state_map


class TestDigest:
    def test_engine_is_part_of_the_key(self, cache, pair):
        plant, spec = pair
        symbolic = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        explicit = synthesis_digest(
            plant, spec, engine="explicit", salt=cache.salt
        )
        assert symbolic != explicit

    def test_salt_is_part_of_the_key(self, pair):
        plant, spec = pair
        assert synthesis_digest(
            plant, spec, engine="symbolic", salt="a"
        ) != synthesis_digest(plant, spec, engine="symbolic", salt="b")

    def test_plant_mutation_changes_the_key(self, cache, pair):
        plant, spec = pair
        before = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        plant.forbid("Down")
        after = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        assert before != after

    def test_spec_mutation_changes_the_key(self, cache, pair):
        plant, spec = pair
        before = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        spec.add_transition("Used", "repair", "Used")
        after = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        assert before != after

    def test_state_names_matter(self, cache, pair):
        # Isomorphic but relabeled inputs yield differently-labeled
        # supervisors, so they must not share a memo entry.
        plant, spec = pair
        relabeled = plant.relabel(
            lambda state: f"{state.name}X", name=plant.name
        )
        assert synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        ) != synthesis_digest(
            relabeled, spec, engine="symbolic", salt=cache.salt
        )

    def test_digest_is_construction_order_independent(self, cache, pair):
        plant, spec = pair
        sigma = plant.alphabet
        reordered = Automaton("machine", sigma)
        reordered.add_transition("Down", "repair", "Idle")
        reordered.add_transition("Working", "break", "Down")
        reordered.add_transition("Working", "finish", "Idle")
        reordered.add_transition("Idle", "start", "Working")
        reordered.set_initial("Idle")
        reordered.mark("Idle")
        assert synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        ) == synthesis_digest(
            reordered, spec, engine="symbolic", salt=cache.salt
        )


class TestCachedSynthesize:
    def test_miss_then_hit(self, cache, pair):
        plant, spec = pair
        first, was_hit = cached_synthesize(cache, plant, spec)
        assert not was_hit
        second, was_hit = cached_synthesize(cache, plant, spec)
        assert was_hit
        assert_results_equal(first, second)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_hit_matches_direct_synthesis(self, cache, pair):
        plant, spec = pair
        cached_synthesize(cache, plant, spec)
        warm, was_hit = cached_synthesize(cache, plant, spec)
        assert was_hit
        assert_results_equal(
            warm, synthesize_supervisor(plant, spec, engine="symbolic")
        )

    def test_engines_do_not_share_entries(self, cache, pair):
        plant, spec = pair
        _, was_hit = cached_synthesize(cache, plant, spec, engine="symbolic")
        assert not was_hit
        _, was_hit = cached_synthesize(cache, plant, spec, engine="explicit")
        assert not was_hit
        assert len(cache.entries()) == 2

    def test_mutated_plant_is_a_fresh_problem(self, cache, pair):
        plant, spec = pair
        cached_synthesize(cache, plant, spec)
        plant.forbid("Down")
        result, was_hit = cached_synthesize(cache, plant, spec)
        assert not was_hit
        assert_results_equal(
            result, synthesize_supervisor(plant, spec, engine="symbolic")
        )

    def test_corrupt_payload_evicts_and_recomputes(self, cache, pair):
        plant, spec = pair
        first, _ = cached_synthesize(cache, plant, spec)
        digest = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        payload = cache._payload_path(digest)
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        result, was_hit = cached_synthesize(cache, plant, spec)
        assert not was_hit
        assert_results_equal(result, first)
        assert cache.eviction_counts().get("checksum") == 1
        # The recomputed bundle was re-stored under the same key.
        _, was_hit = cached_synthesize(cache, plant, spec)
        assert was_hit

    def test_foreign_payload_type_evicts_with_decode_reason(
        self, cache, pair
    ):
        plant, spec = pair
        digest = synthesis_digest(
            plant, spec, engine="symbolic", salt=cache.salt
        )
        cache.put(digest, {"schema": "not-a-synthesis-result"})
        result, was_hit = cached_synthesize(cache, plant, spec)
        assert not was_hit
        assert cache.eviction_counts().get("decode") == 1
        assert_results_equal(
            result, synthesize_supervisor(plant, spec, engine="symbolic")
        )
