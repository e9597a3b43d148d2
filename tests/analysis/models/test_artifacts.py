"""Artifact units through the models tier: strict decode, closed loop, gains.

Every automaton file and policy bundle is read by
:mod:`repro.analysis.models.scan` alone.  Decode failures (missing key,
nondeterminism, unknown state or event, null initial, a marked or
initial state outside ``states``) are REPRO-A002; blocking, per model
or on the closed loop ``plant || supervisor``, is REPRO-M002; gain sets
in ``gains.npz`` get the REPRO-G checks.  Where a case seeds exactly one
defect it runs with ``resynthesize=False``, so it must produce exactly
one error.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.findings import Severity
from repro.analysis.models.scan import (
    analyze_model_set,
    looks_like_automaton_payload,
    scan_paths,
)
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable

from tests.analysis.models.conftest import save_gain_bundle, scalar_gains

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def payload(**overrides):
    """A minimal clean automaton payload (toggle machine)."""
    base = {
        "name": "toy",
        "events": [{"name": "a", "controllable": True, "observable": True}],
        "states": ["S0", "S1"],
        "initial": "S0",
        "marked": ["S0"],
        "forbidden": [],
        "transitions": [["S0", "a", "S1"], ["S1", "a", "S0"]],
    }
    base.update(overrides)
    return base


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def scan(path, *, resynthesize=False):
    result = scan_paths([path], cache=None, resynthesize=resynthesize)
    return sorted(result.report.findings)


def rules(findings):
    return [f.rule for f in findings]


def errors(findings):
    return [f for f in findings if f.severity == Severity.ERROR]


class TestPayloadDecode:
    """A role-named file claims to be an automaton: decode failures
    are A002, whatever broke."""

    def check(self, tmp_path, data):
        return scan(write_json(tmp_path / "plant.json", data))

    def test_clean_payload_has_no_findings(self, tmp_path):
        assert self.check(tmp_path, payload()) == []

    def test_missing_key_is_a002(self, tmp_path):
        bad = payload()
        del bad["transitions"]
        findings = self.check(tmp_path, bad)
        assert rules(findings) == ["REPRO-A002"]
        assert "'transitions'" in findings[0].message

    def test_nondeterminism_is_exactly_one_a002(self, tmp_path):
        bad = payload(
            states=["S0", "S1", "S2"],
            marked=["S1", "S2"],
            transitions=[["S0", "a", "S1"], ["S0", "a", "S2"]],
        )
        assert rules(errors(self.check(tmp_path, bad))) == ["REPRO-A002"]

    def test_unknown_state_is_a002(self, tmp_path):
        bad = payload(transitions=[["S0", "a", "GHOST"]])
        assert rules(self.check(tmp_path, bad)) == ["REPRO-A002"]

    def test_unknown_event_is_a002(self, tmp_path):
        bad = payload(transitions=[["S0", "zap", "S1"]])
        assert rules(self.check(tmp_path, bad)) == ["REPRO-A002"]

    def test_null_initial_is_a002(self, tmp_path):
        findings = self.check(tmp_path, payload(initial=None))
        assert rules(findings) == ["REPRO-A002"]
        assert "no initial state" in findings[0].message

    def test_marked_state_not_in_states_is_a002(self, tmp_path):
        findings = self.check(tmp_path, payload(marked=["S0", "GHOST"]))
        assert rules(findings) == ["REPRO-A002"]
        assert "['marked']" in findings[0].message

    def test_initial_not_in_states_is_a002(self, tmp_path):
        bad = payload(initial="GHOST")
        assert rules(self.check(tmp_path, bad)) == ["REPRO-A002"]

    def test_no_marked_state_is_m002(self, tmp_path):
        findings = self.check(tmp_path, payload(marked=[]))
        assert rules(errors(findings)) == ["REPRO-M002"]

    def test_unreachable_state_is_m001_warning_only(self, tmp_path):
        shape = payload(states=["S0", "S1", "ORPHAN"])
        findings = self.check(tmp_path, shape)
        assert rules(findings) == ["REPRO-M001"]
        assert errors(findings) == []

    def test_blocking_state_is_m002(self, tmp_path):
        bad = payload(
            states=["S0", "S1", "DEAD"],
            transitions=[["S0", "a", "S1"], ["S1", "a", "DEAD"]],
        )
        findings = self.check(tmp_path, bad)
        assert rules(errors(findings)) == ["REPRO-M002"]
        assert "['DEAD', 'S1']" in errors(findings)[0].message


class TestModelSets:
    SIGMA = Alphabet.of([uncontrollable("fault"), controllable("fix")])

    def plant(self):
        return automaton_from_table(
            "plant",
            self.SIGMA,
            transitions=[("P0", "fault", "P1"), ("P1", "fix", "P0")],
            initial="P0",
            marked=["P0"],
        )

    def toggle(self, name, *, controllable_a=True):
        event = controllable("a") if controllable_a else uncontrollable("a")
        return automaton_from_table(
            name,
            Alphabet.of([event]),
            transitions=[("S0", "a", "S1"), ("S1", "a", "S0")],
            initial="S0",
            marked=["S0"],
        )

    def check(self, plant, supervisor, *, resynthesize=False):
        return analyze_model_set(
            {"plant": plant, "supervisor": supervisor},
            path="<unit>",
            resynthesize=resynthesize,
        )

    def test_consistent_alphabets_pass(self):
        assert self.check(self.toggle("m1"), self.toggle("m2")) == []

    def test_controllability_conflict_is_exactly_one_m004(self):
        findings = self.check(
            self.toggle("m1"), self.toggle("m2", controllable_a=False)
        )
        assert rules(errors(findings)) == ["REPRO-M004"]
        assert "controllable" in errors(findings)[0].message

    def test_exact_copy_passes(self):
        assert self.check(self.plant(), self.plant().copy("sup")) == []

    def test_disabled_uncontrollable_is_m003(self):
        supervisor = automaton_from_table(
            "sup",
            self.SIGMA,
            transitions=[],  # disables 'fault' at the initial state
            initial="T0",
            marked=["T0"],
        )
        assert "REPRO-M003" in rules(self.check(self.plant(), supervisor))

    @pytest.mark.parametrize("resynthesize", [False, True])
    def test_blocking_product_is_m002(self, resynthesize):
        # Supervisor follows 'fault' but never re-enables 'fix': the
        # supervisor alone is nonblocking (T1 is marked) yet the product
        # is stuck at P1.T1 with no path back to a marked pair.
        supervisor = automaton_from_table(
            "sup",
            self.SIGMA,
            transitions=[("T0", "fault", "T1")],
            initial="T0",
            marked=["T0", "T1"],
        )
        findings = self.check(
            self.plant(), supervisor, resynthesize=resynthesize
        )
        blocking = [f for f in findings if f.rule == "REPRO-M002"]
        assert [f.message for f in blocking] == [
            "closed loop 'plant' || 'sup': 1 blocking state(s) ['P1.T1']; "
            "shortest counterexample trace to 'P1.T1': [fault]"
        ]
        if not resynthesize:
            assert rules(errors(findings)) == ["REPRO-M002"]


class TestBundles:
    def test_clean_bundle_has_no_findings(self, tmp_path):
        bundle = save_gain_bundle(
            tmp_path / "bundle", scalar_gains("stable", 0.5, -0.25)
        )
        assert scan(bundle, resynthesize=True) == []

    def test_unstable_gain_set_exactly_one_error(self, tmp_path):
        # k_state=-0.8 puts a closed-loop eigenvalue at 1.3.
        bundle = save_gain_bundle(
            tmp_path / "bundle", scalar_gains("unstable", -0.8, 0.0)
        )
        errs = errors(scan(bundle))
        assert rules(errs) == ["REPRO-G003"]
        assert "gains.npz#big/unstable" in errs[0].path

    def test_missing_gains_file_is_g002(self, tmp_path):
        bundle = save_gain_bundle(
            tmp_path / "bundle", scalar_gains("stable", 0.5, -0.25)
        )
        (bundle / "gains.npz").unlink()
        findings = scan(bundle)
        assert rules(findings) == ["REPRO-G002"]
        assert "missing" in findings[0].message

    def test_bundle_with_bad_format_is_a001(self, tmp_path):
        bundle = save_gain_bundle(
            tmp_path / "bundle", scalar_gains("stable", 0.5, -0.25)
        )
        manifest_path = bundle / "bundle.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        write_json(manifest_path, {**manifest, "format": "v99"})
        findings = scan(bundle)
        assert rules(findings) == ["REPRO-A001"]
        assert "'v99'" in findings[0].message

    def test_alphabet_mismatch_bundle_exactly_one_error(self):
        errs = errors(scan(FIXTURES / "alphabet_mismatch_bundle"))
        assert rules(errs) == ["REPRO-M004"]
        assert "toggle" in errs[0].message


class TestFiles:
    def test_nondeterministic_fixture_exactly_one_error(self):
        path = FIXTURES / "nondeterministic_automaton.json"
        errs = errors(scan(path))
        assert rules(errs) == ["REPRO-A002"]
        assert errs[0].path == str(path)
        assert errs[0].line == 1  # file:line in the formatted output

    def test_clean_automaton_fixture_has_no_findings(self):
        assert scan(FIXTURES / "clean_automaton.json", resynthesize=True) == []

    def test_non_automaton_json_named_explicitly_is_a001(self, tmp_path):
        path = write_json(tmp_path / "data.json", {"foo": 1})
        assert rules(scan(path)) == ["REPRO-A001"]

    def test_unreadable_json_is_a001(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert rules(scan(path)) == ["REPRO-A001"]

    def test_walk_picks_up_automaton_shaped_json_only(self, tmp_path):
        write_json(tmp_path / "data.json", {"foo": 1})
        write_json(
            tmp_path / "toy.json",
            payload(transitions=[["S0", "a", "S1"], ["S0", "a", "S0"]]),
        )
        result = scan_paths([tmp_path], cache=None)
        assert rules(result.report.findings) == ["REPRO-A002"]
        assert result.report.findings[0].path == str(tmp_path / "toy.json")
        assert result.stats.units_scanned == 1

    def test_payload_heuristic(self):
        assert looks_like_automaton_payload(
            {"states": [], "transitions": [], "events": []}
        )
        assert not looks_like_automaton_payload({"states": []})
        assert not looks_like_automaton_payload([1, 2])
