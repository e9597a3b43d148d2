"""Baseline load/apply/write and stale-entry (REPRO-N002) tests."""

import json

import pytest

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    BaselineEntry,
    apply_baseline,
    write_baseline,
)


def finding(path="src/m.py", rule="REPRO-F001", message="bad", line=3):
    return Finding(
        path=path, line=line, rule=rule, severity=Severity.ERROR, message=message
    )


class TestApplyBaseline:
    def test_matching_entry_drops_finding(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(path="src/m.py", rule="REPRO-F001", message="bad"),
            )
        )
        assert apply_baseline([finding()], baseline) == []

    def test_line_number_is_ignored_for_matching(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(
                    path="src/m.py", rule="REPRO-F001", message="bad", line=999
                ),
            )
        )
        assert apply_baseline([finding(line=3)], baseline) == []

    def test_stale_entry_becomes_n002(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(path="src/m.py", rule="REPRO-F001", message="gone"),
            ),
            source="analysis-baseline.json",
        )
        result = apply_baseline([finding(message="still here")], baseline)
        rules = sorted(f.rule for f in result)
        assert rules == ["REPRO-F001", "REPRO-N002"]
        (stale,) = [f for f in result if f.rule == "REPRO-N002"]
        assert stale.severity == Severity.WARNING
        assert "analysis-baseline.json" in stale.message

    def test_different_message_does_not_match(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(path="src/m.py", rule="REPRO-F001", message="other"),
            )
        )
        result = apply_baseline([finding()], baseline)
        assert any(f.rule == "REPRO-F001" for f in result)


class TestLoadAndWrite:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "baseline.json"
        count = write_baseline([finding(), finding(rule="REPRO-F003")], target)
        assert count == 2
        baseline = Baseline.load(target)
        assert len(baseline.entries) == 2
        assert apply_baseline(
            [finding(), finding(rule="REPRO-F003")], baseline
        ) == []

    def test_hygiene_rules_are_never_baselined(self, tmp_path):
        target = tmp_path / "baseline.json"
        count = write_baseline(
            [finding(rule="REPRO-N001"), finding(rule="REPRO-N002")], target
        )
        assert count == 0

    def test_wrong_schema_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(target)

    def test_written_schema_is_current(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline([finding()], target)
        payload = json.loads(target.read_text())
        assert payload["schema"] == BASELINE_SCHEMA
        assert payload["entries"][0]["justification"]


class TestRuleFamilies:
    """One baseline file serves every tier: each applies its own family."""

    def test_writing_one_family_keeps_the_others(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline([finding(rule="REPRO-F003")], target, family="REPRO-F")
        count = write_baseline(
            [finding(rule="REPRO-M002"), finding(rule="REPRO-F001")],
            target,
            family="REPRO-M",
        )
        assert count == 1
        rules = sorted(e.rule for e in Baseline.load(target).entries)
        assert rules == ["REPRO-F003", "REPRO-M002"]

    def test_other_family_entry_is_never_stale(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline([finding(rule="REPRO-F003")], target)
        shapes = Baseline.load(target).restrict("REPRO-S")
        assert apply_baseline([], shapes) == []
        flow = Baseline.load(target).restrict("REPRO-F")
        assert [f.rule for f in apply_baseline([], flow)] == ["REPRO-N002"]
