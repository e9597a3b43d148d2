"""Repo self-scan: the flow analyzer gates src/repro with zero
non-baselined findings — the acceptance criterion of the flow gate."""

import re
from pathlib import Path

import pytest

from repro.analysis.flow import Baseline, analyze_project, run_all_rules
from repro.analysis.flow.rules import DEFAULT_HOT_PATH_ALLOWED

REPO = Path(__file__).resolve().parents[3]
SRC_REPRO = REPO / "src" / "repro"
BASELINE = REPO / "analysis-baseline.json"


@pytest.fixture(scope="module")
def scan():
    return analyze_project([SRC_REPRO], baseline=Baseline.load(BASELINE))


class TestSelfScan:
    def test_baseline_file_is_checked_in(self):
        assert BASELINE.is_file()

    def test_zero_non_baselined_findings(self, scan):
        assert list(scan.report) == [], scan.report.format_text()

    def test_no_stale_baseline_entries(self, scan):
        stale = [f for f in scan.report.findings if f.rule == "REPRO-N002"]
        assert stale == []

    def test_scan_covers_the_whole_package(self, scan):
        assert scan.stats.modules_total > 90
        assert scan.stats.functions > 700
        assert scan.stats.call_edges > 1000

    def test_without_baseline_only_known_hot_path_exemptions(self):
        # With the hot-path allowlist emptied, every finding must lie in
        # an allowlisted function, and every allowlisted name must
        # produce one: a stale allowlist entry fails here the way a
        # stale baseline entry fails test_no_stale_baseline_entries.
        result = analyze_project([SRC_REPRO])
        findings = run_all_rules(
            result.index, result.graph, hot_path_allowed=frozenset()
        )
        flagged = set()
        for finding in findings:
            assert finding.rule == "REPRO-F003", finding.format()
            qualname = re.search(r" in (\S+) allocates", finding.message)
            flagged.add(qualname.group(1).rsplit(".", 1)[1])
        assert flagged == DEFAULT_HOT_PATH_ALLOWED
