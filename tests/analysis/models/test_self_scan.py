"""The repo gates itself: the paper's own models must scan clean.

Two layers: the design flow's output (synthesized in-process) and the
committed ``artifacts/case_study`` JSON files, checked against the
REPRO-M entries of the committed (empty) ``analysis-baseline.json``.
Plus the M006 contract check — the rule module must shadow exactly
the event names the runtime monitor gates on, or the static replay
drifts from the deployed invariants.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.flow.baseline import Baseline, apply_baseline
from repro.analysis.models.cli import _case_study_result
from repro.analysis.models.scan import analyze_model_set, scan_paths

REPO_ROOT = Path(__file__).resolve().parents[3]
ARTIFACTS = REPO_ROOT / "artifacts" / "case_study"
BASELINE = REPO_ROOT / "analysis-baseline.json"


class TestSelfScan:
    def test_synthesized_case_study_is_clean(self):
        from repro.core.synthesis_flow import build_case_study_supervisor

        verified = build_case_study_supervisor()
        findings = analyze_model_set(
            {
                "plant": verified.plant,
                "specification": verified.specification,
                "supervisor": verified.supervisor,
            },
            path="<case-study>",
        )
        assert findings == []

    def test_case_study_cli_path_is_clean(self):
        result = _case_study_result(resynthesize=True)
        assert result.report.findings == []
        assert result.stats.models_checked == 3
        assert result.stats.resynthesized == 1

    def test_committed_artifacts_scan_clean_against_baseline(self):
        assert ARTIFACTS.is_dir(), "committed case-study artifacts missing"
        result = scan_paths([ARTIFACTS], cache=None)
        findings = sorted(result.report.findings)
        if BASELINE.is_file():
            findings = apply_baseline(
                findings, Baseline.load(BASELINE).restrict("REPRO-M")
            )
        assert findings == []
        # One model-set unit holding the full plant/spec/supervisor trio.
        assert result.stats.units_scanned == 1
        assert result.stats.models_checked == 3
        assert result.stats.resynthesized == 1

    def test_committed_baseline_is_empty(self):
        # The repo carries no accepted model findings; if a rule change
        # makes the artifacts dirty, fix the models — don't baseline.
        assert BASELINE.is_file()
        assert Baseline.load(BASELINE).entries == ()


class TestMonitorContract:
    def test_rule_module_shadows_monitor_event_names(self):
        """M006 replays RES-I2/RES-I3; both sides must gate on the same
        alphabet constants."""
        import repro.analysis.models.rules as rules
        import repro.resilience.monitor as monitor

        for name in (
            "CRITICAL",
            "SAFE_POWER",
            "INCREASE_BIG_POWER",
            "INCREASE_LITTLE_POWER",
            "DECREASE_CRITICAL_POWER",
        ):
            assert getattr(rules, name) == getattr(monitor, name), name
