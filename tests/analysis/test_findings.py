"""Tests for the shared Finding/Severity/Report core."""

import ast
import re
from pathlib import Path

import repro.analysis
from repro.analysis.findings import RULE_REGISTRY, Finding, Report, Severity

RULE_ID = re.compile(r"REPRO-[A-Z]\d{3}")


def finding(severity, line=3, rule="REPRO-X001", path="src/mod.py"):
    return Finding(
        path=path, line=line, rule=rule, severity=severity, message="msg"
    )


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_str_is_lowercase(self):
        assert str(Severity.ERROR) == "error"


class TestFinding:
    def test_format_includes_file_and_line(self):
        text = finding(Severity.ERROR).format()
        assert text.startswith("src/mod.py:3: error: REPRO-X001:")

    def test_format_without_line_omits_it(self):
        assert finding(Severity.INFO, line=0).format().startswith("src/mod.py: ")

    def test_sort_order_is_by_location(self):
        a = finding(Severity.ERROR, path="a.py", line=9)
        b = finding(Severity.WARNING, path="b.py", line=1)
        assert sorted([b, a]) == [a, b]


class TestReport:
    def test_empty_report_is_ok(self):
        report = Report()
        assert report.ok
        assert report.exit_code == 0
        assert len(report) == 0

    def test_error_fails_the_run(self):
        report = Report()
        report.add(finding(Severity.ERROR))
        assert not report.ok
        assert report.exit_code == 1
        assert report.errors == (finding(Severity.ERROR),)

    def test_warnings_alone_do_not_fail(self):
        report = Report()
        report.extend([finding(Severity.WARNING), finding(Severity.INFO)])
        assert report.ok
        assert report.exit_code == 0

    def test_summary_counts_by_severity(self):
        report = Report(files_checked=2, artifacts_checked=1)
        report.extend(
            [finding(Severity.ERROR), finding(Severity.WARNING, line=4)]
        )
        assert report.summary() == (
            "2 files, 1 artifacts checked: 1 errors, 1 warnings, 0 notes"
        )

    def test_format_text_filters_by_severity(self):
        report = Report()
        report.extend(
            [finding(Severity.ERROR), finding(Severity.WARNING, line=4)]
        )
        text = report.format_text(min_severity=Severity.ERROR)
        assert "error" in text
        assert "warning" not in text.splitlines()[0]


class TestRuleRegistry:
    @staticmethod
    def emitted_rule_ids():
        """Every string literal that is a whole rule id, in every analyzer
        module except the registry itself."""
        package = Path(repro.analysis.__file__).parent
        found = set()
        for module in package.rglob("*.py"):
            if module == package / "findings.py":
                continue
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and RULE_ID.fullmatch(node.value)
                ):
                    found.add(node.value)
        return found

    def test_registry_matches_emitted_literals(self):
        # A retired rule must leave the registry, and a new one must
        # join it, or suppressions and baselines validate the wrong set.
        emitted = self.emitted_rule_ids()
        assert sorted(set(RULE_REGISTRY) - emitted) == []
        assert sorted(emitted - set(RULE_REGISTRY)) == []
