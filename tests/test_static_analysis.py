"""End-to-end gate: run ``python -m repro.analysis`` in-process.

The same invocation ``scripts/check.sh`` wires into CI: the repo's own
``src/`` tree must come back clean, and the seeded bad-artifact fixtures
must fail with a ``file:line`` finding.
"""

from pathlib import Path

from repro.analysis.cli import analyze_paths, main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis" / "fixtures"


class TestCleanTree:
    def test_src_tree_exits_zero(self, capsys):
        assert main([str(REPO / "src")]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_src_tree_report_counts(self):
        report = analyze_paths([REPO / "src"])
        assert report.ok
        assert report.files_checked > 50
        assert report.errors == ()


class TestSeededBadArtifacts:
    def test_nondeterministic_automaton_fails_with_location(self, capsys):
        path = FIXTURES / "nondeterministic_automaton.json"
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1: error: REPRO-A002" in out

    def test_alphabet_mismatch_bundle_fails(self, capsys):
        bundle = FIXTURES / "alphabet_mismatch_bundle"
        assert main([str(bundle)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines() == [
            *alphabet_mismatch_rows(bundle),
            "1 files, 2 artifacts checked: 2 errors, 0 warnings, 0 notes",
        ]

    def test_fixture_dir_is_discovered_by_walking(self, capsys):
        # Walking the directory (not naming files) must still find both
        # seeded artifacts: one automaton JSON + one bundle dir.
        assert main([str(FIXTURES)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "REPRO-A002" in lines[2]
        assert lines[:2] == alphabet_mismatch_rows(
            FIXTURES / "alphabet_mismatch_bundle"
        )


def alphabet_mismatch_rows(bundle):
    """The seeded bundle's conflicting 'toggle' event: an M004 error, and
    M007's failure branch because re-synthesis cannot compose it."""
    manifest = bundle / "bundle.json"
    return [
        f"{manifest}:1: error: REPRO-M004: event 'toggle' is uncontrollable "
        "in 'plant' but controllable in 'supervisor'",
        f"{manifest}:1: error: REPRO-M007: re-synthesis from the bundled "
        "models failed: event 'toggle' already present with different "
        "attributes: toggle[u] vs toggle[c]",
    ]


class TestSeverityGating:
    def test_warning_only_file_passes_unless_strict(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def f(period):\n    return period\n")
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main(["--strict", str(path)]) == 1
        out = capsys.readouterr().out
        assert "REPRO-L006" in out

    def test_quiet_hides_warnings(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def f(period):\n    return period\n")
        assert main(["--quiet", str(path)]) == 0
        out = capsys.readouterr().out
        assert "REPRO-L006" not in out

    def test_nonexistent_path_fails_the_gate(self, capsys):
        # A typo'd path in CI must not pass green with "0 files checked".
        assert main([str(REPO / "no-such-dir")]) == 1
        out = capsys.readouterr().out
        assert "REPRO-C001" in out
        assert "does not exist" in out

    def test_lint_error_fails_the_gate(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("def f(x=[]):\n    return x\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1: error: REPRO-L001" in out
