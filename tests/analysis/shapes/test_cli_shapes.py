"""CLI tests: ``python -m repro.analysis shapes`` and the ``all`` umbrella."""

import json

from repro.analysis.cli import all_main, main, shapes_main

from tests.analysis.shapes.conftest import write_project

BAD = """\
def f(a, b):
    # repro: shape[a: (N, p) f8; b: (N, m) f8; -> ?]
    return a + b
"""

CLEAN = """\
def g(a):
    # repro: shape[a: (N, p) f8; -> (N, p) f8]
    return a * 2.0
"""


def _chdir_with(tmp_path, monkeypatch, source):
    write_project(tmp_path, {"src/pkg/__init__.py": "", "src/pkg/m.py": source})
    monkeypatch.chdir(tmp_path)


class TestShapesCli:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, CLEAN)
        assert shapes_main(["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_mismatch_exits_one(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        assert shapes_main(["--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "REPRO-S001" in out
        assert "broadcast mismatch: (N, p) vs (N, m)" in out

    def test_dispatch_through_module_main(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        assert main(["shapes", "--no-cache"]) == 1
        capsys.readouterr()

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        shapes_main(["--no-cache", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"]["name"] == "repro-shapes"
        assert [f["rule"] for f in payload["findings"]] == ["REPRO-S001"]

    def test_sarif_format(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        shapes_main(["--no-cache", "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-shapes"
        assert len(run["results"]) == 1

    def test_write_baseline_then_clean_gate(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        assert shapes_main(["--no-cache", "--write-baseline"]) == 0
        assert (tmp_path / "analysis-baseline.json").is_file()
        capsys.readouterr()
        # The accepted finding no longer fails the gate ...
        assert shapes_main(["--no-cache"]) == 0
        capsys.readouterr()
        # ... but fixing it makes the entry stale: REPRO-N002 warns by
        # default and fails the gate under --strict.
        (tmp_path / "src" / "pkg" / "m.py").write_text(
            CLEAN, encoding="utf-8"
        )
        assert shapes_main(["--no-cache"]) == 0
        assert "REPRO-N002" in capsys.readouterr().out
        assert shapes_main(["--no-cache", "--strict"]) == 1
        capsys.readouterr()

    def test_output_file(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        out_file = tmp_path / "report.json"
        shapes_main(["--no-cache", "--format", "json", "--output", str(out_file)])
        capsys.readouterr()
        assert json.loads(out_file.read_text())["findings"]


class TestAllUmbrella:
    def test_summary_table_and_merged_sarif(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, CLEAN)
        assert all_main(["--no-cache", "--report-dir", "reports"]) == 0
        out = capsys.readouterr().out
        # One row per tier plus the merged totals.
        for row in ("repro-analysis", "repro-flow", "repro-shapes", "merged"):
            assert row in out

        merged = json.loads(
            (tmp_path / "reports" / "analysis-report.sarif").read_text()
        )
        assert merged["version"] == "2.1.0"
        tools = [r["tool"]["driver"]["name"] for r in merged["runs"]]
        # One run per tool, shapes included.
        assert tools == sorted(set(tools))
        assert "repro-shapes" in tools and "repro-flow" in tools

        # Per-tier secondary reports ride along for CI upload.
        assert (tmp_path / "reports" / "shapes-report.sarif").is_file()
        assert (tmp_path / "reports" / "shapes-report.json").is_file()
        assert (tmp_path / "reports" / "flow-report.sarif").is_file()

    def test_shapes_error_fails_the_umbrella(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, BAD)
        assert all_main(["--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "[repro-shapes]" in out
        assert "REPRO-S001" in out

    def test_dispatch_through_module_main(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, CLEAN)
        assert main(["all", "--no-cache"]) == 0
        capsys.readouterr()
