"""CLI tests for ``python -m repro.analysis models``."""

import json

from repro.analysis.cli import main, models_main
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.serialization import automaton_to_dict
from repro.core.persistence import BUNDLE_FORMAT
from tests.analysis.models.conftest import write_model

SIGMA = Alphabet.of([controllable("go"), uncontrollable("fault")])


def _clean_plant():
    return automaton_from_table(
        "P",
        SIGMA,
        [("P0", "go", "P1"), ("P1", "fault", "P0")],
        initial="P0",
        marked=["P0"],
    )


def _blocking_plant():
    return automaton_from_table(
        "CapPlant",
        SIGMA,
        [
            ("Idle", "go", "Work"),
            ("Work", "go", "Idle"),
            ("Work", "fault", "Stuck"),
        ],
        initial="Idle",
        marked=["Idle"],
    )


def _chdir_with(tmp_path, monkeypatch, automaton, stem="plant"):
    write_model(tmp_path / "models" / f"{stem}.json", automaton)
    monkeypatch.chdir(tmp_path)


class TestModelsCli:
    def test_clean_model_exits_zero(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _clean_plant())
        assert models_main(["--no-cache", "models"]) == 0
        out = capsys.readouterr().out
        assert "1 files, 1 artifacts checked" in out
        assert "0 errors" in out

    def test_blocking_model_exits_one(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        assert models_main(["--no-cache", "models"]) == 1
        assert "REPRO-M002" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, monkeypatch, capsys):
        # Unreachable-state debris is warning-only: passes by default,
        # fails under --strict.
        debris = automaton_from_table(
            "D",
            SIGMA,
            [("Idle", "go", "Idle"), ("Orphan", "fault", "Orphan")],
            initial="Idle",
            marked=["Idle"],
        )
        _chdir_with(tmp_path, monkeypatch, debris)
        assert models_main(["--no-cache", "models"]) == 0
        capsys.readouterr()
        assert models_main(["--no-cache", "--strict", "models"]) == 1

    def test_missing_path_reports_c001(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert models_main(["--no-cache", "nowhere"]) == 1
        assert "REPRO-C001" in capsys.readouterr().out

    def test_json_format_carries_stats(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        models_main(["--no-cache", "--format", "json", "models"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-models-report/1"
        assert payload["summary"]["errors"] == 1
        assert payload["stats"]["units_scanned"] == 1
        assert payload["stats"]["models_checked"] == 1

    def test_sarif_format(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        models_main(["--no-cache", "--format", "sarif", "models"])
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "repro-models"
        rule_ids = {r["ruleId"] for r in run["results"]}
        assert "REPRO-M002" in rule_ids

    def test_write_and_use_baseline(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        assert (
            models_main(["--no-cache", "--write-baseline", "models"]) == 0
        )
        capsys.readouterr()
        # Accepted findings are filtered; scan passes, counters remain.
        assert models_main(["--no-cache", "models"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert (tmp_path / "analysis-baseline.json").is_file()

    def test_output_file(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _blocking_plant())
        target = tmp_path / "report.sarif"
        models_main(
            [
                "--no-cache",
                "--format",
                "sarif",
                "--output",
                str(target),
                "models",
            ]
        )
        assert "wrote" in capsys.readouterr().out
        assert json.loads(target.read_text(encoding="utf-8"))["runs"]

    def test_cache_dir_reused_across_runs(self, tmp_path, monkeypatch, capsys):
        _chdir_with(tmp_path, monkeypatch, _clean_plant())
        cache_dir = tmp_path / "mc"
        argv = ["--cache-dir", str(cache_dir), "--format", "json", "models"]
        models_main(argv)
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["cache_misses"] == 1
        models_main(argv)
        second = json.loads(capsys.readouterr().out)
        assert second["stats"]["cache_hits"] == 1
        assert any(cache_dir.rglob("*.pkl"))

    def test_bundle_manifest_unit(self, tmp_path, monkeypatch, capsys):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        manifest = {
            "format": BUNDLE_FORMAT,
            "supervisor": automaton_to_dict(_clean_plant()),
        }
        (bundle / "bundle.json").write_text(
            json.dumps(manifest), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        assert models_main(["--no-cache", "bundle"]) == 0
        assert "1 files, 1 artifacts checked" in capsys.readouterr().out

    def test_bundle_without_supervisor_is_a009(
        self, tmp_path, monkeypatch, capsys
    ):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "bundle.json").write_text("{}", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert models_main(["--no-cache", "bundle"]) == 1
        assert "REPRO-A009" in capsys.readouterr().out

    def test_undecodable_model_is_a002(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "models" / "plant.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"name": "broken"}', encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert models_main(["--no-cache", "models"]) == 1
        assert "REPRO-A002" in capsys.readouterr().out

    def test_dispatch_through_analysis_main(
        self, tmp_path, monkeypatch, capsys
    ):
        _chdir_with(tmp_path, monkeypatch, _clean_plant())
        assert main(["models", "--no-cache", "models"]) == 0
        assert "artifacts checked" in capsys.readouterr().out
