"""Chaos harness: seeded fault injection, interrupt + resume, byte-identity."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exec.chaos import (
    ChaosConfig,
    _fraction,
    chaos_execute,
    chaos_jobs,
    run_chaos,
)


class TestChaosConfig:
    def test_defaults_are_the_acceptance_campaign(self):
        config = ChaosConfig()
        assert config.jobs >= 200
        assert config.injected_attempts < config.max_crash_retries

    def test_needs_a_real_pool(self):
        with pytest.raises(ValueError, match="workers >= 2"):
            ChaosConfig(workers=1)

    def test_injection_must_stay_below_kill_budget(self):
        with pytest.raises(ValueError, match="injected_attempts"):
            ChaosConfig(injected_attempts=6, max_crash_retries=6)

    def test_hangs_must_outlast_the_deadline(self):
        with pytest.raises(ValueError, match="hang_s"):
            ChaosConfig(hang_s=0.5, deadline_s=1.0)

    def test_rates_are_probabilities(self):
        with pytest.raises(ValueError, match="kill_rate"):
            ChaosConfig(kill_rate=1.5)

    def test_interrupt_point_defaults_to_half(self):
        assert ChaosConfig(jobs=200).interrupt_point() == 100
        assert ChaosConfig(interrupt_after=7).interrupt_point() == 7


class TestChaosJobs:
    def test_digests_are_distinct_and_deterministic(self):
        config = ChaosConfig(jobs=24)
        digests = [job.digest() for job in chaos_jobs(config)]
        assert len(set(digests)) == 24
        assert [job.digest() for job in chaos_jobs(config)] == digests

    def test_seed_changes_every_digest(self):
        first = {j.digest() for j in chaos_jobs(ChaosConfig(jobs=8))}
        second = {
            j.digest() for j in chaos_jobs(ChaosConfig(jobs=8, seed=99))
        }
        assert not first & second

    def test_injection_decision_is_pure(self):
        roll = _fraction("inject", 2018, "ab" * 32, 1)
        assert 0.0 <= roll < 1.0
        assert _fraction("inject", 2018, "ab" * 32, 1) == roll
        assert _fraction("inject", 2018, "ab" * 32, 2) != roll

    def test_main_process_never_injects(self):
        # The same jobs that crash workers compute cleanly in-process:
        # that is what makes the golden serial run possible at all.
        config = ChaosConfig(jobs=12, kill_rate=1.0, hang_rate=0.0)
        results = [chaos_execute(job) for job in chaos_jobs(config)]
        assert all(r["metric"] == r["derived"] % 10_000 / 10_000.0
                   for r in results)


class TestChaosDrill:
    def test_smoke_drill_converges(self, tmp_path):
        report = run_chaos(ChaosConfig.smoke(), tmp_path)
        assert report.ok, report.format_text()
        assert report.interrupted
        assert report.kills > 0, "smoke rates must actually inject"
        assert report.corrupted > 0
        assert report.golden_sha256 == report.final_sha256

    def test_full_campaign_acceptance(self, tmp_path):
        # The headline acceptance criterion: a >=200-job campaign under
        # seeded worker-kill + hang + cache-corruption injection,
        # interrupted and resumed once, byte-identical to the unfaulted
        # serial run with zero lost and zero duplicated jobs.
        config = ChaosConfig()
        assert config.jobs >= 200
        report = run_chaos(config, tmp_path)
        assert report.ok, report.format_text()
        assert report.jobs == config.jobs
        assert (report.lost, report.duplicated, report.quarantined) == (
            0,
            0,
            0,
        )
        assert report.identical and report.interrupted

    def test_cli_chaos_smoke_json(self, tmp_path, capsys):
        from repro.exec.cli import main

        exit_code = main(
            [
                "chaos",
                "--smoke",
                "--state-dir",
                str(tmp_path),
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        # The one smoke drill in tier-1: the CLI run must converge.
        assert exit_code == 0
        assert payload["ok"] is True, payload
        assert payload["interrupted"] is True
        assert payload["kills"] > 0, "smoke rates must actually inject"
        assert payload["corrupted"] > 0
        assert payload["golden_sha256"] == payload["final_sha256"]
        assert payload["lost"] == 0 and payload["duplicated"] == 0

    def test_report_text_renders_verdict(self, tmp_path):
        config = dataclasses.replace(
            ChaosConfig.smoke(), jobs=12, interrupt_after=4
        )
        report = run_chaos(config, tmp_path)
        text = report.format_text()
        assert "chaos drill:" in text
        assert ("CONVERGED" in text) == report.ok
