"""Campaign supervision: journal, backoff, watchdog, quarantine,
circuit breaker, and resume semantics."""

from __future__ import annotations

import json

import pytest

from repro.exec.cache import ResultCache
from repro.exec.engine import ExperimentEngine
from repro.exec.job import ScenarioJob
from repro.exec.supervision import (
    CircuitBreaker,
    JobFailure,
    RunInterrupted,
    RunJournal,
    SupervisionPolicy,
)


ECHO = "repro.exec.engine._echo_runner"
CRASH_ONCE = "repro.exec.engine._crash_once_runner"
ALWAYS_CRASH = "repro.exec.engine._always_crash_runner"
SLEEP = "repro.exec.chaos._sleep_runner"


def _echo_job(label: str, **params) -> ScenarioJob:
    params.setdefault("tag", label)
    return ScenarioJob(
        manager="SPECTR",
        runner=ECHO,
        overrides=tuple(sorted(params.items())),
        label=label,
    )


def _sleep_job(label: str, sleep_s: float) -> ScenarioJob:
    return ScenarioJob(
        manager="SPECTR",
        runner=SLEEP,
        overrides=(("sleep_s", sleep_s), ("tag", label)),
        label=label,
    )


def _engine(**kwargs) -> ExperimentEngine:
    kwargs.setdefault("prime_artifacts", False)
    return ExperimentEngine(**kwargs)


# ----------------------------------------------------------------------
# RunJournal
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_record_and_load_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", salt="s1")
        journal.record(
            "d1", "done", attempts=1, duration_s=0.25, label="cell-0"
        )
        journal.record(
            "d2", "quarantined", kind="poison", attempts=3, kills=3
        )
        entries = journal.load()
        assert entries["d1"].status == "done"
        assert entries["d1"].label == "cell-0"
        assert entries["d1"].duration_s == pytest.approx(0.25)
        assert entries["d2"].kind == "poison"
        assert entries["d2"].kills == 3

    def test_reload_from_disk_by_a_fresh_instance(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, salt="s1").record("d1", "done")
        assert RunJournal(path, salt="s1").load()["d1"].status == "done"

    def test_last_entry_wins(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record("d1", "failed", kind="timeout")
        journal.record("d1", "done")
        assert journal.load()["d1"].status == "done"

    def test_torn_final_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, salt="s1")
        journal.record("d1", "done")
        journal.record("d2", "done")
        # Simulate SIGKILL mid-append: a truncated JSON line at EOF.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"digest": "d3", "sta')
        loaded = RunJournal(path, salt="s1")
        entries = loaded.load()
        assert set(entries) == {"d1", "d2"}
        assert loaded.corrupt_lines == 1

    def test_stale_salt_discards_history(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, salt="old").record("d1", "done")
        fresh = RunJournal(path, salt="new")
        assert fresh.load() == {}
        assert fresh.stale
        # The next append rewrites the file under the new salt.
        fresh.record("d2", "done")
        assert set(fresh.load()) == {"d2"}

    def test_header_is_json_with_schema(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, salt="s").record("d1", "done")
        header = json.loads(
            path.read_text(encoding="utf-8").splitlines()[0]
        )
        assert header == {"journal": "exec-journal/1", "salt": "s"}

    def test_unknown_status_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError, match="unknown journal status"):
            journal.record("d1", "finished")

    def test_describe_counts_statuses(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.record("d1", "done")
        journal.record("d2", "done")
        journal.record("d3", "failed", kind="timeout")
        text = journal.describe()
        assert "2 done" in text and "1 failed" in text


class TestJobFailure:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            JobFailure(kind="mystery", message="x")

    def test_known_kinds_accepted(self):
        for kind in ("timeout", "crash", "exception", "poison", "cancelled"):
            assert JobFailure(kind=kind, message="m").kind == kind


# ----------------------------------------------------------------------
# Deterministic backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def test_schedule_is_a_pure_function_of_the_digest(self):
        policy = SupervisionPolicy()
        first = policy.backoff_schedule("d" * 64, 5)
        second = policy.backoff_schedule("d" * 64, 5)
        assert first == second  # no wall-clock randomness anywhere

    def test_different_digests_get_different_jitter(self):
        policy = SupervisionPolicy()
        assert policy.backoff_s("a" * 64, 1) != policy.backoff_s("b" * 64, 1)

    def test_exponential_growth_until_cap(self):
        policy = SupervisionPolicy(backoff_base_s=0.1, backoff_cap_s=1.0)
        schedule = policy.backoff_schedule("e" * 64, 8)
        assert schedule == sorted(schedule)
        assert schedule[-1] == 1.0  # capped
        assert 0.1 <= schedule[0] <= 0.15  # base * (1 + 0.5 * jitter)

    def test_zero_kills_means_no_delay(self):
        assert SupervisionPolicy().backoff_s("f" * 64, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(poll_interval_s=0.0)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_only_past_the_rebuild_budget(self):
        breaker = CircuitBreaker(max_pool_rebuilds=2)
        assert not breaker.record_breakage()  # 1
        assert not breaker.record_breakage()  # 2
        assert not breaker.is_open
        assert breaker.record_breakage()  # 3 > 2: opens now
        assert breaker.is_open
        assert not breaker.record_breakage()  # already open

    def test_zero_budget_opens_immediately(self):
        breaker = CircuitBreaker(max_pool_rebuilds=0)
        assert breaker.record_breakage()
        assert breaker.is_open


# ----------------------------------------------------------------------
# Engine + journal: resume semantics
# ----------------------------------------------------------------------
class TestResumeSemantics:
    def test_done_jobs_are_skipped_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        journal = RunJournal(tmp_path / "j.jsonl", salt=cache.salt)
        jobs = [_echo_job(str(i)) for i in range(4)]
        _engine(cache=cache, journal=journal).results(jobs)

        resumed = _engine(cache=cache, journal=journal)
        records = resumed.run(jobs)
        assert all(r.cache_hit and r.mode == "cache" for r in records)
        # No duplicate "done" lines: a journaled-done cache hit is not
        # re-journaled.
        done = [e for e in journal.raw_entries() if e.status == "done"]
        assert len(done) == 4

    def test_quarantined_jobs_stay_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        journal = RunJournal(tmp_path / "j.jsonl", salt=cache.salt)
        job = _echo_job("poisoned")
        journal.record(
            job.digest(salt=cache.salt),
            "quarantined",
            kind="poison",
            attempts=3,
            kills=3,
        )
        record = _engine(cache=cache, journal=journal).run([job])[0]
        assert not record.ok
        assert record.mode == "journal"
        assert record.failure.kind == "poison"
        assert "not re-run" in record.error

    def test_failed_jobs_rerun_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        journal = RunJournal(tmp_path / "j.jsonl", salt=cache.salt)
        job = _echo_job("flaky")
        journal.record(
            job.digest(salt=cache.salt), "failed", kind="timeout"
        )
        record = _engine(cache=cache, journal=journal).run([job])[0]
        assert record.ok and record.result == ("echo", "flaky")
        assert journal.load()[record.digest].status == "done"

    def test_done_without_cached_value_reruns(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", salt="")
        job = _echo_job("evicted")
        journal.record(job.digest(), "done")
        # No cache attached: the journal alone cannot restore a value.
        record = _engine(journal=journal).run([job])[0]
        assert record.ok and not record.cache_hit
        assert record.mode == "serial"

    def test_interrupt_journals_in_flight_as_cancelled(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        journal = RunJournal(tmp_path / "j.jsonl", salt=cache.salt)
        jobs = [_sleep_job(f"s{i}", 0.3) for i in range(4)]

        def interrupt_after_first(record) -> None:
            raise RunInterrupted("stop after the first completion")

        engine = _engine(
            max_workers=2,
            cache=cache,
            journal=journal,
            progress=interrupt_after_first,
        )
        with pytest.raises(RunInterrupted):
            engine.run(jobs)
        statuses = {e.status for e in journal.raw_entries()}
        assert "cancelled" in statuses  # the other in-flight job

        # Resume completes the campaign; union covers every job.
        final = _engine(cache=cache, journal=journal).run(jobs)
        assert all(r.ok for r in final)
        assert {e.digest for e in journal.raw_entries()
                if e.status == "done"} == {r.digest for r in final}


# ----------------------------------------------------------------------
# Watchdog deadlines
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_overrunning_job_is_killed_and_recorded(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        policy = SupervisionPolicy(deadline_s=0.5, poll_interval_s=0.02)
        jobs = [_sleep_job("hung", 30.0), _echo_job("quick")]
        engine = _engine(max_workers=2, policy=policy, journal=journal)
        records = engine.run(jobs)
        hung, quick = records
        assert not hung.ok
        assert hung.failure.kind == "timeout"
        assert "deadline exceeded" in hung.error
        assert journal.load()[hung.digest].status == "failed"
        assert quick.ok

    def test_timeout_retry_budget_exhaustion_quarantines(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        policy = SupervisionPolicy(
            deadline_s=0.4,
            retry_timeouts=True,
            poll_interval_s=0.02,
            backoff_base_s=0.01,
        )
        job = _sleep_job("always-hung", 30.0)
        engine = _engine(
            max_workers=2,
            policy=policy,
            journal=journal,
            max_crash_retries=1,
        )
        record = engine.run([job])[0]
        assert not record.ok
        assert record.failure.kind == "poison"
        assert record.kills == 2  # initial + one retried timeout
        assert "timeout" in record.error
        assert journal.load()[record.digest].status == "quarantined"

    def test_deadline_is_not_enforced_serially(self):
        # Documented: the watchdog is a pool feature; serial execution
        # cannot preempt a job, so a short deadline must not kill it.
        policy = SupervisionPolicy(deadline_s=0.05)
        record = _engine(policy=policy).run([_sleep_job("slow", 0.2)])[0]
        assert record.ok


# ----------------------------------------------------------------------
# Quarantine + circuit breaker through the engine
# ----------------------------------------------------------------------
class TestQuarantineAndBreaker:
    def test_poison_job_is_quarantined_in_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        job = ScenarioJob(manager="SPECTR", runner=ALWAYS_CRASH)
        engine = _engine(
            max_workers=2, max_crash_retries=1, journal=journal
        )
        record = engine.run([job])[0]
        assert record.failure.kind == "poison"
        assert journal.load()[record.digest].status == "quarantined"

    def test_breaker_opens_and_degrades_to_serial(self, tmp_path):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        crasher = ScenarioJob(
            manager="SPECTR",
            runner=CRASH_ONCE,
            overrides=(("sentinel", str(sentinel)),),
        )
        # One slow job keeps the second worker busy so the queue still
        # holds never-implicated jobs when the breakage happens.
        jobs = [crasher, _sleep_job("busy", 0.5)] + [
            _echo_job(f"e{i}") for i in range(4)
        ]
        policy = SupervisionPolicy(max_pool_rebuilds=0, backoff_base_s=0.01)
        engine = _engine(max_workers=2, policy=policy, max_crash_retries=5)
        records = engine.run(jobs)

        assert engine.breaker.is_open
        assert "circuit breaker open" in engine.describe_last()
        # The crasher was implicated in the breakage: never re-run
        # in-process (a worker-killer would take the campaign down).
        assert not records[0].ok
        assert records[0].failure.kind in ("crash", "poison")
        # Never-implicated jobs finish serially instead of aborting.
        serial_ok = [
            r for r in records[2:] if r.ok and r.mode == "serial"
        ]
        assert serial_ok, "queued jobs should degrade to serial"

    def test_breaker_stays_closed_within_budget(self, tmp_path):
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        job = ScenarioJob(
            manager="SPECTR",
            runner=CRASH_ONCE,
            overrides=(("sentinel", str(sentinel)),),
        )
        engine = _engine(max_workers=2)
        record = engine.run([job])[0]
        assert record.ok and record.result == "survived"
        assert not engine.breaker.is_open
        assert engine.breaker.breakages == 1
