"""ScenarioJob spec: hashability, picklability, digest stability."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.job import (
    FaultSpec,
    ScenarioJob,
    canonical_encode,
    derive_seed,
)
from repro.experiments.scenario import three_phase_scenario


def _job(**kwargs) -> ScenarioJob:
    defaults = dict(manager="SPECTR", seed=2018)
    defaults.update(kwargs)
    return ScenarioJob(**defaults)


# ----------------------------------------------------------------------
# Digest semantics
# ----------------------------------------------------------------------
class TestDigest:
    def test_label_is_cosmetic(self):
        assert _job(label="a").digest() == _job(label="b").digest()

    def test_every_semantic_field_changes_the_digest(self):
        base = _job()
        variants = [
            _job(manager="FS"),
            _job(workload="bodytrack"),
            _job(seed=2019),
            _job(scenario=three_phase_scenario(phase_duration_s=1.0)),
            _job(fault=FaultSpec(kind="stuck")),
            _job(overrides=(("enable_gain_scheduling", False),)),
            _job(runner="repro.exec.engine._echo_runner"),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_salt_changes_the_digest(self):
        assert _job().digest(salt="v1") != _job().digest(salt="v2")

    def test_digest_is_pinned(self):
        # The digest doubles as the cache key: an unintentional change
        # to the canonical encoding silently orphans every cached
        # result.  Pin one concrete value.
        assert _job().digest() == (
            "9338f2a5bfd45b4057658a5a4f09b5f7"
            "746727fdd92ff2f55447d3780477a881"
        )

    def test_digest_stable_across_hash_randomization(self):
        # PYTHONHASHSEED permutes set/dict iteration and str hashes; a
        # digest built on hash() would drift between processes.
        script = (
            "from repro.exec.job import ScenarioJob, FaultSpec\n"
            "from repro.experiments.scenario import three_phase_scenario\n"
            "job = ScenarioJob(manager='SPECTR',"
            " scenario=three_phase_scenario(phase_duration_s=1.0),"
            " fault=FaultSpec(kind='stuck'),"
            " overrides=(('b', 1), ('a', 2)))\n"
            "print(job.digest(salt='x'))\n"
        )
        repo_root = Path(__file__).resolve().parents[2]
        outputs = set()
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(repo_root / "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=repo_root,
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1

    def test_identical_specs_compare_equal_and_hash_equal(self):
        a, b = _job(label="x"), _job(label="x")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


# ----------------------------------------------------------------------
# Picklability (the spawn boundary)
# ----------------------------------------------------------------------
class TestPickling:
    def test_job_round_trips(self):
        job = _job(
            scenario=three_phase_scenario(phase_duration_s=1.0),
            fault=FaultSpec(kind="bias"),
            overrides=(("supervisor_period_epochs", 4),),
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.digest() == job.digest()


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
class TestCanonicalEncode:
    def test_int_and_float_stay_distinct(self):
        assert canonical_encode(1) != canonical_encode(1.0)

    def test_tuple_and_list_stay_distinct(self):
        assert canonical_encode((1, 2)) != canonical_encode([1, 2])

    def test_dict_order_is_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode(
            {"b": 2, "a": 1}
        )

    def test_opaque_objects_are_rejected(self):
        with pytest.raises(TypeError, match="plain data"):
            canonical_encode(object())

    def test_non_string_dict_keys_are_rejected(self):
        with pytest.raises(TypeError, match="string keys"):
            canonical_encode({1: "x"})


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_unknown_fault_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="gremlins")

    def test_fault_classes(self):
        assert FaultSpec(kind="stuck").fault_class == "sensor"
        assert FaultSpec(kind="clamp").fault_class == "actuator"

    def test_fault_build_matches_class(self):
        from repro.platform.faults import ActuatorFaultModel, FaultModel

        assert isinstance(FaultSpec(kind="stuck").build(), FaultModel)
        assert isinstance(
            FaultSpec(kind="delay").build(), ActuatorFaultModel
        )

    def test_empty_manager_rejected(self):
        with pytest.raises(ValueError, match="manager"):
            ScenarioJob(manager="")

    def test_undotted_runner_rejected(self):
        with pytest.raises(ValueError, match="dotted"):
            _job(runner="execute")

    def test_malformed_overrides_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            ScenarioJob(manager="SPECTR", overrides=(("a",),))


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
class TestDeriveSeed:
    def test_deterministic_and_part_sensitive(self):
        assert derive_seed(2018, "a") == derive_seed(2018, "a")
        assert derive_seed(2018, "a") != derive_seed(2018, "b")
        assert derive_seed(2018, "a") != derive_seed(2019, "a")

    def test_range(self):
        for part in range(50):
            assert 0 <= derive_seed(2018, part) < 2**31
