"""The models tier on the shared ModuleCache: sidecar integrity,
element-wise Finding validation, eviction, and scan integration."""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity
from repro.analysis.models.scan import make_cache, scan_paths
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable

from tests.analysis.models.conftest import (
    save_gain_bundle,
    scalar_gains,
    write_model,
)

# The models tier keys an entry on the scan mode, the unit and its bytes.
MODE = "resynth"

SIGMA = Alphabet.of([controllable("go"), uncontrollable("fault")])


def _finding(message: str = "m") -> Finding:
    return Finding(
        path="a.json",
        line=1,
        rule="REPRO-M001",
        severity=Severity.WARNING,
        message=message,
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


class TestCacheUnit:
    def test_roundtrip(self, tmp_path):
        cache = make_cache(tmp_path / "cache")
        stored = [_finding("one"), _finding("two")]
        assert cache.load(MODE, "unit", b"content") is None
        cache.store(MODE, "unit", b"content", stored)
        assert cache.load(MODE, "unit", b"content") == stored
        assert (cache.hits, cache.misses) == (1, 1)

    def test_content_and_unit_key_the_entry(self, tmp_path):
        cache = make_cache(tmp_path / "cache")
        cache.store(MODE, "unit", b"v1", [_finding()])
        assert cache.load(MODE, "unit", b"v2") is None
        assert cache.load(MODE, "other", b"v1") is None
        assert cache.load(MODE, "unit", b"v1") is not None

    def test_corrupt_payload_evicts(self, tmp_path):
        cache = make_cache(tmp_path / "cache")
        cache.store(MODE, "unit", b"c", [_finding()])
        entry = cache._entry_path(cache.key_for(MODE, "unit", b"c"))
        entry.write_bytes(b"garbage")
        assert cache.load(MODE, "unit", b"c") is None
        assert cache.evictions == 1
        assert not entry.exists()

    def test_unpicklable_garbage_with_valid_sidecar_evicts(self, tmp_path):
        cache = make_cache(tmp_path / "cache")
        cache.store(MODE, "unit", b"c", [_finding()])
        entry = cache._entry_path(cache.key_for(MODE, "unit", b"c"))
        import hashlib

        payload = b"not a pickle"
        entry.write_bytes(payload)
        entry.with_suffix(".pkl.sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n", encoding="utf-8"
        )
        assert cache.load(MODE, "unit", b"c") is None
        assert cache.evictions == 1

    def test_non_finding_payload_rejected(self, tmp_path):
        import hashlib
        import pickle

        cache = make_cache(tmp_path / "cache")
        key = cache.key_for(MODE, "unit", b"c")
        entry = cache._entry_path(key)
        entry.parent.mkdir(parents=True)
        payload = pickle.dumps(["not", "findings"])
        entry.write_bytes(payload)
        entry.with_suffix(".pkl.sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n", encoding="utf-8"
        )
        assert cache.load(MODE, "unit", b"c") is None
        assert cache.evictions == 1


    def test_schema_disjoint_from_flow_cache(self, tmp_path):
        # One shared directory: a flow entry for the same name and bytes
        # never satisfies a models lookup.
        from repro.analysis.flow.cache import ModuleCache

        shared = tmp_path / "cache"
        assert make_cache(shared).key_for(
            MODE, "unit", b"c"
        ) != ModuleCache(shared).key_for(MODE, "unit", b"c")


class TestScanIntegration:
    def test_second_scan_hits_and_replays_findings(self, tmp_path):
        unit = tmp_path / "unit"
        write_model(unit / "plant.json", _blocking_plant())
        cache = make_cache(tmp_path / "cache")

        first = scan_paths([unit], cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        second = scan_paths([unit], cache=cache)
        assert cache.hits == 1

        assert sorted(second.report.findings) == sorted(
            first.report.findings
        )
        # Stats are restored from the cached marker, not re-derived.
        assert second.stats.models_checked == first.stats.models_checked == 1
        assert second.stats.units_scanned == 1
        assert second.stats.resynthesized == 0

    def test_edit_invalidates(self, tmp_path):
        unit = tmp_path / "unit"
        path = write_model(unit / "plant.json", _blocking_plant())
        cache = make_cache(tmp_path / "cache")
        scan_paths([unit], cache=cache)
        path.write_text(
            path.read_text(encoding="utf-8").replace("CapPlant", "Edited"),
            encoding="utf-8",
        )
        scan_paths([unit], cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_gains_edit_invalidates_bundle(self, tmp_path):
        # The bundle unit's gain checks read gains.npz, so its bytes key
        # the entry: swapping in an unstable gain set must miss.
        bundle = save_gain_bundle(
            tmp_path / "bundle", scalar_gains("stable", 0.5, -0.25)
        )
        cache = make_cache(tmp_path / "cache")
        assert scan_paths([bundle], cache=cache).report.findings == []
        # Same gain-set name, so bundle.json stays byte-identical.
        unstable = save_gain_bundle(
            tmp_path / "unstable", scalar_gains("stable", -0.8, 0.0)
        )
        assert (unstable / "bundle.json").read_bytes() == (
            bundle / "bundle.json"
        ).read_bytes()
        (unstable / "gains.npz").replace(bundle / "gains.npz")
        result = scan_paths([bundle], cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        assert [f.rule for f in result.report.findings] == ["REPRO-G003"]

    def test_resynth_mode_does_not_share_entries(self, tmp_path):
        unit = tmp_path / "unit"
        write_model(unit / "plant.json", _blocking_plant())
        cache = make_cache(tmp_path / "cache")
        scan_paths([unit], cache=cache, resynthesize=True)
        result = scan_paths([unit], cache=cache, resynthesize=False)
        # The quick mode must not replay the resynth entry (different
        # flag -> different content key), even for the same bytes.
        assert cache.hits == 0
        assert cache.misses == 2
        # Identical findings here (a lone plant never re-synthesizes),
        # arrived at independently.
        assert len(result.report.findings) == 3
