"""Incremental-cache tests: hits, invalidation, corruption eviction."""

from repro.analysis.flow.analyze import analyze_project
from repro.analysis.flow.cache import ModuleCache
from repro.analysis.flow.symbols import extract_module

SOURCE = "def f(x):\n    return x\n"


class TestModuleCache:
    def test_roundtrip_hit(self, tmp_path):
        cache = ModuleCache(tmp_path / "cache")
        analysis = extract_module(SOURCE, "src/m.py", module="m")
        cache.store("m", "src/m.py", SOURCE, analysis)
        loaded = cache.load("m", "src/m.py", SOURCE)
        assert loaded is not None
        assert loaded.functions["f"].qualname == "m.f"
        assert cache.hits == 1

    def test_content_change_misses(self, tmp_path):
        cache = ModuleCache(tmp_path / "cache")
        analysis = extract_module(SOURCE, "src/m.py", module="m")
        cache.store("m", "src/m.py", SOURCE, analysis)
        assert cache.load("m", "src/m.py", SOURCE + "\n# edited\n") is None
        assert cache.misses == 1

    def test_corrupt_payload_is_evicted(self, tmp_path):
        cache = ModuleCache(tmp_path / "cache")
        analysis = extract_module(SOURCE, "src/m.py", module="m")
        cache.store("m", "src/m.py", SOURCE, analysis)
        key = cache.key_for("m", "src/m.py", SOURCE)
        entry = cache._entry_path(key)
        entry.write_bytes(b"garbage")
        assert cache.load("m", "src/m.py", SOURCE) is None
        assert cache.evictions == 1
        assert not entry.exists()

    def test_key_distinguishes_module_and_path(self, tmp_path):
        cache = ModuleCache(tmp_path / "cache")
        assert cache.key_for("a", "src/a.py", SOURCE) != cache.key_for(
            "b", "src/a.py", SOURCE
        )
        assert cache.key_for("a", "src/a.py", SOURCE) != cache.key_for(
            "a", "src/b.py", SOURCE
        )


class TestIncrementalAnalysis:
    def _project(self, root):
        pkg = root / "pkg"
        pkg.mkdir(exist_ok=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text("def fa(x):\n    return x\n")
        (pkg / "b.py").write_text("def fb(x):\n    return x\n")
        return pkg

    def test_warm_scan_rescans_nothing(self, tmp_path):
        pkg = self._project(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = analyze_project([pkg], cache=ModuleCache(cache_dir))
        assert cold.stats.reanalyzed == cold.stats.modules_total
        warm = analyze_project([pkg], cache=ModuleCache(cache_dir))
        assert warm.stats.reanalyzed == 0
        assert warm.stats.cache_hits == warm.stats.modules_total
        assert list(warm.report) == list(cold.report)

    def test_editing_one_module_rescans_only_it(self, tmp_path):
        pkg = self._project(tmp_path)
        cache_dir = tmp_path / "cache"
        analyze_project([pkg], cache=ModuleCache(cache_dir))
        (pkg / "a.py").write_text("def fa(x):\n    return x + 1\n")
        warm = analyze_project([pkg], cache=ModuleCache(cache_dir))
        assert warm.stats.reanalyzed == 1
        assert warm.stats.cache_hits == warm.stats.modules_total - 1

    def test_cached_and_uncached_reports_agree(self, tmp_path):
        pkg = self._project(tmp_path)
        (pkg / "bad.py").write_text(
            "def f(epoch_ms, dwell_s):\n    return epoch_ms + dwell_s\n"
        )
        cache_dir = tmp_path / "cache"
        analyze_project([pkg], cache=ModuleCache(cache_dir))
        warm = analyze_project([pkg], cache=ModuleCache(cache_dir))
        uncached = analyze_project([pkg])
        assert list(warm.report) == list(uncached.report)
        assert any(f.rule == "REPRO-F004" for f in warm.report)
