"""Incremental-cache tests for the shapes tier.

The tier caches *findings*, not symbol tables: every S-rule is
intra-module, so a warm scan replays per-module records without
parsing or interpreting anything.  The cache directory is shared with
the flow analyzer — the tiers must stay schema-disjoint.
"""

from repro.analysis.flow.analyze import analyze_project as flow_analyze
from repro.analysis.flow.cache import ModuleCache
from repro.analysis.shapes.analyze import analyze_project, make_cache
from repro.analysis.shapes.rules import SHAPES_SCHEMA, scan_module

from tests.analysis.shapes.conftest import write_project

BAD_SOURCE = """\
def f(a, b):
    # repro: shape[a: (N, p) f8; b: (N, m) f8; -> ?]
    return a + b
"""

CLEAN_SOURCE = """\
def g(a):
    # repro: shape[a: (N, p) f8; -> (N, p) f8]
    return a * 2.0
"""


def _project(root):
    return write_project(
        root,
        {
            "pkg/__init__.py": "",
            "pkg/bad.py": BAD_SOURCE,
            "pkg/clean.py": CLEAN_SOURCE,
        },
    )


class TestScanCache:
    def test_roundtrip_hit(self, tmp_path):
        cache = make_cache(tmp_path / "cache")
        scan = scan_module(BAD_SOURCE, "pkg/bad.py", module="pkg.bad")
        cache.store("pkg.bad", "pkg/bad.py", BAD_SOURCE, scan)
        loaded = cache.load("pkg.bad", "pkg/bad.py", BAD_SOURCE)
        assert loaded is not None
        assert [f.rule for f in loaded.findings] == ["REPRO-S001"]
        assert cache.hits == 1

    def test_schema_disjoint_from_flow_cache(self, tmp_path):
        # Same directory, same module, same source: the flow analyzer's
        # entries must never satisfy a shapes lookup (or vice versa).
        shared = tmp_path / "cache"
        shapes_cache = make_cache(shared)
        flow_cache = ModuleCache(shared)
        assert shapes_cache.key_for(
            "pkg.bad", "pkg/bad.py", BAD_SOURCE
        ) != flow_cache.key_for("pkg.bad", "pkg/bad.py", BAD_SOURCE)

    def test_schema_bump_invalidates(self, tmp_path):
        cache = make_cache(tmp_path / "cache")
        scan = scan_module(BAD_SOURCE, "pkg/bad.py", module="pkg.bad")
        cache.store("pkg.bad", "pkg/bad.py", BAD_SOURCE, scan)
        stale = ModuleCache(
            tmp_path / "cache",
            schema=SHAPES_SCHEMA + "-next",
            expected_type=type(scan),
        )
        assert stale.load("pkg.bad", "pkg/bad.py", BAD_SOURCE) is None


class TestIncrementalScan:
    def test_warm_scan_rescans_nothing(self, tmp_path):
        pkg = _project(tmp_path) / "pkg"
        cache_dir = tmp_path / "cache"
        cold = analyze_project([pkg], cache=make_cache(cache_dir))
        assert cold.stats.rescanned == cold.stats.modules_total == 3
        warm = analyze_project([pkg], cache=make_cache(cache_dir))
        assert warm.stats.rescanned == 0
        assert warm.stats.cache_hits == 3
        assert list(warm.report) == list(cold.report)

    def test_editing_one_module_rescans_only_it(self, tmp_path):
        root = _project(tmp_path)
        pkg = root / "pkg"
        cache_dir = tmp_path / "cache"
        analyze_project([pkg], cache=make_cache(cache_dir))
        (pkg / "clean.py").write_text(
            CLEAN_SOURCE + "\n# touched\n", encoding="utf-8"
        )
        warm = analyze_project([pkg], cache=make_cache(cache_dir))
        assert warm.stats.rescanned == 1
        assert warm.stats.cache_hits == 2

    def test_cached_and_uncached_reports_agree(self, tmp_path):
        pkg = _project(tmp_path) / "pkg"
        cache_dir = tmp_path / "cache"
        analyze_project([pkg], cache=make_cache(cache_dir))
        warm = analyze_project([pkg], cache=make_cache(cache_dir))
        uncached = analyze_project([pkg])
        assert list(warm.report) == list(uncached.report)

    def test_contracted_module_count(self, tmp_path):
        pkg = _project(tmp_path) / "pkg"
        result = analyze_project([pkg])
        # __init__.py carries no contracts; the other two do.
        assert result.stats.contracted_modules == 2

    def test_flow_and_shapes_share_directory_without_conflict(self, tmp_path):
        pkg = _project(tmp_path) / "pkg"
        shared = tmp_path / "cache"
        flow_analyze([pkg], cache=ModuleCache(shared))
        cold = analyze_project([pkg], cache=make_cache(shared))
        assert cold.stats.rescanned == 3  # flow entries are not hits
        warm = analyze_project([pkg], cache=make_cache(shared))
        assert warm.stats.cache_hits == 3
        flow_warm = flow_analyze([pkg], cache=ModuleCache(shared))
        assert flow_warm.stats.reanalyzed == 0  # and vice versa
