"""Project-level orchestration for the array-contract analyzer.

Mirrors :mod:`repro.analysis.flow.analyze`, with one structural
difference that buys full incrementality: every S-rule is intra-module,
so the *findings themselves* are cacheable — a warm scan over an
unchanged tree does no parsing, no interpretation, and no C-signature
cross-checks at all, it only replays per-module records and re-applies
the (cheap, always-fresh) suppression and baseline filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, Report
from repro.analysis.flow.analyze import collect_python_files
from repro.analysis.flow.baseline import Baseline, apply_baseline
from repro.analysis.flow.cache import DEFAULT_CACHE_DIR, ModuleCache
from repro.analysis.flow.symbols import module_name_for_path
from repro.analysis.shapes.rules import (
    SHAPES_SCHEMA,
    ShapeModuleScan,
    scan_module,
)
from repro.analysis.suppress import filter_findings

__all__ = ["ShapesStats", "ShapesResult", "analyze_project", "make_cache"]


def make_cache(root: str | Path = DEFAULT_CACHE_DIR) -> ModuleCache:
    """The shapes tier's view of the shared on-disk analysis cache."""
    return ModuleCache(
        root, schema=SHAPES_SCHEMA, expected_type=ShapeModuleScan
    )


@dataclass
class ShapesStats:
    """Scan statistics (asserted on by the incremental benchmark)."""

    modules_total: int = 0
    rescanned: int = 0
    cache_hits: int = 0
    contracted_modules: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass
class ShapesResult:
    """Report plus the intermediates tests want to poke at."""

    report: Report
    stats: ShapesStats
    scans: dict[str, ShapeModuleScan] = field(default_factory=dict)


def analyze_project(
    roots: Iterable[str | Path],
    *,
    cache: ModuleCache | None = None,
    baseline: Baseline | None = None,
) -> ShapesResult:
    """Scan every module under ``roots`` for REPRO-S violations."""
    stats = ShapesStats()
    scans: dict[str, ShapeModuleScan] = {}
    for path in collect_python_files(roots):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        module = module_name_for_path(path)
        path_str = str(path).replace("\\", "/")
        scan = (
            cache.load(module, path_str, source) if cache is not None else None
        )
        if scan is None:
            scan = scan_module(source, path_str, module=module)
            stats.rescanned += 1
            if cache is not None and scan.parse_error is None:
                cache.store(module, path_str, source, scan)
        else:
            stats.cache_hits += 1
        # Later roots win on module-name collisions (same as sys.path).
        scans[scan.module] = scan
        stats.modules_total += 1

    kept: list[Finding] = []
    for scan in scans.values():
        if scan.contracted:
            stats.contracted_modules += 1
        kept.extend(filter_findings(scan.findings, scan.suppressions))
        kept.extend(scan.suppression_findings)

    if baseline is not None:
        kept = apply_baseline(kept, baseline)

    report = Report(findings=kept, files_checked=stats.modules_total)
    return ShapesResult(report=report, stats=stats, scans=scans)
