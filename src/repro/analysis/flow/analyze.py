"""Project-level orchestration for the flow analyzer.

``analyze_project`` is the one entry point the CLI, tests, and the
benchmark share.  It runs the two-phase pipeline:

1. **extraction** (cached) — every ``.py`` file under the given roots is
   parsed into a :class:`~repro.analysis.flow.symbols.ModuleAnalysis`,
   with unchanged modules served from the content-hash cache;
2. **global rules** (always run, cheap) — the per-module facts are
   merged into a :class:`ProjectIndex`, the call graph is resolved, and
   the five REPRO-F rules plus suppression/baseline filtering produce
   the final :class:`~repro.analysis.findings.Report`.

The split is what makes incremental caching sound: cross-module rules
can never be stale because they always re-run; only the per-module
parse/extract work — the expensive part — is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, Report
from repro.analysis.flow.baseline import Baseline, apply_baseline
from repro.analysis.flow.cache import ModuleCache
from repro.analysis.flow.callgraph import CallGraph, ProjectIndex
from repro.analysis.flow.rules import (
    DEFAULT_ENTRY_POINTS,
    DEFAULT_PICKLE_ROOTS,
    DEFAULT_WORKER_MODULE_PATTERNS,
    RNG_EXEMPT_PATH_FRAGMENTS,
    run_all_rules,
)
from repro.analysis.flow.symbols import (
    ModuleAnalysis,
    extract_module,
    module_name_for_path,
)
from repro.analysis.suppress import filter_findings

__all__ = ["FlowStats", "analyze_project", "collect_python_files"]

_SKIP_DIR_NAMES = {
    ".git",
    "__pycache__",
    ".analysis-cache",
    ".pytest_cache",
    ".ruff_cache",
    ".mypy_cache",
}


@dataclass
class FlowStats:
    """Scan statistics (asserted on by the incremental benchmark)."""

    modules_total: int = 0
    reanalyzed: int = 0
    cache_hits: int = 0
    functions: int = 0
    classes: int = 0
    call_edges: int = 0
    unresolved_calls: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


def collect_python_files(roots: Iterable[str | Path]) -> list[Path]:
    """All ``.py`` files under the roots, stable order, caches skipped."""
    files: list[Path] = []
    for root in roots:
        root = Path(root)
        if root.is_file() and root.suffix == ".py":
            files.append(root)
            continue
        if not root.is_dir():
            continue
        for candidate in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIR_NAMES for part in candidate.parts):
                continue
            files.append(candidate)
    # Dedup while preserving order (overlapping roots).
    seen: set[Path] = set()
    return [f for f in files if not (f in seen or seen.add(f))]


@dataclass
class FlowResult:
    """Report plus the intermediates tests want to poke at."""

    report: Report
    stats: FlowStats
    index: ProjectIndex
    graph: CallGraph
    modules: dict[str, ModuleAnalysis] = field(default_factory=dict)


def analyze_project(
    roots: Iterable[str | Path],
    *,
    cache: ModuleCache | None = None,
    baseline: Baseline | None = None,
    entry_points: Iterable[str] = DEFAULT_ENTRY_POINTS,
    pickle_roots: Iterable[str] = DEFAULT_PICKLE_ROOTS,
    worker_patterns: Iterable[str] = DEFAULT_WORKER_MODULE_PATTERNS,
    rng_exempt_fragments: Iterable[str] = RNG_EXEMPT_PATH_FRAGMENTS,
) -> FlowResult:
    """Run the whole-program analysis over the given roots."""
    stats = FlowStats()
    modules: dict[str, ModuleAnalysis] = {}
    for path in collect_python_files(roots):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        module = module_name_for_path(path)
        path_str = str(path).replace("\\", "/")
        analysis = (
            cache.load(module, path_str, source) if cache is not None else None
        )
        if analysis is None:
            analysis = extract_module(source, path_str, module=module)
            stats.reanalyzed += 1
            if cache is not None and analysis.parse_error is None:
                cache.store(module, path_str, source, analysis)
        else:
            stats.cache_hits += 1
        # Later roots win on module-name collisions (same as sys.path).
        modules[analysis.module] = analysis
        stats.modules_total += 1

    index = ProjectIndex(modules)
    graph = CallGraph.build(index)
    stats.functions = len(index.functions)
    stats.classes = len(index.classes)
    stats.call_edges = sum(len(targets) for targets in graph.edges.values())
    stats.unresolved_calls = len(graph.unresolved)

    findings = run_all_rules(
        index,
        graph,
        entry_points=entry_points,
        pickle_roots=pickle_roots,
        worker_patterns=worker_patterns,
        rng_exempt_fragments=rng_exempt_fragments,
    )

    # Inline suppressions: every analyzed module contributed its map.
    by_path: dict[str, dict[int, frozenset[str]]] = {}
    suppression_findings: list[Finding] = []
    for analysis in modules.values():
        by_path[analysis.path] = analysis.suppressions
        suppression_findings.extend(analysis.suppression_findings)
    kept: list[Finding] = []
    for finding in findings:
        suppressed = filter_findings(
            [finding], by_path.get(finding.path, {})
        )
        kept.extend(suppressed)
    kept.extend(suppression_findings)

    if baseline is not None:
        kept = apply_baseline(kept, baseline)

    report = Report(findings=kept, files_checked=stats.modules_total)
    return FlowResult(
        report=report, stats=stats, index=index, graph=graph, modules=modules
    )
