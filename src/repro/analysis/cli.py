"""Command line for the static-analysis subsystem.

``python -m repro.analysis [paths...]`` walks the given files and
directories (default: the repository's ``src`` tree if present,
otherwise the current directory) and runs:

* the repo-specific AST lint on every ``*.py`` file;
* the architecture-layer checker on any walked ``repro`` package tree;
* the models tier (:func:`repro.analysis.models.scan.scan_paths`, default
  settings) on every automaton ``*.json`` file, model-set directory and
  policy-bundle directory (``bundle.json`` + ``gains.npz``): strict
  decode (REPRO-A001/A002/A009), the REPRO-M rules and the REPRO-G
  gain checks.

Exit code 0 iff no error-severity finding was produced — warnings are
printed but do not fail the run (use ``--strict`` to fail on warnings
too).  This is the single pre-merge gate wired into CI via
``scripts/check.sh``.

``python -m repro.analysis flow [paths...]`` runs the whole-program
flow analyzer instead (call graph + dataflow rules REPRO-F001..F005),
with incremental caching, baseline support and JSON/SARIF output — see
:mod:`repro.analysis.flow`.

``python -m repro.analysis models [paths...]`` runs the formal model
analyzer (symbolic reachability + counterexample rules
REPRO-M001..M007) over automaton files, model-set directories and
policy bundles — see :mod:`repro.analysis.models`.

``python -m repro.analysis shapes [paths...]`` runs the array-contract
analyzer (symbolic shape/dtype abstract interpretation + ctypes ABI
conformance, rules REPRO-S000..S005) — see
:mod:`repro.analysis.shapes`.

``python -m repro.analysis all`` runs every tier — classic (lint and
arch on ``src``, plus any artifacts found there), flow, models (the
committed ``artifacts/``), shapes — with each tier's
canonical roots and its own rule family's entries of the one committed
``analysis-baseline.json``, prints one combined summary
table, merges the per-tier SARIF outputs into a single
``analysis-report.sarif`` (one run per tool) and exits non-zero if any
tier fails.  This is the one invocation ``scripts/check.sh`` gates on.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.arch import check_architecture
from repro.analysis.findings import Report, Severity
from repro.analysis.lint import lint_file
from repro.analysis.models.scan import scan_paths

__all__ = [
    "all_main",
    "analyze_paths",
    "flow_main",
    "main",
    "models_main",
    "shapes_main",
]

_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "results", "output"}


def _python_files(paths: Iterable[Path]) -> list[Path]:
    found: list[Path] = []

    def visit(path: Path) -> None:
        if path.is_dir():
            for child in sorted(path.iterdir()):
                if child.name not in _SKIP_DIRS and not child.name.startswith("."):
                    visit(child)
        elif path.suffix == ".py" and path.is_file():
            found.append(path)

    for path in paths:
        visit(path)
    return found


def _find_package_roots(paths: Iterable[Path]) -> list[Path]:
    """Directories containing a ``repro/__init__.py`` under the inputs."""
    roots: set[Path] = set()
    for path in paths:
        if not path.is_dir():
            path = path.parent
        # The input itself may live inside the package tree.
        for candidate in (path, *path.resolve().parents):
            if (candidate / "repro" / "__init__.py").is_file():
                roots.add(candidate)
                break
        for init in path.rglob("repro/__init__.py"):
            roots.add(init.parent.parent)
    return sorted(roots)


def analyze_paths(paths: Sequence[str | Path]) -> Report:
    """Lint and arch on the Python sources under ``paths``, and the
    models tier on every artifact there (it also reports input paths
    that do not exist: a gate that silently passes on a typo'd path is
    no gate)."""
    resolved = [Path(p) for p in paths]
    report = scan_paths(resolved).report
    python_files = _python_files(resolved)
    for file in python_files:
        report.extend(lint_file(file))
    report.files_checked += len(python_files)
    for root in _find_package_roots(resolved):
        report.extend(check_architecture(root / "repro"))
    return report


def flow_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis flow [options] [paths...]``."""
    # Imported here so the classic analyzers keep working even if the
    # flow subpackage is mid-refactor.
    from repro.analysis.flow import (
        DEFAULT_BASELINE,
        DEFAULT_ENTRY_POINTS,
        Baseline,
        ModuleCache,
        analyze_project,
        report_to_json,
        report_to_sarif,
        write_baseline,
    )
    from repro.analysis.flow.cache import DEFAULT_CACHE_DIR

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis flow",
        description="Whole-program flow analysis: project call graph + "
        "dataflow rules (RNG provenance, picklability, hot-path purity, "
        "unit flow, frozen mutation)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="roots to analyze (default: ./src if present, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the report to this file instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline file of accepted findings; only its REPRO-F "
        "entries apply (default: analysis-baseline.json; missing file "
        "= empty baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        help="incremental cache directory (default: .analysis-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache",
    )
    parser.add_argument(
        "--entry",
        action="append",
        default=None,
        metavar="PATTERN",
        help="hot-path entry-point pattern for REPRO-F003 (repeatable; "
        "default: the step-kernel entry points)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    args = parser.parse_args(argv)

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    cache = None if args.no_cache else ModuleCache(args.cache_dir)
    baseline = None
    if not args.write_baseline and args.baseline.is_file():
        baseline = Baseline.load(args.baseline).restrict("REPRO-F")
    entry_points = tuple(args.entry) if args.entry else DEFAULT_ENTRY_POINTS

    result = analyze_project(
        paths, cache=cache, baseline=baseline, entry_points=entry_points
    )
    report = result.report

    if args.write_baseline:
        count = write_baseline(list(report), args.baseline, family="REPRO-F")
        print(f"wrote {count} baseline entries to {args.baseline}")
        return 0

    if args.format == "json":
        rendered = report_to_json(report, stats=result.stats.as_dict())
    elif args.format == "sarif":
        rendered = report_to_sarif(report)
    else:
        rendered = report.format_text() + "\n"
    if args.output is not None:
        args.output.write_text(rendered, encoding="utf-8")
        print(f"wrote {args.output}: {report.summary()}")
    else:
        print(rendered, end="")

    failing = Severity.WARNING if args.strict else Severity.ERROR
    has_failures = any(f.severity >= failing for f in report.findings)
    return 1 if has_failures else 0


def models_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis models [options] [paths...]``."""
    # Lazy import, same reasoning as flow_main.
    from repro.analysis.models.cli import models_main as run

    return run(argv)


def shapes_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis shapes [options] [paths...]``."""
    # Lazy import, same reasoning as flow_main.
    from repro.analysis.shapes.cli import shapes_main as run

    return run(argv)


def all_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis all [options]`` — every tier, one gate.

    Each tier runs with its canonical roots and applies the entries of
    its own rule family from ``analysis-baseline.json`` (the
    same configuration ``scripts/check.sh`` used to spell out as four
    separate invocations).  Per-tier JSON/SARIF reports are written as
    secondary outputs next to the merged ``analysis-report.sarif``.
    """
    from repro.analysis.flow import (
        DEFAULT_BASELINE,
        Baseline,
        ModuleCache,
        apply_baseline,
        report_to_json,
        report_to_sarif,
    )
    from repro.analysis.flow import analyze_project as flow_analyze
    from repro.analysis.flow.sarif import reports_to_sarif
    from repro.analysis.models.scan import scan_paths as models_scan
    from repro.analysis.shapes import analyze_project as shapes_analyze
    from repro.analysis.shapes import make_cache as shapes_cache

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis all",
        description="Run every analyzer tier (classic: lint + arch on src; "
        "flow; models: strict decode + M/G rules on artifacts/; shapes) with "
        "one merged exit code and a combined summary table",
    )
    parser.add_argument(
        "--report-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write analysis-report.sarif plus per-tier "
        "{flow,model,shapes}-report.{json,sarif} files into DIR "
        "(default: no files, table only)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental caches of the flow/shapes tiers",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    args = parser.parse_args(argv)

    baseline = (
        Baseline.load(DEFAULT_BASELINE)
        if DEFAULT_BASELINE.is_file()
        else Baseline()
    )
    tiers: list[tuple[str, Report, dict | None]] = []

    classic_roots = ["src"] if Path("src").is_dir() else ["."]
    tiers.append(("repro-analysis", analyze_paths(classic_roots), None))

    flow_roots = ["src/repro"] if Path("src/repro").is_dir() else ["."]
    flow_result = flow_analyze(
        flow_roots,
        cache=None if args.no_cache else ModuleCache(),
        baseline=baseline.restrict("REPRO-F"),
    )
    tiers.append(
        ("repro-flow", flow_result.report, flow_result.stats.as_dict())
    )

    if Path("artifacts").is_dir():
        models_result = models_scan(["artifacts"], cache=None)
        models_report = Report(
            findings=apply_baseline(
                sorted(models_result.report.findings),
                baseline.restrict("REPRO-M"),
            ),
            files_checked=models_result.report.files_checked,
            artifacts_checked=models_result.report.artifacts_checked,
        )
        tiers.append(
            ("repro-models", models_report, models_result.stats.as_dict())
        )

    shapes_result = shapes_analyze(
        flow_roots,
        cache=None if args.no_cache else shapes_cache(),
        baseline=baseline.restrict("REPRO-S"),
    )
    tiers.append(
        ("repro-shapes", shapes_result.report, shapes_result.stats.as_dict())
    )

    failing = Severity.WARNING if args.strict else Severity.ERROR

    # Per-tier findings first, then the combined summary table.
    for name, report, _ in tiers:
        for finding in report:
            if finding.severity >= failing:
                print(f"[{name}] {finding.format()}")

    header = f"{'tool':<16} {'files':>5} {'errors':>6} {'warnings':>8} {'notes':>5}"
    print(header)
    print("-" * len(header))
    merged_fail = False
    for name, report, _ in tiers:
        errors = report.count(Severity.ERROR)
        warnings = report.count(Severity.WARNING)
        notes = report.count(Severity.INFO)
        print(
            f"{name:<16} {report.files_checked:>5} {errors:>6} "
            f"{warnings:>8} {notes:>5}"
        )
        if any(f.severity >= failing for f in report.findings):
            merged_fail = True
    print(
        f"{'merged':<16} {sum(r.files_checked for _, r, _ in tiers):>5} "
        f"{sum(r.count(Severity.ERROR) for _, r, _ in tiers):>6} "
        f"{sum(r.count(Severity.WARNING) for _, r, _ in tiers):>8} "
        f"{sum(r.count(Severity.INFO) for _, r, _ in tiers):>5}"
    )

    if args.report_dir is not None:
        args.report_dir.mkdir(parents=True, exist_ok=True)
        merged = reports_to_sarif(
            [(name, report) for name, report, _ in tiers]
        )
        merged_path = args.report_dir / "analysis-report.sarif"
        merged_path.write_text(merged, encoding="utf-8")
        file_stem = {
            "repro-flow": "flow-report",
            "repro-models": "model-report",
            "repro-shapes": "shapes-report",
        }
        for name, report, stats in tiers:
            stem = file_stem.get(name)
            if stem is None:
                continue
            (args.report_dir / f"{stem}.json").write_text(
                report_to_json(report, stats=stats, tool_name=name),
                encoding="utf-8",
            )
            (args.report_dir / f"{stem}.sarif").write_text(
                report_to_sarif(report, tool_name=name), encoding="utf-8"
            )
        print(f"wrote {merged_path} (+ per-tier secondary reports)")

    return 1 if merged_fail else 0


def main(argv: Sequence[str] | None = None) -> int:
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Subcommand dispatch: `flow`/`models`/`shapes`/`all` switch tiers;
    # anything else is the positional-paths interface (a file literally
    # named `flow` is vanishingly unlikely and can be passed as
    # `./flow`).
    if argv[:1] == ["flow"]:
        return flow_main(argv[1:])
    if argv[:1] == ["models"]:
        return models_main(argv[1:])
    if argv[:1] == ["shapes"]:
        return shapes_main(argv[1:])
    if argv[:1] == ["all"]:
        return all_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="SPECTR static analysis: AST lint and architecture-layer "
        "checker on Python sources, models tier on automata and bundles",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: ./src if present, "
        "else .)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only errors (and warnings with --strict)",
    )
    args = parser.parse_args(argv)

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    report = analyze_paths(paths)

    failing = Severity.WARNING if args.strict else Severity.ERROR
    min_shown = failing if args.quiet else Severity.INFO
    print(report.format_text(min_severity=min_shown))
    has_failures = any(f.severity >= failing for f in report.findings)
    return 1 if has_failures else 0
