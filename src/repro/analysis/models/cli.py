"""``python -m repro.analysis models`` — the formal model analyzer CLI.

Mirrors the flow analyzer's interface: positional paths, text/JSON/SARIF
output, a baseline of accepted findings, an incremental cache, and
``--strict`` to fail on warnings.  Two extra switches are model-check
specific: ``--no-resynth`` skips the M007 re-synthesis (the dominant
cost on large bundles) and ``--case-study`` synthesizes the paper's
Exynos supervisor in-process and scans it, so CI can gate the design
flow itself even when no artifacts are committed.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import Report, Severity
from repro.analysis.flow.baseline import (
    DEFAULT_BASELINE,
    Baseline,
    apply_baseline,
    write_baseline,
)
from repro.analysis.flow.cache import DEFAULT_CACHE_DIR
from repro.analysis.flow.sarif import report_to_json, report_to_sarif
from repro.analysis.models.scan import (
    ModelScanResult,
    ModelScanStats,
    analyze_model_set,
    make_cache,
    scan_paths,
)

__all__ = ["models_main"]

TOOL_NAME = "repro-models"


def _case_study_result(*, resynthesize: bool) -> ModelScanResult:
    """Synthesize the paper's case-study supervisor and scan it."""
    from repro.core.synthesis_flow import build_case_study_supervisor

    verified = build_case_study_supervisor()
    findings = analyze_model_set(
        {
            "plant": verified.plant,
            "specification": verified.specification,
            "supervisor": verified.supervisor,
        },
        path="<case-study>",
        resynthesize=resynthesize,
    )
    report = Report()
    report.extend(findings)
    report.artifacts_checked = 3
    report.files_checked = 1
    stats = ModelScanStats(
        units_scanned=1,
        models_checked=3,
        resynthesized=1 if resynthesize else 0,
    )
    return ModelScanResult(report=report, stats=stats)


def models_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis models [options] [paths...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis models",
        description="Formal model analyzer: symbolic reachability, "
        "blocking/controllability counterexamples, monitor consistency "
        "and stale-bundle detection (rules REPRO-M001..M007)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="model files, model-set directories or bundle directories "
        "(default: ./artifacts if present, else .)",
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
        help="baseline file of accepted findings; only its REPRO-M "
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
        help="incremental cache directory (default: .analysis-cache; "
        "shared with the other tiers, keys are schema-disjoint)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache",
    )
    parser.add_argument(
        "--no-resynth",
        action="store_true",
        help="skip the M007 re-synthesis check (fast mode)",
    )
    parser.add_argument(
        "--case-study",
        action="store_true",
        help="synthesize the paper's case-study supervisor in-process "
        "and scan it instead of walking paths",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    args = parser.parse_args(argv)

    resynthesize = not args.no_resynth
    if args.case_study:
        result = _case_study_result(resynthesize=resynthesize)
    else:
        paths = args.paths or (
            ["artifacts"] if Path("artifacts").is_dir() else ["."]
        )
        cache = None if args.no_cache else make_cache(args.cache_dir)
        result = scan_paths(paths, cache=cache, resynthesize=resynthesize)
        if cache is not None:
            result.stats.cache_hits = cache.hits
            result.stats.cache_misses = cache.misses
    report = result.report

    if args.write_baseline:
        count = write_baseline(
            sorted(report.findings), args.baseline, family="REPRO-M"
        )
        print(f"wrote {count} baseline entries to {args.baseline}")
        return 0

    if args.baseline.is_file():
        baseline = Baseline.load(args.baseline).restrict("REPRO-M")
        filtered = Report(
            findings=apply_baseline(sorted(report.findings), baseline),
            files_checked=report.files_checked,
            artifacts_checked=report.artifacts_checked,
        )
        report = filtered

    if args.format == "json":
        rendered = report_to_json(
            report, stats=result.stats.as_dict(), tool_name=TOOL_NAME
        )
    elif args.format == "sarif":
        rendered = report_to_sarif(report, tool_name=TOOL_NAME)
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
