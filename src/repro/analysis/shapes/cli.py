"""``python -m repro.analysis shapes`` — the array-contract analyzer CLI.

Mirrors the flow/models CLIs: positional roots, text/JSON/SARIF output,
the REPRO-S entries of the committed baseline
(``analysis-baseline.json``), the shared incremental cache directory,
and ``--strict`` to fail on warnings.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import Severity
from repro.analysis.flow.baseline import (
    DEFAULT_BASELINE,
    Baseline,
    write_baseline,
)
from repro.analysis.flow.cache import DEFAULT_CACHE_DIR
from repro.analysis.flow.sarif import report_to_json, report_to_sarif
from repro.analysis.shapes.analyze import analyze_project, make_cache

__all__ = ["shapes_main"]

TOOL_NAME = "repro-shapes"


def shapes_main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis shapes [options] [paths...]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis shapes",
        description="Array-contract analyzer: symbolic shape/dtype "
        "abstract interpretation, out=/view aliasing discipline, ctypes "
        "ABI conformance and RNG draw accounting (rules REPRO-S000..S005)",
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
        help="baseline file of accepted findings; only its REPRO-S "
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
        "shared with the flow analyzer, keys are schema-disjoint)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors",
    )
    args = parser.parse_args(argv)

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    cache = None if args.no_cache else make_cache(args.cache_dir)
    baseline = None
    if not args.write_baseline and args.baseline.is_file():
        baseline = Baseline.load(args.baseline).restrict("REPRO-S")

    result = analyze_project(paths, cache=cache, baseline=baseline)
    report = result.report

    if args.write_baseline:
        count = write_baseline(list(report), args.baseline, family="REPRO-S")
        print(f"wrote {count} baseline entries to {args.baseline}")
        return 0

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
