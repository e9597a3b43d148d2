"""Wall-clock benchmark of the flow analyzer's incremental cache:
cold scan (every module parsed and extracted) vs. warm scan (every
module served from the content-hash cache) vs. a one-module edit
(exactly one module re-extracted).

Writes ``benchmarks/results/analysis_flow.json`` with the raw timings
and scan statistics so analyzer perf regressions are diffable across
runs.  The speedup itself is hardware noise on a loaded box, so the
hard assertions are the *rescan counts* — warm scans must not
re-extract unchanged modules — plus report equivalence between cached
and uncached runs.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from conftest import RESULTS_DIR

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def _scan(cache_dir, baseline):
    from repro.analysis.flow import Baseline, ModuleCache, analyze_project

    cache = ModuleCache(cache_dir) if cache_dir is not None else None
    loaded = (
        Baseline.load(baseline).restrict("REPRO-F")
        if baseline is not None
        else None
    )
    start = time.perf_counter()
    result = analyze_project([SRC_REPRO], cache=cache, baseline=loaded)
    return result, time.perf_counter() - start


def test_incremental_flow_scan(tmp_path, save_result):
    baseline = SRC_REPRO.parents[1] / "analysis-baseline.json"
    cache_dir = tmp_path / "analysis-cache"

    cold, cold_s = _scan(cache_dir, baseline)
    warm, warm_s = _scan(cache_dir, baseline)

    # Edit one module (copy the tree so the repo itself stays pristine).
    edited_root = tmp_path / "edited" / "repro"
    shutil.copytree(SRC_REPRO, edited_root)
    edited_cache = tmp_path / "edited-cache"

    from repro.analysis.flow import ModuleCache, analyze_project

    analyze_project([edited_root], cache=ModuleCache(edited_cache))
    target = edited_root / "workloads" / "__init__.py"
    target.write_text(
        target.read_text(encoding="utf-8") + "\n# touched by benchmark\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    touched = analyze_project([edited_root], cache=ModuleCache(edited_cache))
    touched_s = time.perf_counter() - start

    uncached, uncached_s = _scan(None, baseline)

    # -- correctness gates (machine-independent) -----------------------
    assert cold.stats.reanalyzed == cold.stats.modules_total
    assert warm.stats.reanalyzed == 0, "warm scan re-extracted modules"
    assert warm.stats.cache_hits == warm.stats.modules_total
    assert touched.stats.reanalyzed == 1, "edit should rescan exactly 1 module"
    assert touched.stats.cache_hits == touched.stats.modules_total - 1
    assert list(warm.report) == list(uncached.report)
    assert warm.report.ok, warm.report.format_text()

    payload = {
        "modules": cold.stats.modules_total,
        "functions": cold.stats.functions,
        "call_edges": cold.stats.call_edges,
        "cold_scan_s": round(cold_s, 4),
        "warm_scan_s": round(warm_s, 4),
        "one_edit_scan_s": round(touched_s, 4),
        "uncached_scan_s": round(uncached_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "warm_reanalyzed": warm.stats.reanalyzed,
        "one_edit_reanalyzed": touched.stats.reanalyzed,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "analysis_flow.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    save_result(
        "analysis_flow",
        "\n".join(
            [
                "flow analyzer incremental scan (src/repro)",
                f"  modules={payload['modules']} functions={payload['functions']} "
                f"edges={payload['call_edges']}",
                f"  cold   {payload['cold_scan_s']*1000:8.1f} ms "
                f"(extracted {cold.stats.reanalyzed})",
                f"  warm   {payload['warm_scan_s']*1000:8.1f} ms "
                f"(extracted {payload['warm_reanalyzed']}, "
                f"speedup {payload['warm_speedup']}x)",
                f"  1-edit {payload['one_edit_scan_s']*1000:8.1f} ms "
                f"(extracted {payload['one_edit_reanalyzed']})",
            ]
        ),
    )
