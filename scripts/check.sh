#!/usr/bin/env bash
# Pre-merge gate: tier-1 test suite + static analysis + quick benches.
#
# This is the single command CI runs (see .github/workflows/ci.yml) and
# the one to run locally before pushing.  Each check runs once.  It
# fails if
#   * any tier-1 test fails.  Tier-1 covers the exec engine (job
#     digests, cache integrity, golden traces), the fleet equivalence
#     harness with the compiled fast paths, the symbolic-vs-explicit
#     synthesis equivalence suite and the campaign-runtime chaos smoke
#     drill (`python -m repro.exec chaos --smoke` through the CLI: a
#     seeded worker-kill + hang + cache-corruption storm, interrupted
#     and resumed once, must reproduce the unfaulted serial results
#     byte-for-byte with zero lost or duplicated jobs),
#   * the fleet equivalence drill with the compiled fast paths disabled
#     (REPRO_DISABLE_FUSED=1) diverges from the scalar oracle — the
#     pure-numpy fallback must stay bit-identical too,
#   * `python -m repro.analysis all --strict` reports a non-baselined
#     error or warning in any tier: classic (lint and
#     architecture-layer violations on src/), flow (whole-program
#     rules: RNG provenance, picklability, hot-path purity, unit flow,
#     frozen-dataclass mutation), models (strict artifact decode
#     REPRO-A001/A002/A009, model-check rules REPRO-M001..M007 and
#     gain-set checks REPRO-G001..G005 on the committed formal
#     artifacts, uncached), or shapes (array contracts
#     REPRO-S000..S005).  The run also writes
#     the merged analysis-report.sarif plus the per-tier reports CI
#     uploads,
#   * `python -m repro.resilience --smoke` records an invariant
#     violation (the fault-campaign smoke: SPECTR under every sensor
#     and actuator fault kind must stay on the verified envelope),
#   * the step-kernel benchmark (quick mode) fails to complete or to
#     emit valid JSON.  Quick mode asserts completion only — wall-clock
#     on a loaded CI box is noise; the 2x speedup gate runs in the full
#     benchmark (`python -m pytest benchmarks/bench_step_kernel.py`),
#   * the model-check benchmark (quick mode, MODEL_CHECK_QUICK=1) fails
#     its byte-identical explicit-vs-bitset report comparison or its
#     relaxed 3x speedup floor (the 10x gate runs in the full sweep:
#     `python -m pytest benchmarks/bench_model_check.py`),
#   * the symbolic-synthesis benchmark (quick mode, SYNTH_QUICK=1)
#     fails its byte-identical explicit-vs-symbolic bundle comparison
#     or its relaxed 3x speedup floor (the 20x gate and the 10-cluster
#     scale points run in the full sweep:
#     `python -m pytest benchmarks/bench_symbolic_synthesis.py`),
#   * the fleet-kernel benchmark (quick mode, FLEET_QUICK=1) fails to
#     complete or to emit valid JSON with MM-Perf and SPECTR rows.
#     Quick mode runs a small fleet with no speedup assertion; the 100x
#     aggregate-throughput gate and the SPECTR >= 0.55x MM-Perf gate at
#     N=1000 run in the full benchmark
#     (`python -m pytest benchmarks/bench_fleet.py`).
#
# The shapes analyzer's incremental-rescan invariants (a warm scan
# rescans 0 modules, a one-module edit rescans exactly 1) are tier-1
# tests (tests/analysis/shapes/test_cache_shapes.py).
#
# Quick-mode benchmarks write under benchmarks/results-quick/ (ignored
# by git) and are validated there, so a gate run never overwrites the
# committed full-mode results.
#
# On exit — pass or fail — the gate prints one row per step: name,
# status and wall-clock seconds.
#
# Optional third-party linters (ruff/mypy, `pip install -e .[lint]`) run
# only when installed, so the gate works on the bare numpy toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

STEP_ROWS=()
STEP_NAME=""
STEP_START=0

elapsed() {
    awk -v start="$STEP_START" -v now="$EPOCHREALTIME" \
        'BEGIN { printf "%.1f", now - start }'
}

print_step_table() {
    if [[ -n "$STEP_NAME" ]]; then
        STEP_ROWS+=("$STEP_NAME|FAILED|$(elapsed)")
    fi
    echo
    printf '%-44s %-7s %8s\n' "step" "status" "seconds"
    printf '%s\n' "-------------------------------------------------------------"
    local row name status seconds
    for row in "${STEP_ROWS[@]}"; do
        IFS='|' read -r name status seconds <<<"$row"
        printf '%-44s %-7s %8s\n' "$name" "$status" "$seconds"
    done
}
trap print_step_table EXIT

# step NAME COMMAND...: run one gate check and record its row.
step() {
    STEP_NAME=$1
    shift
    STEP_START=$EPOCHREALTIME
    echo
    echo "== $STEP_NAME =="
    "$@"
    STEP_ROWS+=("$STEP_NAME|ok|$(elapsed)")
    STEP_NAME=""
}

unfused_fleet_drill() {
    REPRO_DISABLE_FUSED=1 python -m pytest -x -q tests/platform/test_fleet_equivalence.py
}

step_kernel_bench() {
    STEP_KERNEL_QUICK=1 python -m pytest -x -q benchmarks/bench_step_kernel.py
    python - <<'EOF'
import json
with open("benchmarks/results-quick/step_kernel.json") as fh:
    payload = json.load(fh)
for key in ("baseline_steps_per_s", "optimized_steps_per_s", "speedup"):
    assert key in payload, f"step_kernel.json missing {key!r}"
print("step_kernel.json is valid")
EOF
}

model_check_bench() {
    MODEL_CHECK_QUICK=1 python -m pytest -x -q benchmarks/bench_model_check.py
    python - <<'EOF'
import json
with open("benchmarks/results-quick/model_check.json") as fh:
    payload = json.load(fh)
assert payload["sizes"], "model_check.json has no size rows"
for row in payload["sizes"]:
    for key in ("plant_states", "explicit_s", "symbolic_s", "speedup"):
        assert key in row, f"model_check.json row missing {key!r}"
print("model_check.json is valid")
EOF
}

synthesis_bench() {
    SYNTH_QUICK=1 python -m pytest -x -q benchmarks/bench_symbolic_synthesis.py
    python - <<'EOF'
import json
with open("benchmarks/results-quick/symbolic_synthesis.json") as fh:
    payload = json.load(fh)
assert payload["sizes"], "symbolic_synthesis.json has no size rows"
for row in payload["sizes"] + [payload["fleet"]]:
    for key in ("plant_states", "supervisor_states", "explicit_s",
                "symbolic_s", "speedup", "iterations"):
        assert key in row, f"symbolic_synthesis.json row missing {key!r}"
assert "scale" in payload, "symbolic_synthesis.json missing scale section"
print("symbolic_synthesis.json is valid")
EOF
}

fleet_bench() {
    FLEET_QUICK=1 python -m pytest -x -q benchmarks/bench_fleet.py
    python - <<'EOF'
import json
with open("benchmarks/results-quick/fleet.json") as fh:
    payload = json.load(fh)
for key in (
    "scalar_steps_per_s",
    "fleet_aggregate_steps_per_s",
    "aggregate_speedup",
    "spectr_to_mm_perf",
):
    assert key in payload, f"fleet.json missing {key!r}"
for manager in ("MM-Perf", "SPECTR"):
    sizes = payload["fleet_aggregate_steps_per_s"].get(manager)
    assert sizes, f"fleet.json has no {manager} sizes"
print("fleet.json is valid")
EOF
}

step "tier-1 tests" python -m pytest -x -q
step "fleet equivalence without fused kernels" unfused_fleet_drill
step "static analysis, all tiers (--strict)" \
    python -m repro.analysis all --strict --report-dir .
step "resilience fault-campaign smoke" python -m repro.resilience --smoke
step "step-kernel benchmark (quick)" step_kernel_bench
step "model-check benchmark (quick)" model_check_bench
step "symbolic-synthesis benchmark (quick)" synthesis_bench
step "fleet-kernel benchmark (quick)" fleet_bench
if command -v ruff >/dev/null 2>&1; then
    step "ruff" ruff check src tests
fi
if command -v mypy >/dev/null 2>&1; then
    step "mypy" mypy
fi

echo
echo "All checks passed."
