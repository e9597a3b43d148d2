"""Repo self-scan: the shapes analyzer gates src/repro with zero
non-baselined findings — the acceptance criterion of the shapes gate.

The one committed baseline (``analysis-baseline.json``, shared by
every tier) is *empty*: the contracted kernels pass the abstract
interpreter outright, including the ctypes ABI cross-check of the
embedded C kernels.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.flow.baseline import Baseline
from repro.analysis.shapes.analyze import analyze_project

REPO = Path(__file__).resolve().parents[3]
SRC_REPRO = REPO / "src" / "repro"
BASELINE = REPO / "analysis-baseline.json"


@pytest.fixture(scope="module")
def scan():
    return analyze_project(
        [SRC_REPRO], baseline=Baseline.load(BASELINE).restrict("REPRO-S")
    )


class TestSelfScan:
    def test_baseline_file_is_checked_in_and_empty(self):
        assert BASELINE.is_file()
        payload = json.loads(BASELINE.read_text(encoding="utf-8"))
        assert payload["entries"] == []

    def test_zero_findings(self, scan):
        assert list(scan.report) == [], scan.report.format_text()

    def test_scan_covers_the_whole_package(self, scan):
        assert scan.stats.modules_total > 100

    def test_kernel_modules_are_contracted(self, scan):
        contracted = {
            name for name, s in scan.scans.items() if s.contracted
        }
        assert {
            "repro.platform.fleet",
            "repro.control.batch",
            "repro.control.statespace",
            "repro.control.lqg",
        } <= contracted

    def test_fused_abi_is_cross_checked(self, scan):
        # The embedded C kernels must actually be parsed — an S004
        # check that silently saw no C functions would prove nothing.
        from repro.analysis.shapes.csig import parse_c_functions

        import repro.control.fused as fused

        functions = parse_c_functions(fused._C_SOURCE)
        assert "fused_servo_step" in functions
        # The parameter this analyzer caught mis-bound as c_longlong in
        # the original binding really is a pointer in the C source.
        params = {p.name: p for p in functions["fused_servo_step"].params}
        assert params["max_step"].kind == "pointer"
        assert params["max_step"].decl == "const double *"
        # The grouped row order, its bounds and the per-set tables are
        # pointers the binding passes as raw addresses; the set count
        # is a 64-bit integer.
        for name, decl in (
            ("order", "const i64 *"),
            ("bounds", "const i64 *"),
            ("mats", "const double *const *"),
            ("variants", "const signed char *"),
        ):
            assert params[name].kind == "pointer", name
            assert params[name].decl == decl, name
        assert params["n_sets"].kind == "i64"
