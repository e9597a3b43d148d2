"""Golden-fixture tests: each REPRO-F rule catches its bad-code fixture."""

import pytest

from repro.analysis.findings import Severity
from repro.analysis.flow.analyze import analyze_project
from repro.analysis.flow.callgraph import CallGraph, ProjectIndex
from repro.analysis.flow.rules import (
    DEFAULT_HOT_PATH_ALLOWED,
    check_frozen_mutation,
    check_hot_path_purity,
    check_picklability,
    check_rng_provenance,
    check_unit_flow,
)

from tests.analysis.flow.conftest import FIXTURES, write_project


@pytest.fixture(scope="module")
def badproj():
    result = analyze_project(
        [FIXTURES / "badproj"],
        entry_points=("badproj.hot.Engine.step",),
        pickle_roots=("badproj.jobs.ScenarioJob",),
        worker_patterns=("badproj.jobs",),
        rng_exempt_fragments=(),
    )
    return result.index, result.graph, result


def rules_at(findings, path_fragment):
    return [
        (f.rule, f.line) for f in sorted(findings) if path_fragment in f.path
    ]


class TestF001RngProvenance:
    def test_unseeded_global_and_legacy_draws_flagged(self, badproj):
        index, _graph, _result = badproj
        findings = check_rng_provenance(index, exempt_fragments=())
        flagged = rules_at(findings, "rng.py")
        assert ("REPRO-F001", 7) in flagged  # default_rng() unseeded
        assert ("REPRO-F001", 12) in flagged  # np.random.normal global
        assert ("REPRO-F001", 16) in flagged  # RandomState
        # seeded_ok draws through a seeded generator: not flagged.
        assert all(line < 19 for _rule, line in flagged)

    def test_exempt_fragments_silence_test_code(self, badproj):
        index, _graph, _result = badproj
        findings = check_rng_provenance(
            index, exempt_fragments=("fixtures/",)
        )
        assert findings == []


class TestF002Picklability:
    def test_field_reachable_class_with_lock_flagged(self, badproj):
        index, _graph, _result = badproj
        findings = check_picklability(
            index,
            roots=("badproj.jobs.ScenarioJob",),
            worker_patterns=(),
        )
        assert any(
            f.rule == "REPRO-F002" and "JobPayload" in f.message
            for f in findings
        )

    def test_worker_raised_exception_with_handle_flagged(self, badproj):
        index, _graph, _result = badproj
        findings = check_picklability(
            index, roots=(), worker_patterns=("badproj.jobs",)
        )
        assert any(
            f.rule == "REPRO-F002" and "WorkerError" in f.message
            for f in findings
        )

    def test_nothing_reachable_means_no_findings(self, badproj):
        index, _graph, _result = badproj
        assert check_picklability(index, roots=(), worker_patterns=()) == []


class TestF003HotPathPurity:
    def test_allocation_in_helper_module_is_caught(self, badproj):
        _index, graph, _result = badproj
        findings = check_hot_path_purity(
            graph, entry_points=("badproj.hot.Engine.step",)
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "REPRO-F003"
        assert finding.path.endswith("helper.py")
        assert "badproj.hot.Engine.step" in finding.message  # call chain
        assert "badproj.helper.accumulate" in finding.message

    def test_allowlisted_function_is_exempt(self, badproj):
        _index, graph, _result = badproj
        findings = check_hot_path_purity(
            graph,
            entry_points=("badproj.hot.Engine.step",),
            allowed_functions=frozenset({"accumulate"}),
        )
        assert findings == []

    def test_unreachable_allocation_not_flagged(self, badproj):
        _index, graph, _result = badproj
        findings = check_hot_path_purity(
            graph, entry_points=("badproj.frozen.bump",)
        )
        assert findings == []


class TestF003KernelModules:
    """Every function of a per-tick platform module is a REPRO-F003 root,
    whether or not a step entry point reaches it."""

    @staticmethod
    def scan(tmp_path, files):
        root = write_project(
            tmp_path,
            {"repro/__init__.py": "", "repro/platform/__init__.py": "", **files},
        )
        graph = analyze_project([root / "repro"]).graph
        return check_hot_path_purity(
            graph, allowed_functions=DEFAULT_HOT_PATH_ALLOWED
        )

    def test_clip_in_kernel_function_is_error(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    def read(x):
                        return np.clip(x, 0.0, 2.0)
                """
            },
        )
        assert [f.rule for f in findings] == ["REPRO-F003"]
        assert findings[0].severity == Severity.ERROR

    def test_sum_in_kernel_function_is_error(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/sensors.py": """
                    import numpy as np
                    def capacity(a):
                        return float(np.sum(a))
                """
            },
        )
        assert [f.rule for f in findings] == ["REPRO-F003"]

    def test_unreached_kernel_function_is_flagged(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    class ExynosSoC:
                        def step(self):
                            return 0.0
                    def spare(a):
                        return np.zeros(a, dtype=float)
                """
            },
        )
        assert len(findings) == 1
        # No step method reaches it, so its chain names only itself.
        assert "(reachable: repro.platform.soc.spare);" in findings[0].message

    def test_reached_kernel_function_keeps_the_step_chain(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    class ExynosSoC:
                        def step(self):
                            return _helper([1.0])
                    def _helper(a):
                        return float(np.sum(a))
                """
            },
        )
        assert len(findings) == 1
        assert (
            "reachable: repro.platform.soc.ExynosSoC.step -> "
            "repro.platform.soc._helper" in findings[0].message
        )

    def test_temporary_in_nested_function_is_flagged(self, tmp_path):
        root = write_project(
            tmp_path,
            {
                "proj/__init__.py": "",
                "proj/hot.py": """
                    from proj.util import total
                    class Engine:
                        def step(self, values):
                            return total(values)
                """,
                "proj/util.py": """
                    import numpy as np
                    def total(values):
                        def inner():
                            return float(np.sum(values))
                        return inner()
                """,
            },
        )
        graph = analyze_project([root / "proj"]).graph
        findings = check_hot_path_purity(
            graph, entry_points=("proj.hot.Engine.step",)
        )
        assert len(findings) == 1
        assert findings[0].line == 5
        assert "proj.hot.Engine.step -> proj.util.total" in findings[0].message

    def test_allowlisted_function_is_exempt(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    def _telemetry_with_idle_insertion(cluster, total, rng):
                        values = np.zeros(4, dtype=float)
                        return float(np.sum(values))
                """
            },
        )
        assert findings == []

    def test_nested_function_inherits_allowlist(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    def _idle_adjusted_capacity(f, n):
                        def inner():
                            return float(np.sum(f[:n]))
                        return inner()
                """
            },
        )
        assert findings == []

    def test_init_is_construction_time(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    class Cluster:
                        def __init__(self, n):
                            self.f = np.zeros(n, dtype=float)
                """
            },
        )
        assert findings == []

    def test_module_level_allocation_is_exempt(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/soc.py": """
                    import numpy as np
                    TABLE = np.zeros(4, dtype=float)
                """
            },
        )
        assert findings == []

    def test_non_kernel_platform_file_is_exempt(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "repro/platform/faults.py": """
                    import numpy as np
                    def handle(x):
                        return np.clip(x, 0.0, 1.0)
                """
            },
        )
        assert findings == []


class TestF004UnitFlow:
    def test_cross_call_argument_unit_mismatch(self, badproj):
        _index, graph, _result = badproj
        findings = check_unit_flow(graph)
        assert any(
            f.rule == "REPRO-F004"
            and "apply_power" in f.message
            and "'_ms'" in f.message
            for f in findings
        )

    def test_local_assignment_and_additive_mix_flagged(self, badproj):
        _index, _graph, result = badproj
        local = [
            f
            for f in result.report.findings
            if f.rule == "REPRO-F004" and f.path.endswith("units.py")
        ]
        lines = {f.line for f in local}
        assert 5 in lines  # budget_w = epoch_ms * gain
        assert 10 in lines  # epoch_ms + dwell_s
        # the explicit literal conversion is NOT flagged
        assert 22 not in lines


class TestF005FrozenMutation:
    def test_writes_outside_post_init_flagged(self, badproj):
        index, _graph, _result = badproj
        findings = check_frozen_mutation(index)
        flagged = rules_at(findings, "frozen.py")
        assert ("REPRO-F005", 15) in flagged  # via annotated parameter
        assert ("REPRO-F005", 21) in flagged  # via constructor dataflow
        assert len(flagged) == 2  # __post_init__ write is exempt


class TestFullFixtureScan:
    def test_every_rule_fires_on_the_fixture_project(self, badproj):
        _index, _graph, result = badproj
        fired = {f.rule for f in result.report.findings}
        assert {
            "REPRO-F001",
            "REPRO-F002",
            "REPRO-F003",
            "REPRO-F004",
            "REPRO-F005",
        } <= fired
