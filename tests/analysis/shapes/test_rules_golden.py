"""Golden fixtures: every REPRO-S rule on a hand-seeded bad module.

The expected findings — locations and messages — are asserted verbatim.
Exactness is the point: these strings are the analyzer's user interface,
and a drifting dim rendering or off-by-one anchor is a regression even
when the bug is still "caught".
"""

import pytest

from repro.analysis.shapes.rules import scan_module

from tests.analysis.shapes.conftest import FIXTURES

BADPROJ = FIXTURES / "badproj"


def scan_fixture(stem: str):
    path = BADPROJ / f"{stem}.py"
    scan = scan_module(
        path.read_text(encoding="utf-8"), str(path), module=f"badproj.{stem}"
    )
    return [(f.line, f.rule, f.message) for f in scan.findings]


class TestS000Contracts:
    def test_malformed_and_dangling_contracts(self):
        assert scan_fixture("s000_contract") == [
            (
                5,
                "REPRO-S000",
                "contract names unknown parameter 'y' of unknown_param()",
            ),
            (
                10,
                "REPRO-S000",
                "function contracts need `name:` or `->` prefixes",
            ),
            (
                15,
                "REPRO-S000",
                "malformed shape contract: empty dimension in shape (N,,)",
            ),
        ]


class TestS001Broadcast:
    def test_symbolic_shape_mismatches(self):
        assert scan_fixture("s001_broadcast") == [
            (
                8,
                "REPRO-S001",
                "broadcast mismatch: (N, n) vs (N, p) (dim n vs p)",
            ),
            (
                13,
                "REPRO-S001",
                "np.matmul inner dimension mismatch: p vs n",
            ),
            (
                18,
                "REPRO-S001",
                "assigned value shape (N, p) does not match slice target "
                "shape (N, n)",
            ),
            (
                23,
                "REPRO-S001",
                "out= shape (N, p) does not match result shape (N, m)",
            ),
            (
                28,
                "REPRO-S001",
                "reshape element-count mismatch: (N, m) -> (4, 4)",
            ),
        ]


class TestS002DtypeFlow:
    def test_narrowing_and_contract_violations(self):
        assert scan_fixture("s002_dtype") == [
            (
                8,
                "REPRO-S002",
                "implicit dtype narrowing: float64 result written into "
                "float32 out= target",
            ),
            (
                13,
                "REPRO-S002",
                "implicit dtype narrowing: float64 value written into "
                "int64 slice target",
            ),
            (
                18,
                "REPRO-S002",
                "dtype contract violation: parameter 'idx' of _lookup() "
                "expects float64 but receives int64",
            ),
        ]


class TestS003Aliasing:
    def test_seeded_aliased_out_bugs(self):
        assert scan_fixture("s003_alias") == [
            (
                17,
                "REPRO-S003",
                "out= of np.add aliases an input operand through a "
                "different view",
            ),
            (
                22,
                "REPRO-S003",
                "out= of non-elementwise np.matmul aliases an input "
                "operand",
            ),
        ]
        # and NOT line 27: clamping through the *same* view
        # (min(max(u, lo, out=u), hi, out=u)) is the disciplined idiom.


class TestS004CtypesAbi:
    def test_seeded_abi_mismatches(self):
        assert scan_fixture("s004_ctypes") == [
            (
                37,
                "REPRO-S004",
                "argtype 2 of dot() is c_longlong but the C parameter 'x' "
                "is const double *",
            ),
            (
                42,
                "REPRO-S004",
                "ctypes binding of saxpy() has 3 argtypes but the C "
                "signature has 4 parameters",
            ),
            (
                48,
                "REPRO-S004",
                "restype of count_saturated() is c_double but the C "
                "function returns int",
            ),
        ]

    def test_definition_after_a_define_is_parsed(self):
        # A directive line directly above an exported definition must
        # not read as part of its return type and hide it from S004.
        from repro.analysis.shapes.csig import parse_c_functions

        functions = parse_c_functions(
            "typedef long long i64;\n"
            "#define WIDTH 8\n"
            "void step(i64 n, const double *x) { (void)n; (void)x; }\n"
        )
        assert [p.kind for p in functions["step"].params] == ["i64", "pointer"]


class TestS005RngAccounting:
    def test_seeded_draw_count_bugs(self):
        assert scan_fixture("s005_rng") == [
            (
                27,
                "REPRO-S005",
                "RNG tick slice width q does not match the per-tick draw "
                "budget 2+q",
            ),
            (
                36,
                "REPRO-S005",
                "RNG tick block consumption ends at draw 1+q of the 2+q "
                "budgeted draws per tick",
            ),
        ]


class TestCleanFixture:
    def test_contract_heavy_correct_code_is_silent(self):
        assert scan_fixture("clean") == []

    def test_clean_module_counts_as_contracted(self):
        path = BADPROJ / "clean.py"
        scan = scan_module(
            path.read_text(encoding="utf-8"), str(path), module="badproj.clean"
        )
        assert scan.contracted
