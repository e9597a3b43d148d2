"""Repo-specific AST lint (stdlib ``ast`` only, no third-party deps).

Rules
-----
``REPRO-L001`` (error)
    Mutable default argument — both ``def f(x=[])`` and the argparse
    variant ``add_argument(..., default=[])``: the object is created
    once and shared across calls/parses.
``REPRO-L002`` (error)
    Bare ``except:`` — swallows ``KeyboardInterrupt``/``SystemExit``
    and hides plant-model bugs behind silent recovery.
``REPRO-L003`` (error)
    ``==`` / ``!=`` against a nonzero float literal.  Control math runs
    through Riccati iterations and matrix products; exact equality on
    their results is almost always a latent bug.  Comparisons against
    exactly ``0.0`` are allowed (clipping/saturation logic legitimately
    tests for exact zeros produced by ``np.clip``).
``REPRO-L004`` (warning, hot paths only)
    ``np.zeros``/``np.ones``/``np.empty`` without an explicit ``dtype``
    in the 50 ms-epoch code paths (managers, platform, runtime
    controllers).  Implicit dtype promotion has produced object arrays
    from list inputs before; hot paths must pin their dtype.
``REPRO-L005`` (error)
    Package ``__init__.py`` with imports but no ``__all__`` — the public
    surface of every package must be explicit.
``REPRO-L006`` (warning)
    Unit-suffix convention: parameters and local variables holding
    times or powers must carry a unit suffix (``epoch_ms``, ``dwell_s``,
    ``budget_w``...).  The 50 ms-epoch code mixes seconds, milliseconds
    and watts freely; unsuffixed names like ``period`` or ``power`` have
    caused unit mix-ups in every runtime-manager codebase we reference.
``REPRO-L007`` (error, resilience hot paths only)
    ``except``-and-continue: an exception handler whose body is nothing
    but ``pass``/``continue`` in the resilience/guard hot paths
    (``resilience/``, ``platform/faults.py``).  Faults must be
    *recorded*, not swallowed — a guard that silently drops a failed
    validation turns a detectable sensor fault into an invisible one.
``REPRO-L008`` (error, outside ``exec/`` only)
    ``multiprocessing`` / ``concurrent.futures`` imported outside the
    experiment engine.  Process management is centralized in
    ``repro.exec`` so the determinism contract (spawn context, seeded
    workers, cache coherence) cannot be bypassed by ad-hoc pools.
``REPRO-L010`` (error, execution layer only)
    Bare ``time.sleep`` or unbounded wait (``Future.result()`` /
    ``concurrent.futures.wait(...)`` without a timeout) in ``exec/`` or
    ``resilience/``.  The campaign runtime must never block forever on
    a worker (a hung job would hang the supervisor that exists to kill
    it), and every delay must be deterministic: delays route through
    :meth:`repro.exec.supervision.SupervisionPolicy.sleep` (digest-
    derived backoff, test-injectable), which is why
    ``exec/supervision.py`` — and the chaos injector that *simulates*
    hangs, ``exec/chaos.py`` — are the only exempt modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppress import collect_suppressions, filter_findings

__all__ = [
    "lint_source",
    "lint_file",
    "EXEC_PATH_FRAGMENTS",
    "EXECUTION_LAYER_FRAGMENTS",
    "HOT_PATH_FRAGMENTS",
    "RESILIENCE_PATH_FRAGMENTS",
    "SLEEP_EXEMPT_FILES",
]

# Modules on the 50 ms control epoch (rule L004 applies only here).
HOT_PATH_FRAGMENTS = (
    "managers/",
    "platform/",
    "resilience/",
    "control/lqg.py",
    "control/pid.py",
    "core/supervisor.py",
    "core/events.py",
)

# Fault-handling code where exceptions must be recorded, never
# swallowed (rule L007 applies only here).
RESILIENCE_PATH_FRAGMENTS = (
    "resilience/",
    "platform/faults.py",
)

# The one place allowed to manage worker processes (rule L008 applies
# everywhere else).
EXEC_PATH_FRAGMENTS = ("exec/",)

# The execution layer, where blocking must be bounded (rule L010).
EXECUTION_LAYER_FRAGMENTS = ("exec/", "resilience/")

# The only modules allowed to sleep: the supervision policy owns every
# legitimate delay (deterministic backoff), and the chaos injector's
# whole job is simulating hangs.
SLEEP_EXEMPT_FILES = ("exec/supervision.py", "exec/chaos.py")

# Top-level modules whose import marks ad-hoc parallelism (L008).
_PARALLEL_MODULES = ("multiprocessing", "concurrent")

_NUMPY_ALLOCATORS = {"zeros", "ones", "empty"}

_UNIT_WORDS = (
    "time",
    "interval",
    "period",
    "duration",
    "delay",
    "timeout",
    "deadline",
    "power",
    "budget",
    "energy",
)
_UNIT_SUFFIXES = (
    "_s",
    "_ms",
    "_us",
    "_ns",
    "_w",
    "_mw",
    "_kw",
    "_j",
    "_mj",
    "_hz",
    "_khz",
    "_mhz",
    "_ghz",
    "_pct",
    "_percent",
    "_frac",
    "_fraction",
    # Dimensionless counts are fine too — "period_epochs" is unambiguous
    # in a way "period" never is.
    "_epochs",
    "_ticks",
    "_steps",
    "_intervals",
    "_count",
)


def _is_hot_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in HOT_PATH_FRAGMENTS)


def _is_resilience_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(
        fragment in normalized for fragment in RESILIENCE_PATH_FRAGMENTS
    )


def _is_exec_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in EXEC_PATH_FRAGMENTS)


def _is_bounded_wait_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    if any(fragment in normalized for fragment in SLEEP_EXEMPT_FILES):
        return False
    return any(
        fragment in normalized for fragment in EXECUTION_LAYER_FRAGMENTS
    )


def _missing_unit_suffix(name: str) -> bool:
    if name.isupper():  # ALL_CAPS constants name DES events, not quantities
        return False
    lowered = name.lower()
    if lowered.endswith(_UNIT_SUFFIXES):
        return False
    return lowered in _UNIT_WORDS or any(
        lowered.endswith("_" + word) for word in _UNIT_WORDS
    )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"list", "dict", "set"}
        and not node.args
        and not node.keywords
    )


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.hot = _is_hot_path(path)
        self.resilience = _is_resilience_path(path)
        self.exec_layer = _is_exec_path(path)
        self.bounded_wait = _is_bounded_wait_path(path)
        self.findings: list[Finding] = []
        self.numpy_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.sleep_aliases: set[str] = set()
        self.wait_aliases: set[str] = set()
        self._class_depth = 0

    # -- helpers -------------------------------------------------------
    def _add(self, line: int, rule: str, severity: Severity, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                rule=rule,
                severity=severity,
                message=message,
            )
        )

    # -- imports (track `import numpy as np`; L008) --------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            if alias.name == "time":
                self.time_aliases.add(alias.asname or "time")
            self._check_parallel_import(node.lineno, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            self._check_parallel_import(node.lineno, node.module)
            if node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        self.sleep_aliases.add(alias.asname or "sleep")
            if node.module == "concurrent.futures":
                for alias in node.names:
                    if alias.name == "wait":
                        self.wait_aliases.add(alias.asname or "wait")
        self.generic_visit(node)

    def _check_parallel_import(self, line: int, module: str) -> None:
        if self.exec_layer:
            return
        root = module.split(".")[0]
        if root in _PARALLEL_MODULES:
            self._add(
                line,
                "REPRO-L008",
                Severity.ERROR,
                f"{module!r} imported outside repro.exec; route parallel "
                "work through the experiment engine "
                "(repro.exec.ExperimentEngine) instead of ad-hoc pools",
            )

    # -- L001: mutable defaults ----------------------------------------
    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_defaults(node)
        self._check_parameters(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                self._add(
                    default.lineno,
                    "REPRO-L001",
                    Severity.ERROR,
                    f"mutable default argument in {node.name!r} is shared "
                    "across calls; use None and create inside the body",
                )

    def _check_parameters(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        ):
            if _missing_unit_suffix(arg.arg):
                self._add(
                    arg.lineno,
                    "REPRO-L006",
                    Severity.WARNING,
                    f"parameter {arg.arg!r} names a time/power quantity "
                    "without a unit suffix (e.g. _s, _ms, _w)",
                )

    # -- L001 variant: argparse-style `default=[]` in calls ------------
    def visit_Call(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg == "default" and _is_mutable_literal(keyword.value):
                self._add(
                    keyword.value.lineno,
                    "REPRO-L001",
                    Severity.ERROR,
                    "mutable `default=` in a call is created once and "
                    "shared (argparse reuses it across parses); use an "
                    "immutable default",
                )
        self._check_numpy_allocation(node)
        self._check_bounded_wait(node)
        self.generic_visit(node)

    def _check_numpy_allocation(self, node: ast.Call) -> None:
        if not self.hot:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.numpy_aliases
            and func.attr in _NUMPY_ALLOCATORS
        ):
            has_dtype = len(node.args) >= 2 or any(
                k.arg == "dtype" for k in node.keywords
            )
            if not has_dtype:
                self._add(
                    node.lineno,
                    "REPRO-L004",
                    Severity.WARNING,
                    f"np.{func.attr} without explicit dtype in a hot path; "
                    "pin the dtype (e.g. dtype=float)",
                )

    # -- L010: bare sleeps / unbounded waits in the execution layer ----
    def _check_bounded_wait(self, node: ast.Call) -> None:
        if not self.bounded_wait:
            return
        func = node.func
        has_timeout_kw = any(k.arg == "timeout" for k in node.keywords)

        # time.sleep(...) / sleep(...) imported from time.
        is_sleep = (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.time_aliases
        ) or (
            isinstance(func, ast.Name) and func.id in self.sleep_aliases
        )
        if is_sleep:
            self._add(
                node.lineno,
                "REPRO-L010",
                Severity.ERROR,
                "bare time.sleep in the execution layer; delays must "
                "route through SupervisionPolicy.sleep (deterministic "
                "digest-derived backoff, test-injectable)",
            )
            return

        # future.result() without a timeout blocks forever on a hung
        # worker; so does concurrent.futures.wait(...) without one.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "result"
            and not node.args
            and not has_timeout_kw
        ):
            self._add(
                node.lineno,
                "REPRO-L010",
                Severity.ERROR,
                "unbounded Future.result() in the execution layer; pass "
                "timeout= (use result(timeout=0) on futures already "
                "known to be done)",
            )
            return
        is_wait = (
            isinstance(func, ast.Name) and func.id in self.wait_aliases
        ) or (isinstance(func, ast.Attribute) and func.attr == "wait")
        if is_wait and len(node.args) < 2 and not has_timeout_kw:
            self._add(
                node.lineno,
                "REPRO-L010",
                Severity.ERROR,
                "unbounded wait(...) in the execution layer; pass "
                "timeout= so a hung worker cannot hang the supervisor",
            )

    # -- L002: bare except / L007: except-and-continue -----------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                node.lineno,
                "REPRO-L002",
                Severity.ERROR,
                "bare `except:` catches SystemExit/KeyboardInterrupt; "
                "name the exceptions you can actually handle",
            )
        if self.resilience and all(
            isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body
        ):
            self._add(
                node.lineno,
                "REPRO-L007",
                Severity.ERROR,
                "exception swallowed in a resilience hot path; faults "
                "must be recorded (append an event/violation), not "
                "silently dropped",
            )
        self.generic_visit(node)

    # -- L003: float equality ------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + node.comparators
        for op, (left, right) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and side.value != 0.0
                ):
                    self._add(
                        node.lineno,
                        "REPRO-L003",
                        Severity.ERROR,
                        f"float equality against {side.value!r}; compare "
                        "with a tolerance (math.isclose / np.isclose)",
                    )
        self.generic_visit(node)

    # -- L006: unit suffixes on local assignments ----------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Class bodies define the public field names of dataclasses and
        # records; renaming those is an API decision, so L006 only
        # applies to locals and parameters.
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._class_depth == 0 or not _at_class_body_level(node):
            for target in node.targets:
                if isinstance(target, ast.Name) and _missing_unit_suffix(
                    target.id
                ):
                    self._add(
                        target.lineno,
                        "REPRO-L006",
                        Severity.WARNING,
                        f"variable {target.id!r} names a time/power quantity "
                        "without a unit suffix (e.g. _s, _ms, _w)",
                    )
        self.generic_visit(node)


def _at_class_body_level(node: ast.AST) -> bool:
    # Set by lint_source's parent annotation pass.
    return isinstance(getattr(node, "_repro_parent", None), ast.ClassDef)


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one module's source text; returns findings (possibly empty).

    Inline ``# repro: noqa[RULE-ID]`` comments suppress findings of the
    named rules on their line; a suppression naming an unknown rule id
    is itself an error (REPRO-N001 — see :mod:`repro.analysis.suppress`).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 0,
                rule="REPRO-L000",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
            )
        ]
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]

    linter = _Linter(path)
    linter.visit(tree)

    # L005: packages must declare their public surface.
    if Path(path).name == "__init__.py":
        has_imports = any(
            isinstance(node, (ast.Import, ast.ImportFrom)) for node in tree.body
        )
        declares_all = any(
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            for node in tree.body
        )
        if has_imports and not declares_all:
            linter._add(
                1,
                "REPRO-L005",
                Severity.ERROR,
                "package __init__.py re-exports names but defines no "
                "__all__; declare the public surface explicitly",
            )

    suppressions, suppression_findings = collect_suppressions(source, path)
    findings = filter_findings(linter.findings, suppressions)
    findings.extend(suppression_findings)
    return sorted(findings)


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))
