"""Shared finding/severity/report core for all analyzers.

Every analyzer (AST lint, architecture checker, flow, models, shapes)
produces a stream of :class:`Finding` objects that one :class:`Report`
aggregates.  The CLI exit code is derived from the report: any
error-severity finding fails the run, mirroring how the paper's design
flow refuses to deploy a supervisor that fails verification (Figure 11,
steps 4-5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class Severity(enum.IntEnum):
    """Ordered severity levels; only ``ERROR`` fails a run."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
# Every rule id any analyzer may emit, with a one-line title.  The
# registry is the single source of truth that suppressions
# (``# repro: noqa[RULE]``), baseline entries, and the SARIF emitter
# validate rule ids against — a suppression naming a rule that does not
# exist is itself a finding (REPRO-N001), so typo'd suppressions cannot
# silently disable nothing.
RULE_REGISTRY: dict[str, str] = {
    # -- cross-cutting ------------------------------------------------
    "REPRO-C001": "input path does not exist",
    # -- artifact decode (repro.analysis.models.scan) ------------------
    "REPRO-A001": "artifact unreadable, not an automaton, or bad bundle format",
    "REPRO-A002": "automaton payload fails strict decode",
    "REPRO-A009": "bundle manifest has no supervisor",
    # -- numeric gain checks (repro.analysis.gain_checks) -------------
    "REPRO-G001": "gain set has non-finite entries",
    "REPRO-G002": "gain set shape mismatch",
    "REPRO-G003": "closed-loop eig(A-BK) outside unit circle",
    "REPRO-G004": "observer eig(A-LC) outside unit circle",
    "REPRO-G005": "cost matrices not symmetric PSD/PD",
    # -- AST lint (repro.analysis.lint) -------------------------------
    "REPRO-L000": "syntax error",
    "REPRO-L001": "mutable default argument",
    "REPRO-L002": "bare except",
    "REPRO-L003": "float equality against nonzero literal",
    "REPRO-L004": "hot-path numpy allocation without dtype",
    "REPRO-L005": "package __init__ without __all__",
    "REPRO-L006": "time/power name without unit suffix",
    "REPRO-L007": "exception swallowed in resilience hot path",
    "REPRO-L008": "parallelism imported outside repro.exec",
    "REPRO-L010": "bare sleep or unbounded wait in the execution layer",
    # -- architecture checker (repro.analysis.arch) -------------------
    "REPRO-R001": "architecture layer violation",
    "REPRO-R002": "package missing from layer map",
    # -- whole-program flow rules (repro.analysis.flow) ---------------
    "REPRO-F001": "numpy RNG draw without seeded-Generator provenance",
    "REPRO-F002": "statically-unpicklable member on a cross-process type",
    "REPRO-F003": "numpy temporary on the per-tick hot path",
    "REPRO-F004": "unit-suffix mismatch across a dataflow edge",
    "REPRO-F005": "attribute write to a frozen dataclass instance",
    # -- formal model checker (repro.analysis.models) -----------------
    "REPRO-M001": "unreachable or dead automaton states",
    "REPRO-M002": "blocking state with shortest counterexample trace",
    "REPRO-M003": "controllability violation with witness trace",
    "REPRO-M004": "alphabet mismatch or event never enabled (spec coverage)",
    "REPRO-M005": "uncontrollable dead-end into a degraded state",
    "REPRO-M006": "runtime-monitor/model consistency violation",
    "REPRO-M007": "stale persisted supervisor (re-synthesis diverges)",
    # -- array-contract analyzer (repro.analysis.shapes) --------------
    "REPRO-S000": "malformed or dangling shape contract",
    "REPRO-S001": "symbolic shape broadcast/contract mismatch",
    "REPRO-S002": "dtype-flow violation on a contracted array",
    "REPRO-S003": "out=/view aliasing breaks buffer discipline",
    "REPRO-S004": "ctypes binding does not match embedded C signature",
    "REPRO-S005": "static RNG draw-count mismatch",
    # -- suppression / baseline hygiene -------------------------------
    "REPRO-N001": "suppression names an unknown rule id",
    "REPRO-N002": "stale baseline entry matches no current finding",
}


def known_rule_ids() -> frozenset[str]:
    """All rule ids analyzers may emit (for suppression validation)."""
    return frozenset(RULE_REGISTRY)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by an analyzer.

    ``path`` is the artifact or source file; findings that refer to an
    artifact as a whole (e.g. an unstable gain set) anchor at line 1.
    ``rule`` is a stable identifier like ``REPRO-M002`` so CI annotations
    and suppressions can reference it.
    """

    path: str
    line: int
    rule: str
    severity: Severity
    message: str

    def format(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location}: {self.severity}: {self.rule}: {self.message}"


@dataclass
class Report:
    """Aggregated findings from one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    artifacts_checked: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(sorted(self.findings))

    def __len__(self) -> int:
        return len(self.findings)

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(
            f for f in sorted(self.findings) if f.severity == Severity.ERROR
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary(self) -> str:
        return (
            f"{self.files_checked} files, {self.artifacts_checked} artifacts "
            f"checked: {self.count(Severity.ERROR)} errors, "
            f"{self.count(Severity.WARNING)} warnings, "
            f"{self.count(Severity.INFO)} notes"
        )

    def format_text(self, *, min_severity: Severity = Severity.INFO) -> str:
        lines = [
            f.format() for f in self if f.severity >= min_severity
        ]
        lines.append(self.summary())
        return "\n".join(lines)
