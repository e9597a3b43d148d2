"""Checked-in finding baselines for the analyzer tiers.

A baseline file records findings that are *known and accepted* — each
entry carries a justification and matches on ``(path, rule, message)``
(line numbers drift with unrelated edits, so they are recorded for
humans but ignored for matching).  Paths are compared by suffix, so a
repo-relative baseline entry (``src/repro/...``) matches findings from
scans rooted anywhere (absolute paths, other working directories).  Baselined findings are dropped from
the report; a baseline entry that matches nothing is itself reported as
``REPRO-N002`` (stale baseline), so accepted debt cannot silently
outlive the code that justified it.

One file, :data:`DEFAULT_BASELINE`, holds the entries of every tier.
Each tier applies only the entries of its own rule family
(:meth:`Baseline.restrict`: ``REPRO-F`` flow, ``REPRO-M`` models,
``REPRO-S`` shapes), so one tier's entry is never stale in another's
run, and writing one tier's baseline keeps the other tiers' entries.

File format (JSON, diff-reviewable)::

    {
      "schema": "flow-baseline/1",
      "entries": [
        {
          "path": "src/repro/platform/soc.py",
          "rule": "REPRO-F003",
          "message": "...exact finding message...",
          "line": 484,
          "justification": "why this is accepted"
        }
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding, Severity

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_BASELINE",
    "Baseline",
    "BaselineEntry",
    "apply_baseline",
    "write_baseline",
]

BASELINE_SCHEMA = "flow-baseline/1"

DEFAULT_BASELINE = Path("analysis-baseline.json")


def _normalize(path: str) -> str:
    return path.replace("\\", "/").lstrip("./")


def _paths_match(finding_path: str, entry_path: str) -> bool:
    """Entry paths are repo-relative; finding paths may be absolute."""
    finding_path = _normalize(finding_path)
    entry_path = _normalize(entry_path)
    return finding_path == entry_path or finding_path.endswith(
        f"/{entry_path}"
    )


@dataclass(frozen=True)
class BaselineEntry:
    path: str
    rule: str
    message: str
    line: int = 0
    justification: str = ""

    @property
    def match_key(self) -> tuple[str, str, str]:
        return (_normalize(self.path), self.rule, self.message)


@dataclass
class Baseline:
    entries: tuple[BaselineEntry, ...] = ()
    source: str = "<none>"

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("schema") != BASELINE_SCHEMA:
            raise ValueError(
                f"unsupported baseline schema {payload.get('schema')!r} in "
                f"{path} (expected {BASELINE_SCHEMA!r})"
            )
        entries = tuple(
            BaselineEntry(
                path=entry["path"],
                rule=entry["rule"],
                message=entry["message"],
                line=int(entry.get("line", 0)),
                justification=entry.get("justification", ""),
            )
            for entry in payload.get("entries", ())
        )
        return cls(entries=entries, source=str(path))

    def restrict(self, family: str) -> "Baseline":
        """The entries whose rule id starts with ``family``."""
        return Baseline(
            entries=tuple(
                e for e in self.entries if e.rule.startswith(family)
            ),
            source=self.source,
        )


def apply_baseline(
    findings: list[Finding], baseline: Baseline
) -> list[Finding]:
    """Drop baselined findings; report stale entries as REPRO-N002."""
    by_rule_message: dict[tuple[str, str], list[BaselineEntry]] = {}
    for entry in baseline.entries:
        by_rule_message.setdefault((entry.rule, entry.message), []).append(
            entry
        )
    matched: set[tuple[str, str, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        candidates = by_rule_message.get((finding.rule, finding.message), ())
        hit = next(
            (e for e in candidates if _paths_match(finding.path, e.path)),
            None,
        )
        if hit is not None:
            matched.add(hit.match_key)
        else:
            kept.append(finding)
    for entry in baseline.entries:
        if entry.match_key in matched:
            continue
        kept.append(
            Finding(
                path=entry.path,
                line=entry.line,
                rule="REPRO-N002",
                severity=Severity.WARNING,
                message=f"stale baseline entry for {entry.rule} "
                f"({entry.message[:80]!r}...) matches no current finding; "
                f"remove it from {baseline.source}",
            )
        )
    return kept


def write_baseline(
    findings: list[Finding],
    path: str | Path,
    *,
    family: str = "REPRO-",
    justification: str = "accepted via --write-baseline; add a real justification",
) -> int:
    """Record the ``family`` findings as baseline entries in ``path``.

    Entries of other rule families already in the file are kept.
    Returns the number of entries written for ``family``.
    """
    path = Path(path)
    kept = []
    if path.is_file():
        kept = [
            vars(entry)
            for entry in Baseline.load(path).entries
            if not entry.rule.startswith(family)
        ]
    entries = [
        {
            "path": _normalize(finding.path),
            "rule": finding.rule,
            "message": finding.message,
            "line": finding.line,
            "justification": justification,
        }
        for finding in sorted(
            findings, key=lambda f: (f.path, f.rule, f.line, f.message)
        )
        if finding.rule.startswith(family)
        and finding.rule not in ("REPRO-N001", "REPRO-N002")
    ]
    payload = {"schema": BASELINE_SCHEMA, "entries": kept + entries}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return len(entries)
