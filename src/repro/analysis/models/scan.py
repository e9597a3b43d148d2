"""Unit discovery and orchestration for the formal model analyzer.

The analyzer checks *model-check units*:

* a single serialized automaton ``*.json`` (role inferred from the file
  stem: ``plant``, ``specification``/``spec``, ``supervisor``);
* a policy-bundle directory (``bundle.json`` manifest) — the embedded
  supervisor/plant automata are extracted straight from the manifest so
  a bundle with damaged gain arrays can still be model-checked;
* a directory holding two or more role-named automaton files — treated
  as one plant/specification/supervisor *model set* so the cross-model
  rules (M003 controllability, M004 alphabet consistency, M007
  staleness) apply.

Each unit's findings are cached by the sha256 of its raw content in the
shared analyzer cache (:class:`~repro.analysis.flow.cache.ModuleCache`,
salted with :data:`MODEL_CHECK_SCHEMA`): unchanged artifacts replay
their stored findings without re-running reachability.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.findings import Finding, Report, Severity
from repro.analysis.flow.cache import DEFAULT_CACHE_DIR, ModuleCache
from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_model,
    check_pair_controllability,
)
from repro.automata.automaton import Automaton
from repro.automata.serialization import automaton_from_dict
from repro.core.persistence import BUNDLE_MANIFEST

__all__ = [
    "MODEL_CHECK_SCHEMA",
    "MODEL_ROLES",
    "ModelScanResult",
    "ModelScanStats",
    "analyze_model_set",
    "infer_role",
    "make_cache",
    "scan_paths",
]

# Bump when any M-rule changes what it reports.
MODEL_CHECK_SCHEMA = "model-check/1"

# File-stem -> canonical role.  ``spec`` is accepted as an alias because
# the paper's figures label the specification automaton ``SP``/"spec".
MODEL_ROLES: dict[str, str] = {
    "plant": "plant",
    "specification": "specification",
    "spec": "specification",
    "supervisor": "supervisor",
}

_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "results", "output"}


def make_cache(root: str | Path = DEFAULT_CACHE_DIR) -> ModuleCache:
    """The models tier's view of the shared on-disk analysis cache."""
    return ModuleCache(
        root, schema=MODEL_CHECK_SCHEMA, expected_type=list, item_type=Finding
    )


def infer_role(stem: str) -> str | None:
    """Canonical model role for a file stem, or ``None``."""
    return MODEL_ROLES.get(stem.lower())


@dataclass
class ModelScanStats:
    """Counters the CLI and tests assert on."""

    units_scanned: int = 0
    models_checked: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    resynthesized: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "units_scanned": self.units_scanned,
            "models_checked": self.models_checked,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resynthesized": self.resynthesized,
        }


@dataclass
class ModelScanResult:
    report: Report
    stats: ModelScanStats = field(default_factory=ModelScanStats)


def _finding(path: str, rule: str, message: str) -> Finding:
    return Finding(
        path=path, line=1, rule=rule, severity=Severity.ERROR, message=message
    )


def _load_automaton_file(
    path: Path,
) -> tuple[Automaton | None, list[Finding]]:
    """Decode one serialized automaton, reusing the A-rule vocabulary."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [
            _finding(str(path), "REPRO-A001", f"unreadable JSON: {exc}")
        ]
    try:
        return automaton_from_dict(payload), []
    except Exception as exc:
        return None, [
            _finding(
                str(path),
                "REPRO-A002",
                f"automaton payload fails to decode: {exc}",
            )
        ]


# ----------------------------------------------------------------------
# Model sets
# ----------------------------------------------------------------------
def analyze_model_set(
    models: Mapping[str, Automaton],
    *,
    path: str,
    paths: Mapping[str, str] | None = None,
    resynthesize: bool = True,
) -> list[Finding]:
    """All M-rules over a role -> automaton mapping.

    ``paths`` optionally maps each role to the file its findings should
    anchor at; cross-model findings anchor at ``path``.  Set
    ``resynthesize=False`` to skip the M007 re-synthesis (it dominates
    runtime on large models).
    """
    normalized = {
        MODEL_ROLES.get(role.lower(), role.lower()): automaton
        for role, automaton in models.items()
    }
    anchors = dict(paths or {})
    findings: list[Finding] = []
    for role in sorted(normalized):
        findings.extend(
            check_model(
                normalized[role], anchors.get(role, path), role=role
            )
        )
    findings.extend(check_alphabet_consistency(normalized, path))
    plant = normalized.get("plant")
    supervisor = normalized.get("supervisor")
    if plant is not None and supervisor is not None:
        findings.extend(check_pair_controllability(plant, supervisor, path))
        if resynthesize:
            findings.extend(
                check_bundle_freshness(
                    plant,
                    supervisor,
                    path,
                    specification=normalized.get("specification"),
                )
            )
    return findings


# ----------------------------------------------------------------------
# Unit discovery
# ----------------------------------------------------------------------
def _looks_like_bundle_dir(path: Path) -> bool:
    return path.is_dir() and (path / BUNDLE_MANIFEST).is_file()


def _walk_units(
    paths: Iterable[Path],
) -> tuple[list[Path], list[Path], list[Path]]:
    """Partition inputs into (single model files, set dirs, bundle dirs)."""
    model_files: list[Path] = []
    set_dirs: list[Path] = []
    bundle_dirs: list[Path] = []

    def role_files(directory: Path) -> list[Path]:
        return [
            child
            for child in sorted(directory.iterdir())
            if child.is_file()
            and child.suffix == ".json"
            and infer_role(child.stem) is not None
        ]

    def visit_dir(directory: Path) -> None:
        if _looks_like_bundle_dir(directory):
            bundle_dirs.append(directory)
            return
        grouped = role_files(directory)
        if len(grouped) >= 2:
            set_dirs.append(directory)
        else:
            model_files.extend(grouped)
        for child in sorted(directory.iterdir()):
            if child.name in _SKIP_DIRS or child.name.startswith("."):
                continue
            if child.is_dir():
                visit_dir(child)

    for path in paths:
        if path.is_dir():
            visit_dir(path)
        elif path.is_file():
            if path.name == BUNDLE_MANIFEST:
                bundle_dirs.append(path.parent)
            elif path.suffix == ".json":
                model_files.append(path)
    return model_files, set_dirs, bundle_dirs


def _unit_content(files: Sequence[Path]) -> bytes:
    chunks: list[bytes] = []
    for file in files:
        chunks.append(file.name.encode("utf-8") + b"\x00")
        try:
            chunks.append(file.read_bytes())
        except OSError:
            chunks.append(b"<unreadable>")
        chunks.append(b"\x00")
    return b"".join(chunks)


def _pack_unit(findings: list[Finding], models: int) -> list[Finding]:
    """Prefix a marker finding carrying the unit's model count so cache
    replays can restore the stats without re-decoding the artifacts."""
    marker = Finding(
        path="",
        line=0,
        rule="REPRO-C001",
        severity=Severity.INFO,
        message=f"__models_checked__:{models}",
    )
    return [marker, *findings]


def _unpack_unit(cached: list[Finding]) -> tuple[list[Finding], int]:
    if cached and cached[0].message.startswith("__models_checked__:"):
        return cached[1:], int(cached[0].message.rsplit(":", 1)[1])
    return cached, 0


# ----------------------------------------------------------------------
# Unit analyzers
# ----------------------------------------------------------------------
def _analyze_model_file(
    path: Path, *, resynthesize: bool
) -> tuple[list[Finding], int, bool]:
    automaton, errors = _load_automaton_file(path)
    if automaton is None:
        return errors, 0, False
    role = infer_role(path.stem)
    return check_model(automaton, str(path), role=role), 1, False


def _set_result(
    findings: list[Finding],
    models: dict[str, Automaton],
    *,
    resynthesize: bool,
) -> tuple[list[Finding], int, bool]:
    ran_resynthesis = (
        resynthesize and "plant" in models and "supervisor" in models
    )
    return findings, len(models), ran_resynthesis


def _analyze_set_dir(
    directory: Path, *, resynthesize: bool
) -> tuple[list[Finding], int, bool]:
    findings: list[Finding] = []
    models: dict[str, Automaton] = {}
    anchors: dict[str, str] = {}
    for child in sorted(directory.iterdir()):
        if not (child.is_file() and child.suffix == ".json"):
            continue
        role = infer_role(child.stem)
        if role is None:
            continue
        automaton, errors = _load_automaton_file(child)
        findings.extend(errors)
        if automaton is not None:
            models[role] = automaton
            anchors[role] = str(child)
    findings.extend(
        analyze_model_set(
            models,
            path=str(directory),
            paths=anchors,
            resynthesize=resynthesize,
        )
    )
    return _set_result(findings, models, resynthesize=resynthesize)


def _analyze_bundle_unit(
    directory: Path, *, resynthesize: bool
) -> tuple[list[Finding], int, bool]:
    manifest_path = directory / BUNDLE_MANIFEST
    try:
        manifest: Any = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return (
            [
                _finding(
                    str(manifest_path),
                    "REPRO-A001",
                    f"unreadable manifest: {exc}",
                )
            ],
            0,
            False,
        )
    if not isinstance(manifest, dict) or "supervisor" not in manifest:
        return (
            [
                _finding(
                    str(manifest_path),
                    "REPRO-A009",
                    "bundle manifest has no supervisor payload",
                )
            ],
            0,
            False,
        )
    models: dict[str, Automaton] = {}
    findings: list[Finding] = []
    for role in ("supervisor", "plant"):
        payload = manifest.get(role)
        if payload is None:
            continue
        try:
            models[role] = automaton_from_dict(payload)
        except Exception as exc:
            findings.append(
                _finding(
                    str(manifest_path),
                    "REPRO-A002",
                    f"bundle {role} payload fails to decode: {exc}",
                )
            )
    findings.extend(
        analyze_model_set(
            models, path=str(manifest_path), resynthesize=resynthesize
        )
    )
    return _set_result(findings, models, resynthesize=resynthesize)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def scan_paths(
    paths: Sequence[str | Path],
    *,
    cache: ModuleCache | None = None,
    resynthesize: bool = True,
) -> ModelScanResult:
    """Model-check every unit under ``paths`` and aggregate a report."""
    resolved = [Path(p) for p in paths]
    report = Report()
    stats = ModelScanStats()
    for path in resolved:
        if not path.exists():
            report.add(
                Finding(
                    path=str(path),
                    line=0,
                    rule="REPRO-C001",
                    severity=Severity.ERROR,
                    message="input path does not exist",
                )
            )

    model_files, set_dirs, bundle_dirs = _walk_units(resolved)
    # The resynthesize flag changes what a unit reports, so cached runs
    # with a different flag must not be replayed: it keys the entry.
    mode = "resynth" if resynthesize else "quick"

    units: list[tuple[str, Sequence[Path], Any]] = []
    for file in model_files:
        units.append((str(file), (file,), _analyze_model_file))
    for directory in set_dirs:
        members = [
            child
            for child in sorted(directory.iterdir())
            if child.is_file()
            and child.suffix == ".json"
            and infer_role(child.stem) is not None
        ]
        units.append((str(directory), members, _analyze_set_dir))
    for directory in bundle_dirs:
        units.append(
            (str(directory), (directory / BUNDLE_MANIFEST,), _analyze_bundle_unit)
        )

    for unit_name, content_files, analyzer in units:
        stats.units_scanned += 1
        content = _unit_content(content_files)
        if cache is not None:
            cached = cache.load(mode, unit_name, content)
            if cached is not None:
                findings, models = _unpack_unit(cached)
                report.extend(findings)
                stats.models_checked += models
                stats.cache_hits += 1
                continue
            stats.cache_misses += 1
        target = Path(unit_name)
        findings, models, ran_resynthesis = analyzer(
            target, resynthesize=resynthesize
        )
        if ran_resynthesis:
            stats.resynthesized += 1
        report.extend(findings)
        stats.models_checked += models
        if cache is not None:
            cache.store(
                mode, unit_name, content, _pack_unit(findings, models)
            )

    report.artifacts_checked = stats.models_checked
    report.files_checked = stats.units_scanned
    return ModelScanResult(report=report, stats=stats)
