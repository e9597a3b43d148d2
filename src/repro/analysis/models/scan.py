"""Unit discovery and orchestration for the formal model analyzer.

The analyzer checks *model-check units*:

* a single serialized automaton ``*.json`` (role inferred from the file
  stem: ``plant``, ``specification``/``spec``, ``supervisor``; other
  stems are picked up while walking only when the file has the
  automaton key shape);
* a policy-bundle directory (``bundle.json`` manifest + ``gains.npz``)
  — the embedded supervisor/plant automata are extracted straight from
  the manifest so a bundle with damaged gain arrays can still be
  model-checked, and every gain set gets the numeric REPRO-G checks;
* a directory holding two or more role-named automaton files — treated
  as one plant/specification/supervisor *model set* so the cross-model
  rules (M003 controllability, M004 alphabet consistency, M007
  staleness) apply.

Every automaton is decoded strictly (:func:`decode_automaton`): a
payload that misses a schema key, has no initial state, or does not
survive a serialization round-trip is a REPRO-A002 error before any
M-rule runs.  Unreadable files, non-automaton JSON and bad bundle
formats are REPRO-A001; a bundle without a supervisor is REPRO-A009.

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

import numpy as np

from repro.analysis.findings import Finding, Report, Severity
from repro.analysis.flow.cache import DEFAULT_CACHE_DIR, ModuleCache
from repro.analysis.gain_checks import check_gains
from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_bundle_freshness,
    check_closed_loop_blocking,
    check_model,
    check_pair_controllability,
)
from repro.automata.automaton import Automaton
from repro.automata.serialization import automaton_from_dict, automaton_to_dict
from repro.core.persistence import (
    BUNDLE_FORMAT,
    BUNDLE_MANIFEST,
    gains_from_arrays,
)

__all__ = [
    "MODEL_CHECK_SCHEMA",
    "MODEL_ROLES",
    "ModelScanResult",
    "ModelScanStats",
    "analyze_model_set",
    "decode_automaton",
    "infer_role",
    "looks_like_automaton_payload",
    "make_cache",
    "scan_paths",
]

# Bump when any M-rule changes what it reports.
MODEL_CHECK_SCHEMA = "model-check/2"

# File-stem -> canonical role.  ``spec`` is accepted as an alias because
# the paper's figures label the specification automaton ``SP``/"spec".
MODEL_ROLES: dict[str, str] = {
    "plant": "plant",
    "specification": "specification",
    "spec": "specification",
    "supervisor": "supervisor",
}

_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "results", "output"}

# Keys a serialized automaton must carry (``marked``/``forbidden``
# default to empty).
_REQUIRED_KEYS = ("name", "events", "states", "initial", "transitions")


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


def looks_like_automaton_payload(payload: Any) -> bool:
    """Heuristic: a dict with the serialization format's key shape."""
    return isinstance(payload, dict) and {
        "states",
        "transitions",
        "events",
    } <= payload.keys()


def _canonical(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Order-insensitive view of an automaton payload, key by key."""
    return {
        "name": payload.get("name"),
        "events": frozenset(
            (
                e["name"],
                bool(e.get("controllable", True)),
                bool(e.get("observable", True)),
            )
            for e in payload.get("events", ())
        ),
        "states": frozenset(payload.get("states", ())),
        "initial": payload.get("initial"),
        "marked": frozenset(payload.get("marked", ())),
        "forbidden": frozenset(payload.get("forbidden", ())),
        "transitions": frozenset(
            tuple(t) for t in payload.get("transitions", ())
        ),
    }


def decode_automaton(payload: Any) -> Automaton:
    """Strict inverse of :func:`automaton_to_dict`.

    Raises unless ``payload`` carries every schema key and an initial
    state, decodes (deterministic, every transition event in the
    alphabet), and re-serializes to the same canonical payload — which
    rejects initial, marked and transition states missing from
    ``states``.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload is not a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"missing required key(s) {missing}")
    if payload["initial"] is None:
        raise ValueError(f"automaton {payload['name']!r} has no initial state")
    automaton = automaton_from_dict(payload)
    given = _canonical(payload)
    decoded = _canonical(automaton_to_dict(automaton))
    changed = [key for key in given if given[key] != decoded[key]]
    if changed:
        raise ValueError(
            f"serialization round-trip changes {changed}; every initial, "
            "marked, forbidden and transition state must be in 'states'"
        )
    return automaton


def _load_automaton_file(
    path: Path,
) -> tuple[Automaton | None, list[Finding]]:
    """Decode one serialized automaton file.

    A file whose stem names a role claims to be an automaton, so any
    failure to decode it is A002; any other file must first have the
    automaton key shape (A001 otherwise).
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [
            _finding(str(path), "REPRO-A001", f"unreadable JSON: {exc}")
        ]
    if infer_role(path.stem) is None and not looks_like_automaton_payload(
        payload
    ):
        return None, [
            _finding(
                str(path),
                "REPRO-A001",
                "JSON file is not an automaton payload (missing "
                "states/transitions/events keys)",
            )
        ]
    try:
        return decode_automaton(payload), []
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
        findings.extend(check_closed_loop_blocking(plant, supervisor, path))
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
def _json_files(directory: Path) -> list[Path]:
    return [
        child
        for child in sorted(directory.iterdir())
        if child.is_file() and child.suffix == ".json"
    ]


def _role_files(directory: Path) -> list[Path]:
    return [f for f in _json_files(directory) if infer_role(f.stem)]


def _is_automaton_file(path: Path) -> bool:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return False
    return looks_like_automaton_payload(payload)


def _walk_units(
    paths: Iterable[Path],
) -> tuple[list[Path], list[Path], list[Path]]:
    """Partition inputs into (single model files, set dirs, bundle dirs).

    Named files are always analyzed; a walked file is a unit when its
    stem names a role or it has the automaton key shape, so unrelated
    data files (benchmark results, configs) pass through.
    """
    model_files: list[Path] = []
    set_dirs: list[Path] = []
    bundle_dirs: list[Path] = []

    def visit_dir(directory: Path) -> None:
        if (directory / BUNDLE_MANIFEST).is_file():
            bundle_dirs.append(directory)
            return
        grouped = _role_files(directory)
        if len(grouped) >= 2:
            set_dirs.append(directory)
        else:
            model_files.extend(grouped)
        model_files.extend(
            f
            for f in _json_files(directory)
            if not infer_role(f.stem) and _is_automaton_file(f)
        )
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
    for child in _role_files(directory):
        automaton, errors = _load_automaton_file(child)
        findings.extend(errors)
        if automaton is not None:
            role = MODEL_ROLES[child.stem.lower()]
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
    anchor = str(manifest_path)
    try:
        manifest: Any = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        error = _finding(anchor, "REPRO-A001", f"unreadable manifest: {exc}")
        return [error], 0, False
    if not isinstance(manifest, dict) or manifest.get("supervisor") is None:
        error = _finding(
            anchor, "REPRO-A009", "bundle manifest has no supervisor payload"
        )
        return [error], 0, False
    if manifest.get("format") != BUNDLE_FORMAT:
        error = _finding(
            anchor,
            "REPRO-A001",
            f"unsupported bundle format {manifest.get('format')!r}",
        )
        return [error], 0, False
    models: dict[str, Automaton] = {}
    findings: list[Finding] = []
    for role in ("supervisor", "plant"):
        payload = manifest.get(role)
        if payload is None:
            continue
        try:
            models[role] = decode_automaton(payload)
        except Exception as exc:
            findings.append(
                _finding(
                    anchor,
                    "REPRO-A002",
                    f"bundle {role} payload fails to decode: {exc}",
                )
            )
    findings.extend(
        analyze_model_set(models, path=anchor, resynthesize=resynthesize)
    )
    findings.extend(_check_bundle_gains(directory, manifest))
    return _set_result(findings, models, resynthesize=resynthesize)


def _check_bundle_gains(
    directory: Path, manifest: dict[str, Any]
) -> list[Finding]:
    """REPRO-G rules on every gain set the manifest declares."""
    subsystems = manifest.get("subsystems") or {}
    if not subsystems:
        return []
    gains_path = directory / "gains.npz"
    if not gains_path.is_file():
        return [
            _finding(
                str(gains_path),
                "REPRO-G002",
                "manifest declares gain sets but gains.npz is missing",
            )
        ]
    try:
        with np.load(gains_path) as data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, ValueError) as exc:
        return [
            _finding(
                str(gains_path), "REPRO-G001", f"unreadable gains.npz: {exc}"
            )
        ]
    findings: list[Finding] = []
    for subsystem, meta in subsystems.items():
        for gain_name in meta.get("gain_sets", ()):
            prefix = f"{subsystem}/{gain_name}"
            try:
                gains = gains_from_arrays(arrays, prefix, gain_name)
            except Exception as exc:  # report, don't crash
                findings.append(
                    _finding(
                        str(gains_path),
                        "REPRO-G002",
                        f"gain set {prefix!r} cannot be reconstructed: {exc}",
                    )
                )
                continue
            findings.extend(check_gains(gains, f"{gains_path}#{prefix}"))
    return findings


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
        units.append((str(directory), _role_files(directory), _analyze_set_dir))
    for directory in bundle_dirs:
        # The gain checks read gains.npz, so its bytes key the entry too.
        content = (directory / BUNDLE_MANIFEST, directory / "gains.npz")
        units.append((str(directory), content, _analyze_bundle_unit))

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
