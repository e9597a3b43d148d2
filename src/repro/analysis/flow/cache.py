"""Content-hash-keyed incremental cache shared by the analyzer tiers.

Mirrors the sha256-sidecar pattern of ``repro.exec.ResultCache`` (the
exec layer sits above analysis in the architecture, so the pattern is
re-implemented here rather than imported): each entry is a pickle of one
record — a flow :class:`~repro.analysis.flow.symbols.ModuleAnalysis`, a
shapes scan, or a model-check unit's findings — stored under a key
derived from ``sha256(schema-salt + module + path + content)``, with a
``.sha256`` sidecar over the payload bytes.  A sidecar mismatch (torn
write, manual tampering) or a payload of the wrong type evicts the
entry instead of trusting it.

Because the key covers the *content* (source text or raw artifact
bytes), cache invalidation is automatic: editing a file changes its
digest and misses the cache; unchanged files hit regardless of mtime.
The schema salt incorporates the analyzer version, so upgrading the
extraction logic invalidates every entry at once (bump
:data:`ANALYSIS_SCHEMA` whenever ``symbols.py`` changes what it
records).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

from repro import __version__
from repro.analysis.flow.symbols import ModuleAnalysis

__all__ = ["ANALYSIS_SCHEMA", "DEFAULT_CACHE_DIR", "ModuleCache"]

# Bump when ModuleAnalysis' recorded facts change shape or semantics.
ANALYSIS_SCHEMA = "flow-cache/2"

DEFAULT_CACHE_DIR = Path(".analysis-cache")


class ModuleCache:
    """Pickle-per-module cache with sha256 sidecar integrity checks.

    Parameterized on ``schema`` and ``expected_type`` so every analyzer
    tier shares the storage format without sharing — or colliding on —
    keys: the schema goes into the salt, so two tiers caching the same
    file occupy disjoint entries.  With ``item_type`` set, a record must
    also be a sequence of that type, checked element by element.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        *,
        schema: str = ANALYSIS_SCHEMA,
        expected_type: type = ModuleAnalysis,
        item_type: type | None = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.expected_type = expected_type
        self.item_type = item_type
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keys ----------------------------------------------------------
    @property
    def salt(self) -> str:
        return f"{self.schema}/{__version__}"

    def key_for(self, module: str, path: str, source: str | bytes) -> str:
        content = source.encode("utf-8") if isinstance(source, str) else source
        head = f"{self.salt}\x00{module}\x00{path}\x00".encode("utf-8")
        return hashlib.sha256(head + content).hexdigest()

    def _entry_path(self, key: str) -> Path:
        # Two-level fanout keeps directory listings small.
        return self.root / key[:2] / f"{key}.pkl"

    def _valid(self, record: object) -> bool:
        if not isinstance(record, self.expected_type):
            return False
        return self.item_type is None or all(
            isinstance(item, self.item_type) for item in record
        )

    # -- lookup --------------------------------------------------------
    def load(self, module: str, path: str, source: str | bytes):
        key = self.key_for(module, path, source)
        entry = self._entry_path(key)
        sidecar = entry.with_suffix(".pkl.sha256")
        try:
            payload = entry.read_bytes()
            expected = sidecar.read_text(encoding="utf-8").strip()
        except OSError:
            self.misses += 1
            return None
        if hashlib.sha256(payload).hexdigest() != expected:
            self._evict(entry, sidecar)
            self.misses += 1
            return None
        try:
            record = pickle.loads(payload)
        except Exception:
            record = None
        if not self._valid(record):
            self._evict(entry, sidecar)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(
        self, module: str, path: str, source: str | bytes, record: object
    ) -> None:
        """Persist one record under the key ``load`` looks it up by."""
        key = self.key_for(module, path, source)
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        # Write-then-rename so a crashed run cannot leave a torn entry
        # that passes the sidecar check.
        self._atomic_write(entry, payload)
        self._atomic_write(
            entry.with_suffix(".pkl.sha256"), (digest + "\n").encode("ascii")
        )

    # -- internals -----------------------------------------------------
    @staticmethod
    def _atomic_write(target: Path, data: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, target)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _evict(self, entry: Path, sidecar: Path) -> None:
        self.evictions += 1
        for stale in (entry, sidecar):
            try:
                stale.unlink()
            except OSError:
                pass
