"""Persistent, versioned pattern catalog: the serving layer's storage.

A :class:`PatternCatalog` is a directory owning a sequence of immutable
**snapshots**.  Each snapshot bundles a mined :class:`PatternSet` (the
JSON-lines format of :mod:`repro.mining.store`) with its prebuilt
:class:`~repro.serve.index.FragmentIndex`; a single ``manifest.json``
names the current snapshot.  Publication is atomic in the same sense as
:func:`repro.mining.store.save_patterns`: the snapshot directory is
written out completely, then the manifest is swapped into place with a
rename — a reader loading concurrently sees either the old snapshot or
the new one, never a torn mixture.

Layout::

    catalog_dir/
        manifest.json                 {"version": N, "snapshot": ...}
        snapshot-000001/
            patterns.jsonl            store format (schema_version 2)
            index.json                FragmentIndex serialization
        snapshot-000002/
            ...

Versions count up monotonically; old snapshot directories are kept (they
are the time-travel/debugging record) unless :meth:`PatternCatalog.prune`
is called.  This is the on-disk contract the hot-reload consistency model
in DESIGN.md §9 stands on.  The layout is the same whichever storage
backend holds the graphs: the index stamps graphs by content digest, so
a snapshot published over one backend serves soundly over another.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternKey, PatternSet
from ..mining.store import read_patterns, save_patterns
from ..resilience import integrity
from ..resilience.errors import ArtifactCorrupt, ArtifactRetired
from .index import FragmentIndex

MANIFEST_NAME = "manifest.json"
PATTERNS_NAME = "patterns.jsonl"
INDEX_NAME = "index.json"
CATALOG_FORMAT_VERSION = 1


def catalog_order(patterns: PatternSet) -> list[Pattern]:
    """The deterministic pid order of a catalog: size, support desc, key.

    ``repr`` of the canonical key breaks ties stably even for databases
    mixing label types (ints vs strings are not mutually orderable).
    """
    return sorted(
        patterns, key=lambda p: (p.size, -p.support, repr(p.key))
    )


@dataclass(frozen=True)
class PatternEntry:
    """One served pattern: its graph plus the metadata queries sort on."""

    pid: int
    graph: LabeledGraph
    key: PatternKey
    support: int
    size: int
    tids: frozenset[int]


class CatalogSnapshot:
    """One immutable published state: patterns + index + metadata."""

    def __init__(
        self,
        version: int,
        patterns: PatternSet,
        index: FragmentIndex,
        meta: dict,
    ) -> None:
        self.version = version
        self.patterns = patterns
        self.index = index
        self.meta = meta
        self.entries: tuple[PatternEntry, ...] = tuple(
            PatternEntry(
                pid=pid,
                graph=pattern.graph,
                key=pattern.key,
                support=pattern.support,
                size=pattern.size,
                tids=pattern.tids,
            )
            for pid, pattern in enumerate(catalog_order(patterns))
        )
        if index.num_patterns != len(self.entries):
            raise ValueError(
                f"index covers {index.num_patterns} patterns, snapshot "
                f"holds {len(self.entries)}"
            )

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, pid: int) -> PatternEntry:
        return self.entries[pid]

    def __repr__(self) -> str:
        return (
            f"CatalogSnapshot(version={self.version}, "
            f"patterns={len(self.entries)})"
        )


class PatternCatalog:
    """A directory of versioned pattern snapshots (see module docs)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self) -> dict | None:
        """The current manifest, or ``None`` for an empty/new catalog."""
        try:
            with open(self.path / MANIFEST_NAME, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            return None
        if manifest.get("format") != CATALOG_FORMAT_VERSION:
            raise ValueError(
                f"unsupported catalog format {manifest.get('format')!r}"
            )
        return manifest

    def current_version(self) -> int | None:
        """The published version, or ``None`` when nothing was published.

        This is the cheap poll hot-reload uses: one small JSON read, no
        pattern or index parsing.
        """
        manifest = self.manifest()
        return None if manifest is None else manifest["version"]

    # ------------------------------------------------------------------
    # Publish / load
    # ------------------------------------------------------------------
    def publish(
        self,
        patterns: PatternSet,
        meta: dict | None = None,
        database: GraphDatabase | None = None,
    ) -> CatalogSnapshot:
        """Atomically publish ``patterns`` as the next snapshot.

        ``database``, when given, also indexes the database's graphs so
        the query engine can prune ``match`` candidates; omit it for a
        pattern-only catalog.  Returns the published snapshot (already
        loaded — no need to round-trip through disk).
        """
        meta = dict(meta or {})
        previous = self.current_version()
        version = 1 if previous is None else previous + 1
        index = FragmentIndex.build(
            (pattern.graph for pattern in catalog_order(patterns)), database
        )
        snapshot_name = f"snapshot-{version:06d}"
        snapshot_dir = self.path / snapshot_name
        snapshot_dir.mkdir(parents=True, exist_ok=True)
        save_patterns(
            patterns, snapshot_dir / PATTERNS_NAME, meta=meta, atomic=True
        )
        index.save(snapshot_dir / INDEX_NAME)
        integrity.atomic_write_json(
            self.path / MANIFEST_NAME,
            {
                "format": CATALOG_FORMAT_VERSION,
                "version": version,
                "snapshot": snapshot_name,
                "patterns": len(patterns),
                "published_at": time.time(),
            },
        )
        return CatalogSnapshot(version, patterns, index, meta)

    def _load_version(
        self, version: int, snapshot_name: str, expected: int | None
    ) -> CatalogSnapshot:
        """Load one snapshot, validating the pattern count."""
        snapshot_dir = self.path / snapshot_name
        patterns, meta = read_patterns(snapshot_dir / PATTERNS_NAME)
        index = FragmentIndex.load(snapshot_dir / INDEX_NAME)
        if expected not in (None, len(patterns)):
            raise ValueError(
                f"snapshot {snapshot_name} holds {len(patterns)} "
                f"patterns, manifest says {expected}"
            )
        return CatalogSnapshot(version, patterns, index, meta)

    def load(self, fallback: bool = True) -> CatalogSnapshot:
        """Load the currently published snapshot.

        Raises :class:`FileNotFoundError` on an empty catalog,
        :class:`ValueError` on a manifest/snapshot mismatch, and
        :class:`~repro.resilience.errors.ArtifactRetired` when the
        manifest or index predates content-digest stamps (re-publish).

        When the current snapshot's bytes are corrupt (checksum miss,
        torn file), the bad artifact has already been quarantined to
        ``<name>.corrupt/`` by the loader; with ``fallback=True`` the
        catalog then walks *earlier* versions on disk newest-first,
        serves the first one that verifies, and repairs the manifest to
        point at it — the paper's exactness guarantee degrades to an
        older complete result set, never to silently wrong bytes.  If no
        version loads, the original corruption error propagates.
        """
        manifest = self.manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"no snapshot published in catalog {self.path}"
            )
        if manifest.get("backend") == "sqlite":
            raise ArtifactRetired(
                f"{self.path / MANIFEST_NAME}: snapshot {manifest['version']}"
                " lives in the retired SQLite catalog tables; re-publish it "
                "as a snapshot directory with `repro serve --patterns`"
            )
        current = manifest["version"]
        try:
            return self._load_version(
                current, manifest["snapshot"], manifest.get("patterns")
            )
        except (ArtifactCorrupt, FileNotFoundError, ValueError) as exc:
            if not fallback:
                raise
            original = exc
        for version in reversed(self.versions_on_disk()):
            if version >= current:
                continue
            try:
                snapshot = self._load_version(
                    version, f"snapshot-{version:06d}", None
                )
            except (
                ArtifactCorrupt, ArtifactRetired, FileNotFoundError,
                ValueError,
            ):
                continue
            # Serve the recovered version and repair the manifest so
            # pollers (hot reload) agree with what is actually served.
            integrity.atomic_write_json(
                self.path / MANIFEST_NAME,
                {
                    "format": CATALOG_FORMAT_VERSION,
                    "version": version,
                    "snapshot": f"snapshot-{version:06d}",
                    "patterns": len(snapshot.patterns),
                    "published_at": time.time(),
                    "recovered_from": current,
                },
            )
            return snapshot
        raise original

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def versions_on_disk(self) -> list[int]:
        """All snapshot versions present on disk, ascending."""
        versions = []
        if not self.path.exists():
            return versions
        for child in self.path.iterdir():
            name = child.name
            if child.is_dir() and name.startswith("snapshot-"):
                try:
                    versions.append(int(name.split("-", 1)[1]))
                except ValueError:
                    continue
        return sorted(versions)

    def prune(self, keep: int = 2) -> list[int]:
        """Delete all but the newest ``keep`` snapshots; returns removed.

        The current snapshot is never removed, whatever ``keep`` says.
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        current = self.current_version()
        removed = []
        for version in self.versions_on_disk()[:-keep]:
            if version == current:
                continue
            shutil.rmtree(self.path / f"snapshot-{version:06d}")
            removed.append(version)
        return removed

    def __repr__(self) -> str:
        return (
            f"PatternCatalog({str(self.path)!r}, "
            f"version={self.current_version()})"
        )
