"""Persistence for mining results.

In the paper's dynamic environment, the pre-update results (``P(D)`` and
every ``P(U_i)``) are the capital IncPartMiner lives off — they must
survive process restarts.  This module serializes :class:`PatternSet`
objects (graphs + supports + TID lists) to a compact JSON-lines format and
round-trips the full incremental state.

Format (one JSON object per line)::

    {"kind": "header", "version": 1, "schema_version": 2, "patterns": N,
     ...meta}
    {"kind": "pattern", "vertices": [...], "edges": [[u, v, l], ...],
     "tids": [...], "support": S}

``version`` is the container format (JSON lines, header first);
``schema_version`` describes the pattern records.  Schema 1 (the
original) had no ``support`` field and no ``schema_version`` header
entry; schema 2 added per-record ``support``; schema 3 adds a
``backend`` header tag recording which storage engine
(:mod:`repro.storage`) produced the artifact — older files are upgraded
transparently on load (the tag defaults to ``"memory"``, which is what
every pre-storage file was).  Files written by a *newer* schema are
rejected with a clear error naming the offending version and the file
path instead of failing deep inside record parsing, and records missing
required fields raise :class:`ValueError` naming the field (not an
opaque ``KeyError``).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Iterator

from ..graph.labeled_graph import LabeledGraph
from ..resilience import integrity
from ..resilience.errors import ArtifactCorrupt
from .base import Pattern, PatternSet

FORMAT_VERSION = 1
SCHEMA_VERSION = 3

#: Header backend tag every pre-schema-3 file implicitly carried.
DEFAULT_BACKEND_TAG = "memory"

_REQUIRED_FIELDS = ("vertices", "edges", "tids")


def _pattern_record(pattern: Pattern) -> dict:
    # Serialize the canonical representative, not whichever isomorphic
    # embedding the miner happened to build: different execution paths
    # (serial, runtime workers, resumed runs) discover the same
    # pattern through different embeddings, and byte-identical artifacts
    # require a graph that is a pure function of the isomorphism class.
    graph = pattern.graph
    if graph.num_edges:
        from ..graph.canonical import min_dfs_code

        graph = min_dfs_code(graph).to_graph()
    return {
        "kind": "pattern",
        "vertices": graph.vertex_labels(),
        "edges": [[u, v, label] for u, v, label in graph.edges()],
        "tids": sorted(pattern.tids),
        "support": pattern.support,
    }


def _upgrade_record(record: dict, schema: int) -> dict:
    """Bring a schema-``schema`` pattern record up to the current schema."""
    if schema < 2 and "support" not in record and "tids" in record:
        record = dict(record)
        record["support"] = len(set(record["tids"]))
    return record


def _pattern_from_record(record: dict) -> Pattern:
    for field in _REQUIRED_FIELDS:
        if field not in record:
            raise ValueError(
                f"pattern record missing required field {field!r}"
            )
    graph = LabeledGraph.from_vertices_and_edges(
        record["vertices"],
        [(u, v, label) for u, v, label in record["edges"]],
    )
    pattern = Pattern.from_graph(graph, record["tids"])
    support = record.get("support")
    if support is not None and support != pattern.support:
        raise ValueError(
            f"corrupt pattern record: support field says {support}, "
            f"TID list holds {pattern.support}"
        )
    return pattern


def dump_patterns(
    patterns: PatternSet, out: IO[str], meta: dict | None = None
) -> None:
    """Write a pattern set as JSON lines (header first)."""
    header = {
        "kind": "header",
        "version": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "patterns": len(patterns),
    }
    if meta:
        header.update(meta)
    header.setdefault("backend", DEFAULT_BACKEND_TAG)
    out.write(json.dumps(header) + "\n")
    # The canonical-key tiebreaker makes the serialization a pure
    # function of the pattern *set*: runs that discover the same
    # patterns in different orders (serial vs parallel, resumed vs
    # uninterrupted) still dump byte-identical files.
    for pattern in sorted(
        patterns, key=lambda p: (p.size, -p.support, repr(p.key))
    ):
        out.write(json.dumps(_pattern_record(pattern)) + "\n")


def load_patterns(
    lines: Iterator[str] | IO[str], path: str | Path | None = None
) -> tuple[PatternSet, dict]:
    """Read a pattern set written by :func:`dump_patterns`.

    Returns ``(patterns, header_meta)``.  Raises :class:`ValueError` on a
    missing/foreign header or an unsupported version; ``path``, when
    known, is named in those errors.  Older schemas are upgraded on
    load, so the returned meta always carries a ``backend`` tag.
    """
    where = f"{path}: " if path is not None else ""
    iterator = iter(lines)
    try:
        header = json.loads(next(iterator))
    except StopIteration:
        raise ValueError("empty pattern file (missing header)") from None
    if header.get("kind") != "header":
        raise ValueError("not a pattern file (first line is no header)")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported pattern file version {header.get('version')!r}"
        )
    schema = header.get("schema_version", 1)
    if not isinstance(schema, int) or schema < 1:
        raise ValueError(f"invalid schema_version {schema!r}")
    if schema > SCHEMA_VERSION:
        raise ValueError(
            f"{where}pattern file uses schema_version {schema}, this "
            f"library supports up to {SCHEMA_VERSION} — upgrade the "
            f"library or re-export the patterns"
        )
    patterns = PatternSet()
    for line in iterator:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt pattern record (not JSON): {exc}"
            ) from None
        if record.get("kind") != "pattern":
            raise ValueError(f"unexpected record kind {record.get('kind')!r}")
        if schema < SCHEMA_VERSION:
            record = _upgrade_record(record, schema)
        patterns.add(_pattern_from_record(record))
    expected = header.get("patterns")
    if expected is not None and expected != len(patterns):
        raise ValueError(
            f"pattern count mismatch: header says {expected}, "
            f"file holds {len(patterns)}"
        )
    meta = {
        k: v
        for k, v in header.items()
        if k not in ("kind", "version", "schema_version", "patterns")
    }
    # Schema < 3 predates storage backends: everything was in-memory.
    meta.setdefault("backend", DEFAULT_BACKEND_TAG)
    return patterns, meta


def save_patterns(
    patterns: PatternSet,
    path: str | Path,
    meta: dict | None = None,
    atomic: bool = False,
    checksum: bool | None = None,
) -> None:
    """Write ``patterns`` to ``path``.

    ``atomic=True`` writes through a sibling temp file, ``fsync``\\ s and
    renames it into place, so readers (and a resumed run scanning
    checkpoints) never see a torn file — the write either fully happened
    or not at all.  ``checksum`` (default: same as ``atomic``) appends
    the :mod:`repro.resilience.integrity` sha256 footer, which
    :func:`read_patterns` verifies — bit rot is then *detected*, not
    parsed into garbage.
    """
    path = Path(path)
    if checksum is None:
        checksum = atomic
    buffer = io.StringIO()
    dump_patterns(patterns, buffer, meta)
    text = buffer.getvalue()
    if checksum:
        text = integrity.frame(text)
    if atomic:
        integrity.atomic_write_text(path, text)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)


def read_patterns(path: str | Path) -> tuple[PatternSet, dict]:
    """Read (and integrity-verify) a pattern file.

    A sha256-footer mismatch quarantines the file to ``<name>.corrupt/``
    and raises :class:`~repro.resilience.errors.ArtifactCorrupt`; files
    without a footer (pre-integrity artifacts, hand-written fixtures)
    load with structural validation only.
    """
    path = Path(path)
    text = integrity.read_checked(path)
    try:
        return load_patterns(iter(text.splitlines()), path=path)
    except ArtifactCorrupt:
        raise
    except ValueError as exc:
        # Structurally corrupt but carrying a valid (or no) footer:
        # surface it as the typed corruption failure with provenance.
        corrupt = ArtifactCorrupt(f"{path}: {exc}", path=path)
        corrupt.quarantined = integrity.quarantine(path)
        raise corrupt from exc
