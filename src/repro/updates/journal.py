"""Update journaling: persist and replay update batches.

The pattern store (:mod:`repro.mining.store`) persists *results*; a
durable dynamic deployment also needs the *changes* — so that a restarted
process can rebuild its state from the last snapshot plus the journal, and
so that experiments are replayable.  One JSON object per line::

    {"kind": "header", "version": 1, ...meta}
    {"kind": "batch", "index": 0, "updates": [ {"op": "relabel_vertex",
        "gid": 3, "vertex": 1, "new_label": 7}, ... ]}

:meth:`UpdateJournal.save` writes the journal whole, atomically, with the
integrity footer, so any damage — a cut, a flipped bit, a malformed
record — raises on load rather than yielding a shorter journal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator

from ..resilience import faults, integrity
from .model import AddEdge, AddVertex, RelabelEdge, RelabelVertex, Update

JOURNAL_VERSION = 1

SITE_REPLAY = faults.register_site(
    "journal.replay", "applying journaled update batches to a database"
)

_OP_NAMES = {
    RelabelVertex: "relabel_vertex",
    RelabelEdge: "relabel_edge",
    AddEdge: "add_edge",
    AddVertex: "add_vertex",
}


def _encode(update: Update) -> dict:
    record = {"op": _OP_NAMES[type(update)]}
    for name in update.__dataclass_fields__:
        record[name] = getattr(update, name)
    return record


_OPS = {name: op for op, name in _OP_NAMES.items()}


def _decode(record) -> Update:
    op = _OPS.get(record.get("op")) if isinstance(record, dict) else None
    if op is None:
        raise ValueError(f"unknown update op in {record!r}")
    try:
        return op(**{k: v for k, v in record.items() if k != "op"})
    except TypeError as exc:
        raise ValueError(f"malformed update {record!r}: {exc}") from None


class UpdateJournal:
    """An append-only journal of update batches."""

    def __init__(self, meta: dict | None = None) -> None:
        self.meta = dict(meta or {})
        self.batches: list[list[Update]] = []

    def append(self, updates: list[Update]) -> int:
        """Record one batch; returns its index."""
        self.batches.append(list(updates))
        return len(self.batches) - 1

    def __len__(self) -> int:
        return len(self.batches)

    def all_updates(self) -> list[Update]:
        """Every journaled update, in application order."""
        return [u for batch in self.batches for u in batch]

    # ------------------------------------------------------------------
    def dump(self, out: IO[str]) -> None:
        """Write the journal as JSON lines (header first)."""
        header = {"kind": "header", "version": JOURNAL_VERSION}
        header.update(self.meta)
        out.write(json.dumps(header) + "\n")
        for index, batch in enumerate(self.batches):
            out.write(
                json.dumps(
                    {
                        "kind": "batch",
                        "index": index,
                        "updates": [_encode(u) for u in batch],
                    }
                )
                + "\n"
            )

    @classmethod
    def load(cls, lines: Iterator[str] | IO[str]) -> "UpdateJournal":
        """Parse a journal written by :meth:`dump`.

        Any malformed record — unparseable JSON, a wrong kind, an
        out-of-order batch, an unknown or ill-formed update — raises
        :class:`ValueError`; nothing is skipped.
        """
        content = [line for line in lines if line.strip()]
        if not content:
            raise ValueError("empty journal (missing header)")
        try:
            header = json.loads(content[0])
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ValueError("not a journal (first line is no header)")
        if header.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"unsupported journal version {header.get('version')!r}"
            )
        journal = cls(
            meta={
                k: v
                for k, v in header.items()
                if k not in ("kind", "version")
            }
        )
        for position, line in enumerate(content[1:], start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"corrupt journal record at line {position + 1}: {exc}"
                ) from None
            if not isinstance(record, dict) or record.get("kind") != "batch":
                raise ValueError(
                    f"unexpected record at line {position + 1}: {line[:40]!r}"
                )
            if record.get("index") != len(journal.batches):
                raise ValueError(
                    f"batch index {record.get('index')} out of order "
                    f"(expected {len(journal.batches)})"
                )
            updates = record.get("updates", [])
            if not isinstance(updates, list):
                raise ValueError(f"batch {record['index']}: updates no list")
            journal.batches.append([_decode(r) for r in updates])
        return journal

    def save(self, path: str | Path) -> None:
        """Write the journal to ``path``: atomic, fsynced, footer-sealed."""
        import io as _io

        buffer = _io.StringIO()
        self.dump(buffer)
        integrity.write_checked(path, buffer.getvalue())

    @classmethod
    def read(cls, path: str | Path) -> "UpdateJournal":
        """Read a journal :meth:`save` wrote; the footer is required.

        A missing or mismatched footer raises
        :class:`~repro.resilience.errors.ArtifactCorrupt` (the file is
        quarantined); a bad record raises :class:`ValueError`.
        """
        text = integrity.read_checked(path, require=True)
        return cls.load(iter(text.splitlines()))


def replay(journal: UpdateJournal, database) -> dict[int, set[int]]:
    """Apply every journaled batch to ``database`` in order.

    Returns the union of touched vertices per gid (as
    :func:`repro.updates.model.apply_updates` does per batch).
    """
    from .model import apply_updates

    touched: dict[int, set[int]] = {}
    for index, batch in enumerate(journal.batches):
        faults.fire(SITE_REPLAY, batch=index)
        for gid, vertices in apply_updates(database, batch).items():
            touched.setdefault(gid, set()).update(vertices)
    return touched
