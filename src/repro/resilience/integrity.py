"""Checksummed durability: framed writes, verified reads, quarantine.

Every durable artifact in the pipeline — checkpoints, pattern stores,
catalog snapshots, traces — is plain text (JSON lines or JSON).  This
module gives them all one integrity discipline:

* **Framing** — :func:`frame` appends a footer line ``#repro-integrity
  sha256=<hex> bytes=<n>`` covering the payload bytes; :func:`unframe`
  verifies and strips it.  Files written before this layer existed carry
  no footer and still load (``require=False``), so old run directories
  stay resumable.
* **Atomic, synced writes** — :func:`atomic_write_text` writes a sibling
  temp file, ``fsync``\\ s it, renames it into place, and ``fsync``\\ s
  the directory, so a crash at any instant leaves either the old bytes
  or the new bytes — never a torn file that *looks* complete.
* **Quarantine + typed failure** — a verification miss moves the bad
  artifact into a sibling ``<name>.corrupt/`` directory (preserving the
  evidence, and making retry-after-cleanup safe) and raises
  :class:`~repro.resilience.errors.ArtifactCorrupt`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .errors import ArtifactCorrupt

FOOTER_PREFIX = "#repro-integrity "


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def frame(text: str) -> str:
    """Append the integrity footer to ``text`` (payload ends with \\n)."""
    if text and not text.endswith("\n"):
        text += "\n"
    payload = text.encode("utf-8")
    return (
        text
        + f"{FOOTER_PREFIX}sha256={_digest(payload)} bytes={len(payload)}\n"
    )


def unframe(
    text: str, *, path: str | Path | None = None, require: bool = False
) -> str:
    """Verify and strip the integrity footer; returns the payload.

    Unfooted text passes through untouched unless ``require=True`` —
    that keeps legacy artifacts loadable while letting callers that
    *know* they wrote a footer insist on one (a missing footer then
    means truncation).  Raises :class:`ArtifactCorrupt` on a digest or
    length mismatch, or a footer line that is cut short.
    """
    lines = text.splitlines(keepends=True)
    footer_at = None
    for i, line in enumerate(lines):
        if line.startswith(FOOTER_PREFIX):
            footer_at = i
            break
    if footer_at is None:
        if require:
            raise ArtifactCorrupt(
                f"{path or 'artifact'}: integrity footer missing "
                "(file truncated?)",
                path=path,
            )
        return text
    payload = "".join(lines[:footer_at])
    trailer = "".join(lines[footer_at + 1 :]).strip()
    fields = dict(
        part.split("=", 1)
        for part in lines[footer_at][len(FOOTER_PREFIX) :].split()
        if "=" in part
    )
    payload_bytes = payload.encode("utf-8")
    expected = fields.get("sha256")
    claimed_len = fields.get("bytes")
    if not lines[footer_at].endswith("\n") or claimed_len is None:
        raise ArtifactCorrupt(
            f"{path or 'artifact'}: integrity footer cut short "
            "(file truncated?)",
            path=path,
        )
    if trailer:
        raise ArtifactCorrupt(
            f"{path or 'artifact'}: {len(trailer)} bytes after the "
            "integrity footer",
            path=path,
        )
    if claimed_len is not None and claimed_len != str(len(payload_bytes)):
        raise ArtifactCorrupt(
            f"{path or 'artifact'}: payload is {len(payload_bytes)} bytes, "
            f"footer says {claimed_len}",
            path=path,
        )
    if expected != _digest(payload_bytes):
        raise ArtifactCorrupt(
            f"{path or 'artifact'}: sha256 mismatch — stored bytes are "
            "corrupt",
            path=path,
        )
    return payload


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def atomic_write_text(
    path: str | Path, text: str, *, fsync: bool = True
) -> Path:
    """Write ``text`` to ``path`` via temp-file + fsync + rename."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(text.encode("utf-8"))
            if fsync:
                out.flush()
                os.fsync(out.fileno())
        tmp.replace(path)
        if fsync:
            _fsync_dir(path.parent)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _fsync_dir(directory: Path) -> None:
    """Persist the rename itself (directory entry) where supported."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(
    path: str | Path, obj, *, indent: int | None = 2, fsync: bool = True
) -> Path:
    """Atomically dump ``obj`` as (plain, unfooted) JSON."""
    return atomic_write_text(
        path, json.dumps(obj, indent=indent) + "\n", fsync=fsync
    )


def write_checked(
    path: str | Path, text: str, *, fsync: bool = True
) -> Path:
    """Atomically write ``text`` with an integrity footer."""
    return atomic_write_text(path, frame(text), fsync=fsync)


# ----------------------------------------------------------------------
# Verified reads + quarantine
# ----------------------------------------------------------------------
def quarantine(path: str | Path) -> Path | None:
    """Move a bad artifact into a sibling ``<name>.corrupt/`` directory.

    Returns the new location (``None`` if the file vanished first).  The
    original path is freed so a recovery write can reuse it.
    """
    path = Path(path)
    if not path.exists():
        return None
    pen = path.with_name(path.name + ".corrupt")
    pen.mkdir(parents=True, exist_ok=True)
    dest = pen / path.name
    serial = 0
    while dest.exists():
        serial += 1
        dest = pen / f"{path.name}.{serial}"
    path.replace(dest)
    return dest


def read_checked(
    path: str | Path, *, require: bool = False, quarantine_bad: bool = True
) -> str:
    """Read ``path``, verify its footer, return the payload.

    On corruption the file is quarantined (when ``quarantine_bad``) and
    :class:`ArtifactCorrupt` is raised carrying the quarantine location.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        corrupt = ArtifactCorrupt(
            f"{path}: not valid UTF-8 ({exc})", path=path
        )
        if quarantine_bad:
            corrupt.quarantined = quarantine(path)
        raise corrupt from None
    try:
        return unframe(text, path=path, require=require)
    except ArtifactCorrupt as corrupt:
        if quarantine_bad:
            corrupt.quarantined = quarantine(path)
        raise
