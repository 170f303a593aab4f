"""Digest and oracle checks over pattern-record files.

A pattern file is JSON lines: one header, then ``"kind": "pattern"``
records, then (for checksummed files) an integrity footer.  The header
carries the input path and the backend, and the footer seals the header, so
a memory run and a SQLite run of the same pattern set differ as *files*
while their pattern records are byte-identical.  The digest is therefore
sha256 over the pattern records only.

Records hold the canonical (min-DFS-code) form of each pattern, so
``(vertices, edges)`` identifies the isomorphism class and two files can be
compared record by record without importing the miner.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def pattern_lines(path: str | Path) -> list[str]:
    """The raw ``"kind": "pattern"`` lines of a pattern file, in order."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("{") and '"kind": "pattern"' in line:
                lines.append(line.rstrip("\n"))
    return lines


def digest_lines(lines: list[str]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def pattern_digest(path: str | Path) -> str:
    """sha256 over the pattern records of ``path``."""
    return digest_lines(pattern_lines(path))


def read_records(path: str | Path) -> list[dict]:
    return [json.loads(line) for line in pattern_lines(path)]


def record_key(record: dict) -> str:
    """Identity of a record's isomorphism class."""
    return json.dumps([record["vertices"], record["edges"]])


def supports(records: list[dict]) -> dict[str, int]:
    """Record key -> claimed support."""
    return {record_key(r): r["support"] for r in records}


def recall(emitted: dict[str, int], oracle: dict[str, int]) -> float:
    """Share of oracle patterns emitted with the oracle's support."""
    if not oracle:
        return 1.0
    found = sum(1 for key, s in oracle.items() if emitted.get(key) == s)
    return found / len(oracle)


def precision(emitted: dict[str, int], truth: dict[str, int]) -> float:
    """Share of emitted patterns the oracle confirms with equal support.

    ``emitted`` may be a sample; ``truth`` must cover every key in it that
    is true (a key missing from ``truth`` is an unconfirmed pattern).
    """
    if not emitted:
        return 1.0
    confirmed = sum(1 for key, s in emitted.items() if truth.get(key) == s)
    return confirmed / len(emitted)


def stale(emitted: dict[str, int], truth: dict[str, int]) -> list[dict]:
    """The emitted patterns the oracle does not confirm, with both counts."""
    return [
        {"pattern": key, "claimed": s, "true": truth.get(key)}
        for key, s in emitted.items()
        if truth.get(key) != s
    ]


def query_facts(answers: dict, oracle: dict) -> tuple[set, set]:
    """``(emitted, true)`` containment facts over the oracle's sample.

    A fact is ``(kind, pid, gid)``: ``match`` answers contribute the
    sampled patterns' supporting graphs, ``contains`` answers contribute
    the sampled graphs' patterns restricted to the sampled patterns.
    """
    pids = set(oracle["pids"])
    gids = set(oracle["gids"])
    true, emitted = set(), set()
    for pid_text, supporting in oracle["match"].items():
        pid = int(pid_text)
        for gid in supporting:
            true.add(("match", pid, gid))
            if gid in gids:
                true.add(("contains", pid, gid))
    for pid_text, supporting in answers["match"].items():
        if int(pid_text) in pids:
            emitted.update(("match", int(pid_text), gid) for gid in supporting)
    for gid_text, found in answers["contains"].items():
        if int(gid_text) in gids:
            emitted.update(
                ("contains", pid, int(gid_text)) for pid in found if pid in pids
            )
    return emitted, true
