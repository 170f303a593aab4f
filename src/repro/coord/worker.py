"""Shard worker: mine one shard's gid-chunks under a lease.

One process per *attempt*, started through the supervisor's shared child
entry (:func:`repro.runtime.supervisor.child_main`), which also runs the
heartbeat thread and reports the return value.  The worker:

* mines the shard's gid-chunks **serially in-process** (worker
  processes are daemonic, so they cannot spawn a nested runtime; the
  parallelism lives across shards, not inside one);
* checkpoints every completed chunk through the shared
  :class:`~repro.runtime.checkpoint.CheckpointStore` — a killed worker's
  successor resumes from the last committed chunk, not from scratch —
  and beats ``("unit", chunk_index, patterns)`` after each, which renews
  the lease like a heartbeat does;
* commits the shard result exactly once: the candidate union is written
  with an atomic rename + sha256 footer, so the artifact either exists
  whole or not at all, and a duplicate attempt that finds it already
  committed adopts it instead of re-mining.
"""

from __future__ import annotations

from ..mining.base import PatternSet, mine_unit
from ..obs import trace as obs_trace
from ..resilience.errors import ArtifactCorrupt
from ..runtime.checkpoint import CheckpointStore
from ..runtime.payload import payload_database


def mine_shard(payload: dict, attempt: int, beat) -> dict:
    """Mine every chunk (resuming from checkpoints), commit the result.

    Returns ``{"patterns", "resumed", "mined"}`` — the terminal message
    of the attempt; the patterns themselves travel through the committed
    artifact at ``payload["result_path"]``, never the pipe.
    """
    from ..mining.gaston import GastonMiner
    from ..mining.store import save_patterns

    chunks = [tuple(chunk) for chunk in payload["chunks"]]
    threshold, max_size = payload["threshold"], payload.get("max_size")
    store = CheckpointStore(payload["run_dir"])
    store.open(
        {
            "units": len(chunks),
            "thresholds": [threshold] * len(chunks),
            "max_size": max_size,
        }
    )

    candidates = PatternSet()
    resumed = mined = 0
    for index, gids in enumerate(chunks):
        patterns = None
        if store.has(index):
            try:
                patterns = store.load(index)
                resumed += 1
            except ArtifactCorrupt:
                patterns = None  # quarantined; re-mine below
        if patterns is None:
            database = payload_database(payload, gids)
            patterns, _ = mine_unit(GastonMiner, database, threshold, max_size)
            store.save(
                index,
                patterns,
                meta={"threshold": threshold, "gids": list(gids)},
            )
            mined += 1
        for pattern in patterns:
            candidates.add_union(pattern)
        beat(("unit", index, len(patterns)))

    # Exactly-once commit: atomic rename + integrity footer.  A crash
    # before the rename leaves nothing; after it, the whole artifact.
    save_patterns(
        candidates,
        payload["result_path"],
        meta=dict(payload.get("result_meta") or {}, chunks=len(chunks)),
        atomic=True,
    )
    obs_trace.annotate(chunks=len(chunks), resumed=resumed, mined=mined)
    return {"patterns": len(candidates), "resumed": resumed, "mined": mined}
