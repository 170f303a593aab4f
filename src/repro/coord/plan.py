"""Density-based shard placement (Aridhi et al., arXiv 1212.0017).

A :class:`ShardPlan` splits a :class:`~repro.graph.database.GraphDatabase`
into ``N`` shards for the mining coordinator.  Naive contiguous splitting
concentrates the dense (expensive-to-mine) graphs of a skewed corpus on
one worker; the density heuristic instead ranks every graph by its
edge/vertex ratio and deals the ranked list round-robin, so each shard
receives an even slice of every density band — the straggler shard of a
contiguous split disappears.

The plan is pure data: gid tuples per shard plus the density summary.
It serializes to a dict that the coordinator pins in its run manifest,
so a resumed run refuses to continue under a *different* placement
(shard checkpoints are only meaningful relative to the plan that wrote
them).

Soundness of the two-level threshold reduction the coordinator applies
on top (shards, then gid-chunks within a shard) is the paper's
pigeonhole argument applied twice: a pattern with global support
``s >= t`` keeps support ``>= ceil(t/N)`` in at least one of ``N``
shards, and within that shard support ``>= ceil(ceil(t/N)/M)`` in at
least one of its ``M`` chunks — so mining every chunk at the doubly
reduced threshold yields a complete candidate superset, and the exact
global recount restores exact supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graph.database import GraphDatabase


@dataclass(frozen=True)
class ShardPlan:
    """Placement of database graphs onto ``num_shards`` shards."""

    num_shards: int
    #: Per shard, the assigned gids in ascending order (deterministic
    #: iteration for workers and resumes).
    assignments: tuple[tuple[int, ...], ...]
    #: Per shard, total (graphs, edges) — the balance the heuristic
    #: optimizes for, kept for telemetry and the per-shard gauges.
    sizes: tuple[tuple[int, int], ...]

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database: GraphDatabase, num_shards: int) -> "ShardPlan":
        """Rank graphs by edge/vertex ratio and deal them round-robin.

        Density tracks mining cost on transactional corpora, so every
        shard gets an even slice of every density band.  The plan is a
        pure function of the database.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1: {num_shards}")
        stats: dict[int, tuple[float, int]] = {}
        for gid, graph in database:
            vertices = max(1, graph.num_vertices)
            stats[gid] = (graph.num_edges / vertices, graph.num_edges)
        shards: list[list[int]] = [[] for _ in range(num_shards)]
        # Densest first; gid breaks ties.
        ranked = sorted(stats, key=lambda gid: (-stats[gid][0], gid))
        for position, gid in enumerate(ranked):
            shards[position % num_shards].append(gid)
        assignments = tuple(tuple(sorted(gids)) for gids in shards)
        sizes = tuple(
            (len(gids), sum(stats[g][1] for g in gids))
            for gids in assignments
        )
        return cls(
            num_shards=num_shards, assignments=assignments, sizes=sizes
        )

    # ------------------------------------------------------------------
    def shard_gids(self, shard: int) -> tuple[int, ...]:
        return self.assignments[shard]

    def chunks(self, shard: int, chunk_size: int) -> list[tuple[int, ...]]:
        """The shard's gids cut into checkpoint units of ``chunk_size``.

        Chunks are the coordinator's unit of durable progress: a killed
        worker resumes from its last committed chunk.  ``chunk_size <=
        0`` yields one chunk (whole-shard checkpointing).
        """
        gids = self.assignments[shard]
        if not gids:
            return []
        if chunk_size <= 0:
            return [gids]
        return [
            gids[i: i + chunk_size]
            for i in range(0, len(gids), chunk_size)
        ]

    def shard_threshold(self, root_threshold: int) -> int:
        """Pigeonhole-reduced threshold a shard must mine at."""
        return max(1, math.ceil(root_threshold / self.num_shards))

    def chunk_threshold(
        self, root_threshold: int, shard: int, chunk_size: int
    ) -> int:
        """Threshold each of the shard's chunks is mined at."""
        chunks = len(self.chunks(shard, chunk_size))
        if chunks == 0:
            return 1
        return max(
            1, math.ceil(self.shard_threshold(root_threshold) / chunks)
        )

    def shard_database(
        self, database: GraphDatabase, shard: int
    ) -> GraphDatabase:
        """An in-memory view of one shard's graphs."""
        gids = set(self.assignments[shard])
        return database.filter(lambda gid, _graph: gid in gids)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready balance digest (telemetry, CLI output)."""
        graphs = [g for g, _ in self.sizes]
        edges = [e for _, e in self.sizes]
        return {
            "shards": self.num_shards,
            "graphs": graphs,
            "edges": edges,
            "edge_spread": (max(edges) - min(edges)) if edges else 0,
        }

    def to_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "assignments": [list(gids) for gids in self.assignments],
            "sizes": [list(pair) for pair in self.sizes],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardPlan":
        return cls(
            num_shards=data["num_shards"],
            assignments=tuple(
                tuple(gids) for gids in data["assignments"]
            ),
            sizes=tuple(
                (int(g), int(e)) for g, e in data["sizes"]
            ),
        )
