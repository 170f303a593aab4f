"""Graph and database partitioning: GraphPart, DBPartition, METIS baseline."""

from .dbpartition import db_partition, recommended_k, split_node
from .graphpart import (
    Bipartition,
    GraphPartitioner,
    SidePiece,
    build_bipartition,
    dfs_scan,
)
from .metis import MetisPartitioner
from .units import PartitionNode, PartitionTree
from .weights import (
    PARTITION1,
    PARTITION2,
    PARTITION3,
    PartitionWeights,
    cut_edges,
)

__all__ = [
    "PARTITION1",
    "PARTITION2",
    "PARTITION3",
    "Bipartition",
    "GraphPartitioner",
    "MetisPartitioner",
    "PartitionNode",
    "PartitionTree",
    "PartitionWeights",
    "SidePiece",
    "build_bipartition",
    "cut_edges",
    "db_partition",
    "recommended_k",
    "dfs_scan",
    "split_node",
]
