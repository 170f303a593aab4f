"""Graph and database partitioning: GraphPart, DBPartition, METIS baseline."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".dbpartition": "db_partition recommended_k split_node",
    ".graphpart": """Bipartition GraphPartitioner SidePiece build_bipartition
                     dfs_scan""",
    ".metis": "MetisPartitioner",
    ".units": "PartitionNode PartitionTree",
    ".weights": "PARTITION1 PARTITION2 PARTITION3 PartitionWeights cut_edges",
})
