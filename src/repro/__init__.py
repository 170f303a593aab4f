"""PartMiner: a partition-based approach to graph mining.

Reproduction of Wang, Hsu, Lee & Sheng, *A Partition-Based Approach to
Graph Mining*, ICDE 2006.

Public API quick tour::

    from repro import (
        GraphDatabase, LabeledGraph,          # graph substrate
        GSpanMiner, GastonMiner, ADIMiner,    # miners
        PartMiner, IncrementalPartMiner,      # the paper's contribution
        generate_dataset, UpdateGenerator,    # workloads
    )

    db = generate_dataset("D100T12N10L20I4")
    result = PartMiner(k=4).mine(db, min_support=0.05)
    print(len(result.patterns), "frequent patterns")
"""

from .core import (
    IncrementalPartMiner,
    IncrementalResult,
    MergeJoinStats,
    PartMiner,
    PartMinerResult,
    merge_join,
)
from .datagen import DatasetSpec, SyntheticGenerator, generate_dataset
from .graph import (
    DFSCode,
    GraphDatabase,
    LabeledGraph,
    are_isomorphic,
    canonical_code,
    min_dfs_code,
    subgraph_exists,
)
from .mining import (
    BruteForceMiner,
    GSpanMiner,
    GastonMiner,
    Pattern,
    PatternSet,
    read_patterns,
    save_patterns,
    validate,
)
from . import perf
from . import serve
from .mining.adi import ADIMiner
from .serve import (
    FragmentIndex,
    PatternCatalog,
    PatternService,
    QueryEngine,
)
from .perf import SupportCache
from .query import MatchResult, Occurrence, coverage, match, match_patterns
from .runtime import (
    CheckpointStore,
    MiningRuntime,
    RunTelemetry,
    RuntimeConfig,
    run_unit_mining,
)
from .partition import (
    PARTITION1,
    PARTITION2,
    PARTITION3,
    GraphPartitioner,
    MetisPartitioner,
    PartitionWeights,
    db_partition,
)
from .updates import (
    AddEdge,
    AddVertex,
    RelabelEdge,
    RelabelVertex,
    UpdateGenerator,
    apply_updates,
    hot_vertex_assignment,
)

__version__ = "1.0.0"

__all__ = [
    "ADIMiner",
    "AddEdge",
    "AddVertex",
    "BruteForceMiner",
    "CheckpointStore",
    "DFSCode",
    "DatasetSpec",
    "GSpanMiner",
    "GastonMiner",
    "GraphDatabase",
    "GraphPartitioner",
    "IncrementalPartMiner",
    "IncrementalResult",
    "LabeledGraph",
    "MergeJoinStats",
    "MetisPartitioner",
    "MiningRuntime",
    "PARTITION1",
    "PARTITION2",
    "PARTITION3",
    "PartMiner",
    "PartMinerResult",
    "Pattern",
    "PatternSet",
    "PartitionWeights",
    "RelabelEdge",
    "RelabelVertex",
    "RunTelemetry",
    "RuntimeConfig",
    "SupportCache",
    "SyntheticGenerator",
    "UpdateGenerator",
    "apply_updates",
    "are_isomorphic",
    "canonical_code",
    "read_patterns",
    "save_patterns",
    "validate",
    "db_partition",
    "generate_dataset",
    "hot_vertex_assignment",
    "merge_join",
    "MatchResult",
    "Occurrence",
    "coverage",
    "match",
    "match_patterns",
    "min_dfs_code",
    "perf",
    "run_unit_mining",
    "serve",
    "subgraph_exists",
    "FragmentIndex",
    "PatternCatalog",
    "PatternService",
    "QueryEngine",
]
