"""The paper's contribution: merge-join, PartMiner, IncPartMiner."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".incremental": "IncrementalPartMiner IncrementalResult IncrementalStats",
    ".join": "SupportCounter join_patterns pattern_edge_triples",
    ".mergejoin": "MergeJoinStats merge_join",
    ".partminer": "PartMiner PartMinerResult resolve_unit_threshold",
})
