"""Frequent subgraph miners: gSpan, Gaston, FSG, brute force, ADIMINE."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".base": "Miner MiningStats Pattern PatternKey PatternSet",
    ".bruteforce": "BruteForceMiner connected_edge_subgraph_codes",
    ".fsg": "FSGMiner FSGStats",
    ".edges": "FrequentEdge frequent_edge_patterns frequent_edges",
    ".gaston": "GastonMiner PatternClass classify",
    ".gspan": "GSpanMiner",
    ".store": "read_patterns save_patterns",
    ".validation": "ValidationReport validate",
})
