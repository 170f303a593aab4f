"""Frequent subgraph miners: gSpan, Gaston, FSG, brute force, ADIMINE."""

from .base import Miner, MiningStats, Pattern, PatternKey, PatternSet
from .bruteforce import BruteForceMiner, connected_edge_subgraph_codes
from .fsg import FSGMiner, FSGStats
from .edges import FrequentEdge, frequent_edge_patterns, frequent_edges
from .gaston import GastonMiner, PatternClass, classify
from .gspan import GSpanMiner
from .store import read_patterns, save_patterns
from .validate import ValidationReport, validate

__all__ = [
    "BruteForceMiner",
    "ValidationReport",
    "read_patterns",
    "save_patterns",
    "validate",
    "FSGMiner",
    "FSGStats",
    "FrequentEdge",
    "GSpanMiner",
    "GastonMiner",
    "Miner",
    "MiningStats",
    "Pattern",
    "PatternClass",
    "PatternKey",
    "PatternSet",
    "classify",
    "connected_edge_subgraph_codes",
    "frequent_edge_patterns",
    "frequent_edges",
]
