"""Frequent subgraph miners: gSpan, Gaston-style, brute force, ADIMINE."""

from .agm import AGMMiner, InducedBruteForceMiner
from .base import Miner, MiningStats, Pattern, PatternKey, PatternSet
from .bruteforce import BruteForceMiner, connected_edge_subgraph_codes
from .closed import closed_patterns, compression_ratio, maximal_patterns
from .constraints import (
    Acyclic,
    AllowedEdgeLabels,
    AllowedVertexLabels,
    ConstrainedMiner,
    Constraint,
    MaxDegree,
    MaxEdges,
    MaxVertices,
    MinEdges,
    MinVertices,
    RequiresEdgeLabel,
    RequiresVertexLabel,
)
from .fsg import FSGMiner, FSGStats
from .edges import FrequentEdge, frequent_edge_patterns, frequent_edges
from .gaston import GastonMiner, PatternClass, classify
from .gspan import GSpanMiner
from .select import greedy_cover, mine_top_k
from .store import read_patterns, save_patterns
from .validate import ValidationReport, validate

__all__ = [
    "AGMMiner",
    "InducedBruteForceMiner",
    "BruteForceMiner",
    "ValidationReport",
    "closed_patterns",
    "Acyclic",
    "AllowedEdgeLabels",
    "AllowedVertexLabels",
    "ConstrainedMiner",
    "Constraint",
    "MaxDegree",
    "MaxEdges",
    "MaxVertices",
    "MinEdges",
    "MinVertices",
    "RequiresEdgeLabel",
    "RequiresVertexLabel",
    "compression_ratio",
    "maximal_patterns",
    "read_patterns",
    "save_patterns",
    "greedy_cover",
    "mine_top_k",
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
