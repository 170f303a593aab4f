"""Graph substrate: labeled graphs, databases, I/O, isomorphism, canonical codes."""

from .canonical import (
    DFSCode,
    canonical_code,
    canonical_form,
    is_min_code,
    min_dfs_code,
)
from .database import GraphDatabase
from .dot import graph_to_dot, patterns_to_dot
from .isomorphism import are_isomorphic, count_support, subgraph_exists
from .labeled_graph import LabeledGraph
from .operations import DeletionCore, edge_deletion_cores, overlay_candidates

__all__ = [
    "DFSCode",
    "DeletionCore",
    "GraphDatabase",
    "graph_to_dot",
    "patterns_to_dot",
    "LabeledGraph",
    "are_isomorphic",
    "canonical_code",
    "canonical_form",
    "count_support",
    "edge_deletion_cores",
    "is_min_code",
    "min_dfs_code",
    "overlay_candidates",
    "subgraph_exists",
]
