"""Graph substrate: labeled graphs, databases, I/O, isomorphism, canonical codes."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".canonical": """DFSCode canonical_code canonical_form is_min_code
                     min_dfs_code""",
    ".database": "GraphDatabase",
    ".dot": "graph_to_dot patterns_to_dot",
    ".isomorphism": "are_isomorphic count_support subgraph_exists",
    ".labeled_graph": "LabeledGraph",
    ".operations": "DeletionCore edge_deletion_cores overlay_candidates",
})
