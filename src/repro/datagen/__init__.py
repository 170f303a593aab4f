"""Synthetic workload generation (paper Table 1 parameters D/N/T/I/L)."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".kernels": "generate_kernels random_connected_graph",
    ".large_graph": """LargeGraphResult LargeGraphSpec PlantedPattern
                       generate_large_graph planted_star""",
    ".synthetic": "DatasetSpec SyntheticGenerator generate_dataset",
})
