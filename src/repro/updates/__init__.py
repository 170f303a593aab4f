"""Dynamic-environment support: update model, generator, hot-set ufreq."""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".generator": "UPDATE_KINDS UpdateGenerator",
    ".stream": "EpochPlan UpdateStream",
    ".model": """AddEdge AddVertex RelabelEdge RelabelVertex Update
                 apply_update apply_updates""",
    ".tracker": "hot_vertex_assignment",
})
