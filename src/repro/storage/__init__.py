"""The graph store — graphs only, in one SQLite file.

``open_backend("sqlite", path)`` opens it; ``--backend memory`` keeps
the parsed database resident and opens nothing.  Pattern sets and
catalog snapshots stay files either way.  See DESIGN.md §14 for the
schema and the atomicity/quarantine model.
"""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".encoding": "decode_graph encode_graph payload_sha",
    ".lru": "DEFAULT_CACHE_GRAPHS GraphLRU",
    ".sqlite": "open_backend",
})
