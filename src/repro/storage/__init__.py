"""Storage engines behind the graph database — graphs only.

``open_backend("memory")`` is the extracted in-memory behaviour (the
default); ``open_backend("sqlite", path)`` is the out-of-core engine.
Pattern sets and catalog snapshots stay files over either backend.
See DESIGN.md §14 for the schema and the atomicity/quarantine model.
"""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".backend": """BACKEND_NAMES SITE_STORAGE_READ SITE_STORAGE_WRITE
                   MemoryBackend StorageBackend open_backend""",
    ".encoding": "decode_graph encode_graph payload_sha",
    ".lru": "DEFAULT_CACHE_GRAPHS GraphLRU",
})
