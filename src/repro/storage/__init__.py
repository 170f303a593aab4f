"""Storage engines behind the graph database — graphs only.

``open_backend("memory")`` is the extracted in-memory behaviour (the
default); ``open_backend("sqlite", path)`` is the out-of-core engine.
Pattern sets and catalog snapshots stay files over either backend.
See DESIGN.md §14 for the schema and the atomicity/quarantine model.
"""

from .backend import (
    BACKEND_NAMES,
    SITE_STORAGE_READ,
    SITE_STORAGE_WRITE,
    MemoryBackend,
    StorageBackend,
    open_backend,
)
from .encoding import decode_graph, encode_graph, payload_sha
from .lru import DEFAULT_CACHE_GRAPHS, GraphLRU

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_CACHE_GRAPHS",
    "GraphLRU",
    "MemoryBackend",
    "SITE_STORAGE_READ",
    "SITE_STORAGE_WRITE",
    "StorageBackend",
    "decode_graph",
    "encode_graph",
    "open_backend",
    "payload_sha",
]
