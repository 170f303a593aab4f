"""ADI / ADIMINE: the disk-based baseline miner (Wang et al., SIGKDD 2004)."""

from ... import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".adimine": "ADIMiner ADIMineStats",
    ".index": "ADIIndex deserialize_graph serialize_graph",
    ".storage": "BlockStorage StorageStats",
})
