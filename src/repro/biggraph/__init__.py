"""Single-large-graph mining: pattern growth under MNI support.

One large labeled graph; an embedding counts when some pivot's r-ball
holds it — the semantics of mining the graph's r-neighborhood
decomposition (:mod:`~repro.biggraph.extract`) as a transactional
database.  :class:`BigGraphMiner` grows patterns on the graph itself,
pruning on minimum-image support (:mod:`~repro.biggraph.mni`) and on
that pivot support during growth.  The CLI exposes it as
``repro mine-big``; ``repro neighborhoods`` inspects the decomposition.
"""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".extract": "ExtractionStats NeighborhoodExtractor neighborhood_vertices",
    ".miner": "SUPPORT_MODES BigGraphMiner BigGraphResult",
    ".mni": "MNICount MNISupport pattern_radius",
})
