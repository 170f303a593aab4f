"""Pattern-serving subsystem: catalog, fragment index, engine, service.

Mining produces patterns; this package *serves* them.  Four layers, each
usable on its own:

* :mod:`repro.serve.catalog` — :class:`PatternCatalog`, a directory of
  versioned, atomically-published pattern snapshots (JSONL store +
  prebuilt index + manifest);
* :mod:`repro.serve.index` — :class:`FragmentIndex`, an inverted
  edge-triple / label-path index over patterns and database graphs that
  prunes candidates before any isomorphism search;
* :mod:`repro.serve.engine` — :class:`QueryEngine`, indexed + cached
  ``match`` / ``contains`` / ``top_k`` / ``coverage`` answers, identical
  to the unindexed :mod:`repro.query` results;
* :mod:`repro.serve.service` — :class:`PatternService`, a threaded JSON
  HTTP API with request batching, a bounded worker pool, hot-reload and
  graceful shutdown.

End-to-end story (mine -> publish -> serve -> update -> hot-reload):
``examples/serve_and_query.py``; design notes: DESIGN.md §9.
"""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".catalog": "CatalogSnapshot PatternCatalog PatternEntry catalog_order",
    ".engine": """ContainsAnswer EngineTotals MatchAnswer QueryEngine
                  QueryStats""",
    ".index": "FragmentIndex graph_fragments",
    ".service": "PatternService ServiceError decode_graph encode_graph",
})
