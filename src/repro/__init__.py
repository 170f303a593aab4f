"""PartMiner: a partition-based approach to graph mining.

Reproduction of Wang, Hsu, Lee & Sheng, *A Partition-Based Approach to
Graph Mining*, ICDE 2006.

Public API quick tour::

    from repro import (
        GraphDatabase, LabeledGraph,          # graph substrate
        GSpanMiner, GastonMiner, ADIMiner,    # miners
        PartMiner, IncrementalPartMiner,      # the paper's contribution
        generate_dataset, UpdateGenerator,    # workloads
    )

    db = generate_dataset("D100T12N10L20I4")
    result = PartMiner(k=4).mine(db, min_support=0.05)
    print(len(result.patterns), "frequent patterns")

Every package's public names load on first use (DESIGN.md §18), so
``import repro`` imports nothing else and a CLI command loads only the
modules it runs.
"""

import importlib
import sys

__version__ = "1.0.0"


def _exports(package: str, table: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each submodule (relative to ``package``) to the
    whitespace-separated public names it defines; a name equal to its
    submodule's last component is that submodule.  A name's submodule is
    imported when the name is first read, and the value is then bound on
    the package, so later reads are plain attribute hits.
    """
    owner = {
        name: module for module, names in table.items()
        for name in names.split()
    }

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = importlib.import_module(owner[name], package)
        if value.__name__.rpartition(".")[2] != name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | owner.keys())

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = _exports(__name__, {
    ".core": """IncrementalPartMiner IncrementalResult MergeJoinStats
                PartMiner PartMinerResult merge_join""",
    ".datagen": "DatasetSpec SyntheticGenerator generate_dataset",
    ".graph": """DFSCode GraphDatabase LabeledGraph are_isomorphic
                 canonical_code min_dfs_code subgraph_exists""",
    ".mining": """BruteForceMiner GSpanMiner GastonMiner Pattern PatternSet
                  read_patterns save_patterns validate""",
    ".mining.adi": "ADIMiner",
    ".perf": "perf SupportCache",
    ".serve": "serve FragmentIndex PatternCatalog PatternService QueryEngine",
    ".query": "MatchResult Occurrence coverage match match_patterns",
    ".runtime": """CheckpointStore MiningRuntime RunTelemetry RuntimeConfig
                   run_unit_mining""",
    ".partition": """PARTITION1 PARTITION2 PARTITION3 GraphPartitioner
                     MetisPartitioner PartitionWeights db_partition""",
    ".updates": """AddEdge AddVertex RelabelEdge RelabelVertex UpdateGenerator
                   apply_updates hot_vertex_assignment""",
})
