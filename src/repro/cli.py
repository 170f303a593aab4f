"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  — synthesize a database (Table 1 parameters) to a t/v/e file
``generate-big`` — grow one large graph with planted frequent neighborhoods
``mine``      — mine frequent patterns (partminer / gspan / gaston / adimine)
``mine-big``  — mine one large graph by pattern growth under MNI support
``neighborhoods`` — inspect (or export) an r-neighborhood decomposition
``partition`` — split a database into k units and report cut statistics
``update``    — apply a random update batch to a database file
``show``      — export a database or mined patterns as Graphviz DOT
``query``     — relocate a stored pattern set over a database
``serve``     — publish patterns to a catalog and serve them over HTTP
``stats``     — print database statistics
``trace``     — inspect observability trace files (``trace summarize``)

Every command reads/writes the plain-text ``t/v/e`` graph format
(:mod:`repro.graph.io`) and the JSON-lines pattern format
(:mod:`repro.mining.store`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
import time

from .graph import io as graph_io
from .resilience import faults
from .resilience.errors import (
    ArtifactCorrupt,
    ArtifactRetired,
    BudgetExceeded,
    exit_code_for,
)
from .updates.generator import UPDATE_KINDS

SITE_RUN = faults.register_site(
    "cli.run", "top-level CLI command dispatch"
)

EXIT_CODE_EPILOG = """\
exit codes:
  0  success
  1  unclassified error
  2  usage error (bad arguments, an input file that cannot be read)
  3  corrupt stored artifact (checksum/structure miss; bad bytes
     quarantined to <name>.corrupt/)
  4  graph input failed t/v/e parsing (see --on-parse-error)
  5  resource budget exceeded (request deadline)
"""


def _support(text: str) -> float | int:
    """A support argument: a fraction in (0, 1) or a whole count >= 1."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if 0 < value < 1:
        return value
    if value >= 1 and value.is_integer():
        return int(value)
    raise argparse.ArgumentTypeError(
        f"must be a fraction in (0, 1) or a whole count >= 1: {text!r}"
    )


def _positive_int(text: str) -> int:
    """``-k``, ``--max-size``, ``--graph-cache``, ``serve --workers``,
    ``--labels``, ``--communities``, ``--edges-per-vertex``,
    ``--planted-size``, ``update --ops``, ``mine-big``'s support: a whole
    number >= 1."""
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a whole number >= 1: {text!r}")


def _port(text: str) -> int:
    """``serve --port``: a TCP port in [0, 65535] (0 binds an ephemeral
    one)."""
    if text.isdecimal() and int(text) <= 65535:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a port in [0, 65535]: {text!r}")


def _vertex_count(text: str) -> int:
    """``generate-big --vertices``: a whole number >= 2 (the core's
    first edge needs both ends)."""
    if text.isdecimal() and int(text) >= 2:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a whole number >= 2: {text!r}")


def _non_negative_int(text: str) -> int:
    """``--radius``, ``--top``, ``--planted``, ``--copies``: a whole
    number >= 0."""
    if text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"must be a whole number >= 0: {text!r}")


def _fraction(text: str) -> float:
    """``--fraction``, ``--hot-fraction``, ``--mixing``: a finite fraction
    in [0, 1]."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := float(text)) <= 1:
            return value
    raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1]: {text!r}")


def _weight(text: str) -> float:
    """``--lambda1``, ``--lambda2``: a finite GraphPart weight >= 0 (the
    paper's Partition1/2/3 use 0 and 1)."""
    with contextlib.suppress(ValueError):
        if 0 <= (value := float(text)) < float("inf"):
            return value
    raise argparse.ArgumentTypeError(f"must be a finite weight >= 0: {text!r}")


def _positive_seconds(text: str) -> float:
    """``--unit-timeout``, ``--reload-interval``: finite seconds > 0."""
    with contextlib.suppress(ValueError):
        if 0 < (value := float(text)) < float("inf"):
            return value
    raise argparse.ArgumentTypeError(f"must be finite seconds > 0: {text!r}")


def _unit_support(text: str) -> str | int:
    """``--unit-support``: ``paper``, ``exact`` or a whole count >= 1."""
    if text in ("paper", "exact"):
        return text
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(
        f"must be 'paper', 'exact' or a whole count >= 1: {text!r}"
    )


def _add_parse_policy(parser: argparse.ArgumentParser) -> None:
    """Attach ``--on-parse-error`` to a database-reading subcommand."""
    parser.add_argument(
        "--on-parse-error",
        choices=["raise", "skip"],
        default="raise",
        help="malformed t/v/e input: 'raise' aborts with exit code 4 "
             "(default); 'skip' drops the poisoned graph and continues",
    )


class _InputUnreadable(Exception):
    """An input file the OS would not let a command read (exit 2)."""


def _load_database(args: argparse.Namespace, path=None):
    """Read a database honoring the subcommand's parse-error policy."""
    path = path if path is not None else args.database
    report = graph_io.ParseReport()
    try:
        database = graph_io.read_database(
            path,
            on_error=getattr(args, "on_parse_error", "raise"),
            report=report,
        )
    except OSError as exc:
        raise _InputUnreadable(
            f"cannot read {path}: {exc.strerror or exc}"
        ) from None
    if report.graphs_skipped:
        print(
            f"warning: {report.summary()}",
            file=sys.stderr,
        )
    return database


def _add_storage_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the storage-backend flags to a database subcommand."""
    parser.add_argument(
        "--backend", choices=["memory", "sqlite"], default="memory",
        help="storage engine for the graph database: 'memory' keeps "
             "everything resident (default); 'sqlite' streams graphs "
             "from an on-disk database through a bounded decode cache",
    )
    parser.add_argument(
        "--db-path", default=None,
        help="SQLite database file (required with --backend sqlite); "
             "the input .tve is imported into it incrementally — "
             "unchanged rows are not rewritten",
    )
    parser.add_argument(
        "--graph-cache", type=_positive_int, default=None,
        help="decoded graphs the sqlite backend keeps in memory "
             "(default 256); the knob that bounds resident set size",
    )


def _check_storage_flags(args: argparse.Namespace) -> bool:
    """Validate the storage flag combination; prints usage errors."""
    if (
        getattr(args, "backend", "memory") == "sqlite"
        and not getattr(args, "db_path", None)
    ):
        print(
            "repro: --backend sqlite requires --db-path", file=sys.stderr
        )
        return False
    return True


def _runtime_config(args: argparse.Namespace):
    """The ``--parallel`` runtime's :class:`RuntimeConfig`, from the flags.

    Returns ``None`` after printing a one-line usage error when a flag
    is out of range or nothing would read it (a pool flag, ``--run-dir``
    or ``--telemetry`` without ``--parallel``; ``--parallel`` or
    ``--trace`` for a miner other than PartMiner).
    """
    from .runtime import RuntimeConfig

    try:
        runtime = RuntimeConfig(
            max_workers=args.workers,
            unit_timeout=args.unit_timeout,
            max_retries=(
                RuntimeConfig.max_retries
                if args.retries is None else args.retries
            ),
        )
        partminer_only = ["--parallel"] if args.parallel else []
        if args.trace:
            partminer_only.append("--trace")
        if partminer_only and args.algorithm != "partminer":
            raise ValueError(
                ", ".join(partminer_only) + " applies to --algorithm "
                f"partminer only, not {args.algorithm}"
            )
        idle = [
            "--" + name.replace("_", "-")
            for name in (
                "workers", "unit_timeout", "retries", "run_dir", "telemetry"
            )
            if getattr(args, name) is not None
        ]
        if idle and not args.parallel:
            raise ValueError(", ".join(idle) + " given without --parallel")
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None
    return runtime


def _storage_database(args: argparse.Namespace):
    """``(database, backend)`` honoring the storage flags.

    With ``--backend sqlite`` the ``.tve`` input is upserted into the
    database file (checksum-compared, so a re-run over unchanged input
    writes nothing) and the returned database is the lazily-decoding
    store view; the in-memory parse is dropped before mining/serving
    starts.  The memory backend returns ``(resident database, None)``.
    """
    if getattr(args, "backend", "memory") != "sqlite":
        return _load_database(args), None
    from .storage import open_backend

    source = _load_database(args)
    backend = open_backend(
        "sqlite", args.db_path, cache_graphs=args.graph_cache
    )
    written = backend.import_database(source)
    backend.checkpoint()
    del source
    print(
        f"storage: sqlite backend {args.db_path} "
        f"({backend.num_graphs()} graphs, {written} rows written)"
    )
    return backend.database(), backend


@contextlib.contextmanager
def _tracing(path):
    """Record the block's spans and write them to ``path`` at exit, if any.

    The yielded dict gets ``trace_id``, ``path`` and ``spans`` at exit,
    plus ``error`` when the write failed.  A failed write is reported on
    stderr and changes neither the exit code nor the mined output, and
    never masks an exception leaving the block."""
    trace: dict = {}
    if not path:
        yield trace
        return
    from .obs import Tracer
    from .obs import trace as obs_trace

    tracer = Tracer()
    obs_trace.activate(tracer)
    try:
        yield trace
    finally:
        obs_trace.activate(None)
        trace.update(
            trace_id=tracer.trace_id, path=str(path), spans=len(tracer)
        )
        try:
            tracer.save(path)
        except Exception as exc:
            trace["error"] = f"{type(exc).__name__}: {exc}"
            print(
                f"repro: trace not written to {path}: {trace['error']}",
                file=sys.stderr,
            )
        else:
            print(f"trace written to {path} ({trace['spans']} spans)")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    """Synthesize a database from a Table-1 spec name."""
    from .datagen.synthetic import DatasetSpec, SyntheticGenerator

    spec = DatasetSpec.from_name(args.spec, seed=args.seed)
    database = SyntheticGenerator(spec).generate()
    graph_io.write_database(database, args.output)
    print(
        f"wrote {len(database)} graphs "
        f"(avg {database.average_size():.1f} edges) to {args.output}"
    )
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine frequent patterns with the chosen algorithm."""
    if not _check_storage_flags(args):
        return 2
    runtime_config = _runtime_config(args)
    if runtime_config is None:
        return 2
    database, storage = _storage_database(args)
    telemetry = None
    if args.algorithm == "partminer":
        from .core.partminer import PartMiner
        from .partition.graphpart import GraphPartitioner
        from .partition.metis import MetisPartitioner
        from .partition.weights import PartitionWeights

        partitioner = None
        if args.metis:
            partitioner = MetisPartitioner()
        elif args.lambda1 is not None or args.lambda2 is not None:
            partitioner = GraphPartitioner(
                PartitionWeights(
                    lambda1=args.lambda1 if args.lambda1 is not None else 1.0,
                    lambda2=args.lambda2 if args.lambda2 is not None else 1.0,
                )
            )
        miner = PartMiner(
            k=args.k,
            partitioner=partitioner,
            unit_support=args.unit_support,
            max_size=args.max_size,
            runtime=runtime_config if args.parallel else None,
            run_dir=args.run_dir,
        )
        with _tracing(args.trace) as trace:
            result = miner.mine(database, args.support)
        patterns, telemetry = result.patterns, result.telemetry
        timing = (
            f"aggregate {result.aggregate_time:.2f}s, "
            f"parallel {result.parallel_time:.2f}s"
        )
    else:
        if args.algorithm == "gspan":
            from .mining.gspan import GSpanMiner

            miner = GSpanMiner(max_size=args.max_size)
        elif args.algorithm == "gaston":
            from .mining.gaston import GastonMiner

            miner = GastonMiner(max_size=args.max_size)
        elif args.algorithm == "adimine":
            from .mining.adi.adimine import ADIMiner

            miner = ADIMiner(max_size=args.max_size)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(args.algorithm)
        start = time.perf_counter()
        try:
            patterns = miner.mine(database, args.support)
        finally:
            # ADIMINE owns a paged temp file; the in-memory miners
            # have nothing to release.
            close = getattr(miner, "close", None)
            if close is not None:
                close()
        timing = f"{time.perf_counter() - start:.2f}s"
    if telemetry is not None:
        if trace:
            telemetry.trace = trace
        print(f"runtime: {telemetry.format_summary()}")
        if args.telemetry:
            telemetry.save(args.telemetry)
            print(f"telemetry saved to {args.telemetry}")
    if args.metrics:
        from .obs import metrics as obs_metrics
        from .resilience import integrity

        integrity.atomic_write_json(
            args.metrics, obs_metrics.registry().snapshot()
        )
        print(f"metrics snapshot saved to {args.metrics}")
    print(f"{len(patterns)} frequent patterns ({timing})")
    if args.output:
        from .mining.store import save_patterns

        save_patterns(
            patterns,
            args.output,
            meta={
                "database": args.database,
                "support": args.support,
                "algorithm": args.algorithm,
                "backend": args.backend,
            },
            atomic=True,
        )
        print(f"saved to {args.output}")
    else:
        _print_top(patterns, args.top)
    if storage is not None:
        # The out-of-core read pattern of this run: every miss decoded
        # one row, so misses / graphs is the number of passes made.
        cache = storage.stats()["cache"]
        print(
            f"storage: {cache['hits'] + cache['misses']} graph reads, "
            f"cache {cache['hits']} hits / {cache['misses']} misses, "
            f"decode cache {cache['entries']}/{cache['capacity']} graphs"
        )
    return 0


def _print_top(patterns, top: int) -> None:
    """The ``top`` largest (then best-supported) patterns, one a line."""
    from .graph.canonical import min_dfs_code

    for pattern in sorted(
        patterns, key=lambda p: (-p.size, -p.support)
    )[:top]:
        print(
            f"  support={pattern.support:4d} size={pattern.size} "
            f"{min_dfs_code(pattern.graph)}"
        )


def _parse_labels(text: str | None):
    """Comma-separated label list; ints when they look like ints."""
    if text is None:
        return None
    labels = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            labels.append(int(token))
        except ValueError:
            labels.append(token)
    return frozenset(labels) if labels else None


def _load_single_graph(args: argparse.Namespace, database):
    """The one graph of a single-graph ``.tve`` file (or its store)."""
    gids = database.gids()
    if len(gids) != 1:
        print(
            f"repro: {args.database} holds {len(gids)} graphs; "
            "mine-big/neighborhoods expect a single large graph",
            file=sys.stderr,
        )
        return None
    return database[gids[0]]


def cmd_generate_big(args: argparse.Namespace) -> int:
    """Grow a single large graph with planted frequent neighborhoods."""
    from .datagen.large_graph import LargeGraphSpec, generate_large_graph

    spec = LargeGraphSpec(
        vertices=args.vertices,
        edges_per_vertex=args.edges_per_vertex,
        num_labels=args.labels,
        communities=args.communities,
        mixing=args.mixing,
        planted=args.planted,
        copies=args.copies,
        planted_size=args.planted_size,
        seed=args.seed,
    )
    result = generate_large_graph(spec)
    with open(args.output, "w", encoding="utf-8") as out:
        graph_io.write_graph(result.graph, 0, out)
    print(
        f"wrote large graph ({result.graph.num_vertices} vertices, "
        f"{result.graph.num_edges} edges, {args.planted} planted "
        f"patterns x {args.copies} copies) to {args.output}"
    )
    if args.planted_out:
        with open(args.planted_out, "w", encoding="utf-8") as out:
            for index, planted in enumerate(result.planted):
                graph_io.write_graph(planted.graph, index, out)
        print(
            f"wrote {len(result.planted)} planted patterns to "
            f"{args.planted_out}"
        )
    return 0


def cmd_mine_big(args: argparse.Namespace) -> int:
    """Mine one large graph by pattern growth under MNI support."""
    if not _check_storage_flags(args):
        return 2
    database, storage = _storage_database(args)
    graph = _load_single_graph(args, database)
    if graph is None:
        return 2
    from .biggraph import BigGraphMiner

    miner = BigGraphMiner(
        radius=args.radius,
        support_mode=args.support_mode,
        pivot_labels=_parse_labels(args.pivot_labels),
        max_size=args.max_size,
    )
    with _tracing(args.trace):
        result = miner.mine(graph, args.support)
    print(
        f"grew {result.candidates} candidates over {result.pivots} "
        f"radius-{args.radius} pivots -> {len(result.patterns)} "
        f"frequent patterns under {args.support_mode} support "
        f"({result.mine_time:.2f}s)"
    )
    if args.support_mode == "mni":
        print(
            f"{result.lower_bound_patterns} of {len(result.patterns)} "
            f"patterns exceed radius {args.radius}: support is a lower "
            "bound"
        )
    if args.output:
        from .mining.store import save_patterns

        save_patterns(
            result.patterns,
            args.output,
            meta={"database": args.database, **result.meta()},
            atomic=True,
        )
        print(f"saved to {args.output}")
    else:
        _print_top(result.patterns, args.top)
    exit_code = 0
    if args.check_planted:
        from .graph.canonical import canonical_code

        planted = _load_database(args, path=args.check_planted)
        found = sum(
            canonical_code(pattern_graph) in result.patterns
            for _gid, pattern_graph in planted
        )
        print(f"planted recall: {found}/{len(planted)}")
        exit_code = int(found != len(planted))
    if storage is not None:
        storage.close()
    return exit_code


def cmd_neighborhoods(args: argparse.Namespace) -> int:
    """Inspect (or export) the r-neighborhood decomposition."""
    graph = _load_single_graph(args, _load_database(args))
    if graph is None:
        return 2
    from .biggraph import NeighborhoodExtractor

    extractor = NeighborhoodExtractor(
        radius=args.radius,
        pivot_labels=_parse_labels(args.pivot_labels),
    )
    database = extractor.extract(graph)
    stats = extractor.stats(database)
    print(
        f"{stats.pivots} neighborhoods at radius {args.radius}: "
        f"avg {stats.avg_vertices:.1f} vertices / "
        f"{stats.avg_edges:.1f} edges, "
        f"max {stats.max_vertices} vertices / {stats.max_edges} edges"
    )
    largest = sorted(
        database, key=lambda item: (-item[1].num_edges, item[0])
    )[: args.top]
    for pivot, unit in largest:
        print(
            f"  pivot {pivot}: {unit.num_vertices} vertices, "
            f"{unit.num_edges} edges"
        )
    if args.output:
        graph_io.write_database(database, args.output)
        print(f"wrote neighborhood database to {args.output}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    """Split a database into k units and report cut statistics."""
    from .partition.dbpartition import db_partition
    from .updates.tracker import hot_vertex_assignment

    database = _load_database(args)
    ufreq = None
    if args.hot_fraction:
        ufreq = hot_vertex_assignment(
            database, hot_fraction=args.hot_fraction, seed=args.seed
        )
    tree = db_partition(database, args.k, ufreq=ufreq)
    print(f"partitioned {len(database)} graphs into {args.k} units")
    print(f"total connective edges: {tree.total_connective_edges()}")
    for i, unit in enumerate(tree.units()):
        print(
            f"  unit {i}: depth={unit.depth} "
            f"edges={unit.database.total_edges()} "
            f"vertices={unit.database.total_vertices()}"
        )
        if args.output_prefix:
            path = f"{args.output_prefix}{i}.tve"
            graph_io.write_database(unit.database, path)
            print(f"    -> {path}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Apply a random update batch and write the result."""
    from .updates.generator import UpdateGenerator
    from .updates.model import apply_updates
    from .updates.tracker import hot_vertex_assignment

    database = _load_database(args)
    ufreq = hot_vertex_assignment(
        database, hot_fraction=args.hot_fraction, seed=args.seed
    )
    generator = UpdateGenerator(
        num_vertex_labels=args.labels,
        num_edge_labels=args.labels,
        seed=args.seed,
    )
    updates = generator.generate(
        database, ufreq, args.fraction, args.ops, args.kind
    )
    apply_updates(database, updates)
    graph_io.write_database(database, args.output)
    print(
        f"applied {len(updates)} {args.kind} updates to "
        f"{round(args.fraction * 100)}% of graphs; wrote {args.output}"
    )
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Export a database graph or a pattern file as Graphviz DOT."""
    from .graph.dot import graph_to_dot, patterns_to_dot
    from .mining.store import read_patterns

    if args.patterns:
        patterns, _ = read_patterns(args.input)
        print(patterns_to_dot(patterns, max_patterns=args.top))
    else:
        database = _load_database(args, path=args.input)
        gid = args.gid if args.gid is not None else database.gids()[0]
        print(graph_to_dot(database[gid], name=f"g{gid}"))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Relocate stored patterns over a database (the memory or sqlite
    backend) through :func:`repro.query.match_patterns`."""
    from .graph.canonical import min_dfs_code
    from .mining.store import read_patterns, save_patterns
    from .query import match_patterns

    if not _check_storage_flags(args):
        return 2
    database, _storage = _storage_database(args)
    patterns, _ = read_patterns(args.patterns)
    start = time.perf_counter()
    relocated = match_patterns(
        patterns,
        database,
        induced=args.induced,
        min_support=args.min_support,
    )
    elapsed = time.perf_counter() - start
    occurring = sum(1 for pattern in relocated if pattern.support)
    print(
        f"{occurring}/{len(patterns)} patterns occur in "
        f"{args.database} ({elapsed:.2f}s)"
    )
    covered = set().union(*(pattern.tids for pattern in relocated))
    fraction = len(covered) / len(database) if len(database) else 0.0
    print(f"coverage: {fraction:.1%} of graphs ({len(covered)})")
    for pattern in sorted(
        relocated, key=lambda p: (-p.support, -p.size)
    )[: args.top]:
        print(
            f"  support={pattern.support:4d} size={pattern.size} "
            f"{min_dfs_code(pattern.graph)}"
        )
    if args.output:
        save_patterns(
            relocated, args.output,
            meta={"database": args.database, "relocated_from": args.patterns},
            atomic=True,
        )
        print(f"saved to {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Publish (optionally) and serve a pattern catalog over HTTP."""
    from .mining.store import read_patterns
    from .serve import PatternCatalog, PatternService

    if not _check_storage_flags(args):
        return 2
    database, _storage = _storage_database(args)
    catalog = PatternCatalog(args.catalog)
    if args.patterns:
        patterns, meta = read_patterns(args.patterns)
        snapshot = catalog.publish(patterns, meta=meta, database=database)
        print(
            f"published snapshot v{snapshot.version} "
            f"({len(snapshot)} patterns) to {args.catalog}"
        )
    if catalog.current_version() is None:
        print(
            f"catalog {args.catalog} is empty; publish with --patterns",
            file=sys.stderr,
        )
        return 1
    service = PatternService(
        catalog,
        database,
        host=args.host,
        port=args.port,
        workers=args.workers,
        reload_interval=args.reload_interval,
    )
    service.start()
    import signal

    try:
        # Process managers (and CI) stop daemons with SIGTERM; give it the
        # same graceful-shutdown path as Ctrl-C before announcing the
        # service, so a client that stops it on that line shuts it down.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(
            f"serving catalog v{service.engine.snapshot.version} "
            f"({len(service.engine.snapshot.entries)} patterns, "
            f"{len(database)} graphs) on {service.base_url}"
        )
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        service.close()
        if args.telemetry:
            from .runtime.telemetry import RunTelemetry

            telemetry = RunTelemetry(config={"command": "serve"})
            service.attach_telemetry(telemetry)
            telemetry.save(args.telemetry)
            print(f"serving telemetry saved to {args.telemetry}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a trace file written by ``mine`` / ``mine-big --trace``."""
    from .obs import summarize_file

    print(summarize_file(args.file))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print database statistics."""
    database = _load_database(args)
    vertex_support = database.vertex_label_support()
    edge_support = database.edge_triple_support()
    print(f"graphs:          {len(database)}")
    print(f"total vertices:  {database.total_vertices()}")
    print(f"total edges:     {database.total_edges()}")
    print(f"avg graph size:  {database.average_size():.2f} edges")
    print(f"vertex labels:   {len(vertex_support)}")
    print(f"edge triples:    {len(edge_support)}")
    top = sorted(edge_support.items(), key=lambda kv: -kv[1])[:5]
    print("most frequent 1-edge patterns:")
    for (lu, le, lv), support in top:
        print(f"  ({lu})-[{le}]-({lv}): {support} graphs")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PartMiner: partition-based graph mining (ICDE 2006)",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--no-accel", action="store_true",
        help="count support with the reference matcher instead of the "
             "acceleration layer (flat-array kernel, support cache, "
             "join-bound pruning); equivalent "
             "to setting REPRO_NO_ACCEL=1",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a graph database")
    p.add_argument("spec", help="dataset name, e.g. D200T12N20L40I5")
    p.add_argument("output", help="output .tve file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "generate-big",
        help="grow one large graph with planted neighborhoods",
    )
    p.add_argument("output", help="output .tve file (single graph)")
    p.add_argument("--vertices", type=_vertex_count, default=2000,
                   help="preferential-attachment core size")
    p.add_argument("--edges-per-vertex", type=_positive_int, default=2,
                   help="attachment edges per new core vertex")
    p.add_argument("--labels", type=_positive_int, default=8,
                   help="background label domain size (planted patterns "
                        "use reserved labels above this)")
    p.add_argument("--communities", type=_positive_int, default=4,
                   help="labeled community blocks in the core")
    p.add_argument("--mixing", type=_fraction, default=0.1,
                   help="probability a core vertex labels uniformly "
                        "instead of from its community slice")
    p.add_argument("--planted", type=_non_negative_int, default=2,
                   help="distinct planted patterns")
    p.add_argument("--copies", type=_non_negative_int, default=20,
                   help="disjoint copies per planted pattern "
                        "(= its exact MNI support)")
    p.add_argument("--planted-size", type=_positive_int, default=3,
                   help="edges per planted star pattern")
    p.add_argument("--planted-out", default=None,
                   help="also write the planted patterns to this .tve "
                        "(one graph per pattern; feeds mine-big "
                        "--check-planted)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_big)

    p = sub.add_parser("mine", help="mine frequent subgraphs")
    p.add_argument("database", help="input .tve file")
    p.add_argument("support", type=_support,
                   help="min support: fraction (<1) or absolute count")
    p.add_argument(
        "--algorithm",
        choices=["partminer", "gspan", "gaston", "adimine"],
        default="partminer",
    )
    p.add_argument("-k", type=_positive_int, default=2,
                   help="number of units")
    p.add_argument("--unit-support", type=_unit_support, default="paper",
                   help="'paper', 'exact' or an absolute count")
    p.add_argument("--lambda1", type=_weight, default=None,
                   help="weight of update-frequency term (GraphPart)")
    p.add_argument("--lambda2", type=_weight, default=None,
                   help="weight of connectivity term (GraphPart)")
    p.add_argument("--metis", action="store_true",
                   help="use the METIS-like partitioner")
    p.add_argument("--max-size", type=_positive_int, default=None,
                   help="bound on pattern size in edges")
    p.add_argument("--output", help="save patterns to this file")
    p.add_argument("--top", type=_non_negative_int, default=10,
                   help="patterns to print when not saving")
    p.add_argument("--parallel", action="store_true",
                   help="mine units through the fault-tolerant parallel "
                        "runtime (partminer only)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes alive at once under --parallel "
                        "(default: CPU count)")
    p.add_argument("--unit-timeout", type=_positive_seconds, default=None,
                   help="per-attempt wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=None,
                   help="retries per unit before serial fallback "
                        "(default 2)")
    p.add_argument("--run-dir", default=None,
                   help="checkpoint directory; re-running with the same "
                        "directory resumes, skipping finished units")
    p.add_argument("--telemetry", default=None,
                   help="also write runtime telemetry JSON here")
    p.add_argument("--trace", default=None,
                   help="write a JSONL span trace of the run here "
                        "(partminer only; render with `repro trace "
                        "summarize`)")
    p.add_argument("--metrics", default=None,
                   help="write a JSON snapshot of the metrics registry "
                        "here after mining")
    _add_storage_flags(p)
    _add_parse_policy(p)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser(
        "mine-big",
        help="mine one large graph (pattern growth, MNI support)",
    )
    p.add_argument("database", help="single-graph .tve file")
    p.add_argument("support", type=_positive_int,
                   help="min support: absolute count (MNI or "
                        "neighborhood count, per --support-mode)")
    p.add_argument("--radius", type=_non_negative_int, default=1,
                   help="neighborhood radius r; MNI counts are exact "
                        "for patterns of radius <= r")
    p.add_argument("--support-mode", choices=["mni", "neighborhood"],
                   default="mni",
                   help="'mni' = minimum-image support over the whole "
                        "graph (default); 'neighborhood' = number of "
                        "pivots whose r-neighborhood contains the "
                        "pattern")
    p.add_argument("--pivot-labels", default=None,
                   help="comma-separated vertex labels to pivot on "
                        "(default: every vertex); restricting pivots "
                        "switches to pivot-anchored semantics")
    p.add_argument("-k", type=int,
                   help="ignored: patterns grow on the graph, no units")
    p.add_argument("--max-size", type=_positive_int, default=None,
                   help="bound on pattern size in edges")
    p.add_argument("--trace", default=None,
                   help="write a JSONL span trace of the run here "
                        "(render with `repro trace summarize`)")
    p.add_argument("--output", help="save patterns to this file")
    p.add_argument("--top", type=_non_negative_int, default=10,
                   help="patterns to print when not saving")
    p.add_argument("--check-planted", default=None,
                   help="planted-pattern .tve (from generate-big "
                        "--planted-out); prints recall and exits 1 "
                        "unless every planted pattern was recovered")
    _add_storage_flags(p)
    _add_parse_policy(p)
    p.set_defaults(func=cmd_mine_big)

    p = sub.add_parser(
        "neighborhoods",
        help="inspect the r-neighborhood decomposition of a graph",
    )
    p.add_argument("database", help="single-graph .tve file")
    p.add_argument("--radius", type=_non_negative_int, default=1)
    p.add_argument("--pivot-labels", default=None,
                   help="comma-separated vertex labels to pivot on")
    p.add_argument("--top", type=_non_negative_int, default=5,
                   help="largest neighborhoods to list")
    p.add_argument("--output", default=None,
                   help="write the neighborhood database to this .tve")
    _add_parse_policy(p)
    p.set_defaults(func=cmd_neighborhoods)

    p = sub.add_parser("partition", help="split a database into units")
    p.add_argument("database")
    p.add_argument("-k", type=_positive_int, default=2)
    p.add_argument("--hot-fraction", type=_fraction, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix",
                   help="write each unit to PREFIX<i>.tve")
    _add_parse_policy(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("update", help="apply a random update batch")
    p.add_argument("database")
    p.add_argument("output")
    p.add_argument("--fraction", type=_fraction, default=0.2,
                   help="fraction of graphs to update")
    p.add_argument("--ops", type=_positive_int, default=1,
                   help="updates per graph")
    p.add_argument("--kind", choices=list(UPDATE_KINDS), default="mixed")
    p.add_argument("--labels", type=_positive_int, default=20,
                   help="label domain size for new labels")
    p.add_argument("--hot-fraction", type=_fraction, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    _add_parse_policy(p)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("show", help="export as Graphviz DOT")
    p.add_argument("input", help=".tve database or pattern file")
    p.add_argument("--patterns", action="store_true",
                   help="input is a pattern file")
    p.add_argument("--gid", type=int, default=None,
                   help="graph id to show (databases)")
    p.add_argument("--top", type=_non_negative_int, default=20,
                   help="max patterns to include")
    _add_parse_policy(p)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser(
        "query",
        help="relocate stored patterns over a database",
    )
    p.add_argument("patterns", help="pattern file (from `mine --output`)")
    p.add_argument("database", help=".tve database to query")
    p.add_argument("--induced", action="store_true",
                   help="use induced-subgraph semantics")
    p.add_argument("--min-support", type=_support, default=None)
    p.add_argument("--top", type=_non_negative_int, default=10)
    p.add_argument("--output", help="save relocated patterns here")
    _add_storage_flags(p)
    _add_parse_policy(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "serve", help="serve a pattern catalog over HTTP"
    )
    p.add_argument("catalog", help="catalog directory (created on publish)")
    p.add_argument("database", help=".tve database to answer queries over")
    p.add_argument("--patterns", default=None,
                   help="publish this pattern file into the catalog "
                        "before serving")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8765)
    p.add_argument("--workers", type=_positive_int, default=4,
                   help="bounded query worker pool size")
    p.add_argument("--reload-interval", type=_positive_seconds, default=None,
                   help="poll the catalog manifest every N seconds and "
                        "hot-reload new snapshots")
    p.add_argument("--telemetry", default=None,
                   help="write a serving telemetry JSON on shutdown")
    _add_storage_flags(p)
    _add_parse_policy(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace", help="inspect observability trace files"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "summarize", help="render a trace file as a phase-time tree"
    )
    p.add_argument("file", help="JSONL trace from `mine`/`mine-big --trace`")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("stats", help="database statistics")
    p.add_argument("database")
    _add_parse_policy(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.no_accel:
        from . import perf

        # The variable carries the setting to spawned worker processes,
        # which import repro.perf afresh.
        os.environ["REPRO_NO_ACCEL"] = "1"
        perf.set_enabled(False)
    # A batch mine allocates millions of containers and leaves no reference
    # cycles, so automatic cyclic collection only rescans live objects; the
    # CLI owns the process and pauses it for those commands.  A long-lived
    # `serve` keeps collecting.
    paused = args.command in ("mine", "mine-big") and gc.isenabled()
    if paused:
        gc.disable()
    try:
        faults.fire(SITE_RUN, command=args.command)
        return args.func(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exiting quietly is the Unix way.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ArtifactCorrupt as exc:
        where = f" (quarantined to {exc.quarantined})" if exc.quarantined else ""
        print(f"repro: corrupt artifact: {exc}{where}", file=sys.stderr)
        return exit_code_for(exc)
    except ArtifactRetired as exc:
        print(f"repro: retired artifact: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except graph_io.GraphParseError as exc:
        print(f"repro: parse error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except _InputUnreadable as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"repro: budget exceeded: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
