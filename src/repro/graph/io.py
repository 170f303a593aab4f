"""Text serialization of graphs and graph databases.

Uses the line-based format shared by gSpan/Gaston/FSG tooling::

    t # <gid>
    v <vertex-id> <label>
    e <u> <v> <label>

Labels round-trip as ints when they look like ints, as strings otherwise.

Parsing is **strict**: every malformed line raises a structured
:class:`GraphParseError` carrying file/line/token provenance.  Because a
single poisoned graph should not abort a million-graph load, the readers
take an ``on_error`` policy:

``"raise"``
    (default) fail fast on the first malformed line;
``"skip"``
    drop the graph the bad line belongs to, keep parsing the rest, and
    count what was dropped in the :class:`ParseReport`;
``"collect"``
    like ``skip`` but the report keeps every :class:`GraphParseError`
    for a per-line diagnosis.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from .database import GraphDatabase
from .labeled_graph import Label, LabeledGraph

ON_ERROR_POLICIES = ("raise", "skip", "collect")


class GraphParseError(ValueError):
    """A malformed ``t/v/e`` record, with full provenance.

    Attributes: ``source`` (file name or ``"<stream>"``), ``line``
    (1-based), ``token`` (the offending token, when one is isolable),
    ``gid`` (the graph being parsed, when known).
    """

    def __init__(
        self,
        message: str,
        *,
        source: str | None = None,
        line: int | None = None,
        token: str | None = None,
        gid: int | None = None,
    ) -> None:
        where = f"{source or '<stream>'}:{line if line is not None else '?'}"
        detail = f"{where}: {message}"
        if token is not None:
            detail += f" (token {token!r})"
        if gid is not None:
            detail += f" [graph {gid}]"
        super().__init__(detail)
        self.source = source
        self.line = line
        self.token = token
        self.gid = gid


@dataclass
class ParseReport:
    """What a lenient (``skip``/``collect``) parse left behind."""

    graphs_ok: int = 0
    graphs_skipped: int = 0
    lines: int = 0
    errors: list[GraphParseError] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.graphs_skipped == 0 and not self.errors

    def summary(self) -> str:
        """One line for CLI diagnostics."""
        if self.clean:
            return f"{self.graphs_ok} graphs parsed cleanly"
        detail = (
            f"{self.graphs_ok} graphs parsed, "
            f"{self.graphs_skipped} skipped"
        )
        if self.errors:
            detail += f" ({len(self.errors)} parse errors recorded)"
        return detail


class _Labels(dict):
    """Label token -> label, each distinct token parsed once: ints when
    ``int()`` reads them, the token itself otherwise."""

    def __missing__(self, token: str) -> Label:
        try:
            label = int(token)
        except ValueError:
            label = token
        self[token] = label
        return label


def _check_label(label: Label) -> Label:
    """The line-based format cannot carry labels with whitespace."""
    if isinstance(label, str) and (not label or any(c.isspace() for c in label)):
        raise ValueError(
            f"label {label!r} cannot be written in t/v/e format "
            "(empty or contains whitespace); use repro.mining.store "
            "for arbitrary labels"
        )
    return label


def write_graph(graph: LabeledGraph, gid: int, out: IO[str]) -> None:
    """Write one graph in ``t/v/e`` format to a text stream.

    Raises :class:`ValueError` for labels the format cannot represent
    (empty strings or strings containing whitespace).
    """
    out.write(f"t # {gid}\n")
    for v in graph.vertices():
        out.write(f"v {v} {_check_label(graph.vertex_label(v))}\n")
    for u, v, label in graph.edges():
        out.write(f"e {u} {v} {_check_label(label)}\n")


def write_database(database: GraphDatabase, path: str | Path) -> None:
    """Write a whole database to ``path`` in ``t/v/e`` format."""
    with open(path, "w", encoding="utf-8") as out:
        for gid, graph in database:
            write_graph(graph, gid, out)


def dumps(database: GraphDatabase) -> str:
    """Serialize a database to a ``t/v/e`` string."""
    buffer = io.StringIO()
    for gid, graph in database:
        write_graph(graph, gid, buffer)
    return buffer.getvalue()


def _sealed(graph: LabeledGraph, edges: int) -> LabeledGraph:
    """``graph``, whose rows were filled directly, with the edge count and
    ``version`` (``n + m``) its ``add_vertex`` / ``add_edge`` calls would
    have left."""
    graph._num_edges = edges
    graph.version = graph.num_vertices + edges
    return graph


def iter_graphs(
    lines: Iterable[str],
    *,
    on_error: str = "raise",
    source: str | None = None,
    report: ParseReport | None = None,
) -> Iterator[tuple[int, LabeledGraph]]:
    """Parse ``t/v/e`` lines into ``(gid, graph)`` pairs.

    ``on_error`` is one of ``"raise"`` / ``"skip"`` / ``"collect"`` (see
    module docs); lenient modes record what they dropped into
    ``report``.  Raises :class:`GraphParseError` on malformed records
    under the default policy.

    One pass, records handled inline: each graph's rows are filled in
    file order (the adjacency order and ``version`` counter that
    ``add_vertex`` / ``add_edge`` calls would leave), each distinct label
    token is parsed once, and ids are read by ``int()``.  A graph id
    already taken by an earlier ``t`` record is a parse error at the
    later one.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    if report is None:
        report = ParseReport()
    labels_of = _Labels()
    taken: set[int] = set()
    gid: int | None = None
    graph: LabeledGraph | None = None
    labels: list[Label] = []  # rows of ``graph`` while it is built
    adj: list[dict[int, Label]] = []
    edges = 0
    poisoned = False  # current graph had a bad record; swallow its rest
    line_number = report.lines
    for line_number, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        kind = parts[0]
        if poisoned and kind != "t":
            continue
        try:
            if kind == "e":
                if graph is None:
                    raise GraphParseError(
                        "edge before 't' record",
                        source=source, line=line_number,
                    )
                if len(parts) != 4:
                    raise GraphParseError(
                        f"'e' record needs 3 fields, got {len(parts) - 1}",
                        source=source, line=line_number, gid=gid,
                    )
                _, tu, tv, token = parts
                u = None
                try:
                    u = int(tu)
                    v = int(tv)
                except ValueError:
                    raise GraphParseError(
                        "edge endpoint is not an integer",
                        source=source, line=line_number,
                        token=tu if u is None else tv, gid=gid,
                    ) from None
                n = len(labels)
                if u == v:
                    problem = f"self-loop on vertex {u} is not allowed"
                elif not (0 <= u < n and 0 <= v < n):
                    problem = (
                        f"edge ({u}, {v}) references unknown vertex (n={n})"
                    )
                elif v in adj[u]:
                    problem = f"duplicate edge ({u}, {v})"
                else:
                    label = labels_of[token]
                    adj[u][v] = label
                    adj[v][u] = label
                    edges += 1
                    continue
                raise GraphParseError(
                    problem, source=source, line=line_number, gid=gid
                )
            if kind == "v":
                if graph is None:
                    raise GraphParseError(
                        "vertex before 't' record",
                        source=source, line=line_number,
                    )
                if len(parts) != 3:
                    raise GraphParseError(
                        f"'v' record needs 2 fields, got {len(parts) - 1}",
                        source=source, line=line_number, gid=gid,
                    )
                _, tid, token = parts
                try:
                    vid = int(tid)
                except ValueError:
                    raise GraphParseError(
                        "vertex id is not an integer",
                        source=source, line=line_number, token=tid, gid=gid,
                    ) from None
                if vid != len(labels):
                    raise GraphParseError(
                        f"vertex id {vid} out of order "
                        f"(expected {len(labels)})",
                        source=source, line=line_number, token=tid, gid=gid,
                    )
                labels.append(labels_of[token])
                adj.append({})
                continue
            if kind != "t":
                raise GraphParseError(
                    f"unknown directive {kind!r}",
                    source=source, line=line_number, token=kind, gid=gid,
                )
            if graph is not None:
                report.lines = line_number
                yield gid, _sealed(graph, edges)
                report.graphs_ok += 1
                graph = None
            if len(parts) < 2:
                raise GraphParseError(
                    "'t' record carries no graph id",
                    source=source, line=line_number,
                )
            try:
                gid = int(parts[-1])
            except ValueError:
                raise GraphParseError(
                    "graph id is not an integer",
                    source=source, line=line_number, token=parts[-1],
                ) from None
            if gid in taken:
                raise GraphParseError(
                    f"duplicate graph id {gid}",
                    source=source, line=line_number, token=parts[-1],
                )
            taken.add(gid)
            graph = LabeledGraph()
            labels, adj, edges = graph._vertex_labels, graph._adj, 0
            poisoned = False
        except GraphParseError as exc:
            report.lines = line_number
            if on_error == "raise":
                raise
            if on_error == "collect":
                report.errors.append(exc)
            # the error drops the graph under construction and, on a 't'
            # line, the graph that line would have started
            dropped = (graph is not None) + (kind == "t")
            if dropped:
                report.graphs_skipped += dropped
                poisoned = True
                graph = None
                gid = None
    report.lines = line_number
    if graph is not None and not poisoned:
        yield gid, _sealed(graph, edges)
        report.graphs_ok += 1


def read_database(
    path: str | Path,
    *,
    on_error: str = "raise",
    report: ParseReport | None = None,
) -> GraphDatabase:
    """Read a database from a ``t/v/e`` file.

    ``on_error``/``report`` follow :func:`iter_graphs`; pass a
    :class:`ParseReport` to learn what a lenient load skipped.
    """
    with open(path, "r", encoding="utf-8") as handle:
        return GraphDatabase(
            iter_graphs(
                handle,
                on_error=on_error,
                source=str(path),
                report=report,
            )
        )


def loads(text: str, *, on_error: str = "raise") -> GraphDatabase:
    """Parse a database from a ``t/v/e`` string."""
    return GraphDatabase(iter_graphs(text.splitlines(), on_error=on_error))
