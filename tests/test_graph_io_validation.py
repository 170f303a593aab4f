"""Tests for strict t/v/e validation and lenient parse policies."""

import pytest

from repro.graph import io as graph_io
from repro.graph.io import GraphParseError, ParseReport
from repro.graph.labeled_graph import LabeledGraph
from repro.resilience.faults import FaultPlan, InjectedFault

GOOD = """\
t # 0
v 0 1
v 1 2
e 0 1 5
t # 1
v 0 1
"""

# Graph 1 carries a malformed edge record; graphs 0 and 2 are fine.
POISONED = """\
t # 0
v 0 1
t # 1
v 0 1
v 1 2
e 0 1
t # 2
v 0 3
"""


class TestStrictParsing:
    def test_clean_input_parses(self):
        db = graph_io.loads(GOOD)
        assert len(db) == 2
        assert db[0].num_edges == 1

    def test_blank_lines_and_comments_ignored(self):
        db = graph_io.loads("# header\n\nt # 0\n\nv 0 1\n# done\n")
        assert len(db) == 1

    @pytest.mark.parametrize(
        "text, match",
        [
            ("v 0 1\n", "before 't'"),
            ("e 0 1 2\n", "before 't'"),
            ("t\n", "no graph id"),
            ("t #\n", "graph id is not an integer"),
            ("t # x\n", "graph id is not an integer"),
            ("t # 0\nv 0\n", "'v' record needs 2 fields"),
            ("t # 0\nv 0 1 extra\n", "'v' record needs 2 fields"),
            ("t # 0\nv 1 7\n", "out of order"),
            ("t # 0\nv zero 7\n", "vertex id is not an integer"),
            ("t # 0\nv 0 1\ne 0 1\n", "'e' record needs 3 fields"),
            ("t # 0\nv 0 1\ne 0 x 5\n", "endpoint is not an integer"),
            ("t # 0\nq 1 2\n", "unknown directive"),
        ],
    )
    def test_malformed_records_raise(self, text, match):
        with pytest.raises(GraphParseError, match=match):
            graph_io.loads(text)

    def test_error_provenance(self, tmp_path):
        path = tmp_path / "db.tve"
        path.write_text("t # 0\nv 0 1\nbad line here\n")
        with pytest.raises(GraphParseError) as excinfo:
            graph_io.read_database(path)
        err = excinfo.value
        assert err.source == str(path)
        assert err.line == 3
        assert err.token == "bad"
        assert err.gid == 0
        assert str(path) in str(err) and ":3:" in str(err)

    def test_parse_error_is_value_error(self):
        # Legacy callers catching ValueError keep working.
        with pytest.raises(ValueError):
            graph_io.loads("t # nope\n")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            graph_io.loads(GOOD, on_error="explode")


class TestLenientPolicies:
    def test_skip_drops_only_poisoned_graph(self):
        report = ParseReport()
        pairs = list(
            graph_io.iter_graphs(
                POISONED.splitlines(), on_error="skip", report=report
            )
        )
        assert [gid for gid, _ in pairs] == [0, 2]
        assert report.graphs_ok == 2
        assert report.graphs_skipped == 1
        assert report.errors == []  # skip counts, collect records
        assert not report.clean

    def test_collect_keeps_typed_errors(self):
        report = ParseReport()
        list(
            graph_io.iter_graphs(
                POISONED.splitlines(), on_error="collect", report=report
            )
        )
        assert len(report.errors) == 1
        assert isinstance(report.errors[0], GraphParseError)
        assert report.errors[0].line == 6

    def test_multiple_errors_in_one_graph_skip_once(self):
        text = "t # 0\nv 0 1\nbad\nworse\nt # 1\nv 0 1\n"
        report = ParseReport()
        pairs = list(
            graph_io.iter_graphs(
                text.splitlines(), on_error="skip", report=report
            )
        )
        assert [gid for gid, _ in pairs] == [1]
        assert report.graphs_skipped == 1

    def test_poisoned_tail_graph_not_yielded(self):
        text = "t # 0\nv 0 1\nt # 1\nv 0 1\nbad\n"
        pairs = list(
            graph_io.iter_graphs(text.splitlines(), on_error="skip")
        )
        assert [gid for gid, _ in pairs] == [0]

    def test_bad_t_line_poisons_following_records(self):
        text = "t # nope\nv 0 1\ne 0 0 1\nt # 5\nv 0 2\n"
        report = ParseReport()
        pairs = list(
            graph_io.iter_graphs(
                text.splitlines(), on_error="skip", report=report
            )
        )
        assert [gid for gid, _ in pairs] == [5]
        assert report.graphs_skipped == 1

    def test_read_database_skip_policy(self, tmp_path):
        path = tmp_path / "db.tve"
        path.write_text(POISONED)
        report = ParseReport()
        db = graph_io.read_database(path, on_error="skip", report=report)
        assert sorted(db.gids()) == [0, 2]
        assert report.graphs_skipped == 1

    def test_report_summary_wording(self):
        report = ParseReport(graphs_ok=3)
        assert "3 graphs parsed cleanly" in report.summary()
        report = ParseReport(graphs_ok=3, graphs_skipped=2)
        assert "2 skipped" in report.summary()
        assert "recorded" not in report.summary()


class TestRoundTrip:
    def test_write_then_strict_read(self, tmp_path):
        db = graph_io.loads(GOOD)
        path = tmp_path / "out.tve"
        graph_io.write_database(db, path)
        back = graph_io.read_database(path)
        assert len(back) == len(db)
        assert graph_io.dumps(back) == graph_io.dumps(db)


# Each row is one graph (gid 7) between two clean ones, its bad record (if
# any) last.  ``want`` is the exact error text, or the ``(labels, edges)``
# of the graph the row builds.
_HEAD = "t # 100\nv 0 1\nv 1 2\ne 0 1 3\n"
_TAIL = "t # 200\nv 0 4\nv 1 4\ne 1 0 4\n"
INLINE_ROWS = {
    "vid-superscript": ("t # 7\nv 0 1\nv ² 1\n",
                        "f.tve:7: vertex id is not an integer "
                        "(token '²') [graph 7]"),
    "endpoint-superscript": ("t # 7\nv 0 1\nv 1 2\ne 0 ² 5\n",
                             "f.tve:8: edge endpoint is not an integer "
                             "(token '²') [graph 7]"),
    "first-endpoint-bad": ("t # 7\nv 0 1\nv 1 2\ne ² x 5\n",
                           "f.tve:8: edge endpoint is not an integer "
                           "(token '²') [graph 7]"),
    "gid-superscript": ("t # ²\n",
                        "f.tve:5: graph id is not an integer (token '²')"),
    "plus-tokens": ("t # +7\nv +0 +1\nv 1 x\ne +1 +0 +5\n",
                    ([1, "x"], [(1, 0, 5)])),
    "underscore-endpoint": ("t # 7\nv 0 1\nv 1 1_0\ne 0 1_0 5\n",
                            "f.tve:8: edge (0, 10) references unknown "
                            "vertex (n=2) [graph 7]"),
    "underscore-label": ("t # 7\nv 0 1_0\nv 1 -1\ne 0 1 1_0\n",
                         ([10, -1], [(0, 1, 10)])),
    "negative-endpoint": ("t # 7\nv 0 1\nv 1 2\ne -1 0 5\n",
                          "f.tve:8: edge (-1, 0) references unknown "
                          "vertex (n=2) [graph 7]"),
    "out-of-order": ("t # 7\nv 0 1\nv 2 1\n",
                     "f.tve:7: vertex id 2 out of order (expected 1) "
                     "(token '2') [graph 7]"),
    "self-loop": ("t # 7\nv 0 1\ne 0 0 5\n",
                  "f.tve:7: self-loop on vertex 0 is not allowed [graph 7]"),
    "duplicate-edge": ("t # 7\nv 0 1\nv 1 2\ne 0 1 5\ne 1 0 6\n",
                       "f.tve:9: duplicate edge (1, 0) [graph 7]"),
    "out-of-range": ("t # 7\nv 0 1\nv 1 2\ne 0 2 5\n",
                     "f.tve:8: edge (0, 2) references unknown vertex (n=2) "
                     "[graph 7]"),
    "unknown-directive": ("t # 7\nv 0 1\nx 1\n",
                          "f.tve:7: unknown directive 'x' (token 'x') "
                          "[graph 7]"),
}


def _shape(graph):
    return (
        graph.vertex_labels(),
        [list(graph.adjacency(v).items()) for v in graph.vertices()],
        graph.num_edges,
        graph.version,
    )


class _RecordingPlan(FaultPlan):
    """An armed plan that notes each line the parse site fires on."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def fire(self, site, **context):
        if site == graph_io.SITE_PARSE:
            self.lines.append(context["line"])
        super().fire(site, **context)


def _parse(text, policy):
    """``(shapes by gid, raised text, report)`` of one parse."""
    report = ParseReport()
    shapes, raised = {}, None
    try:
        for gid, graph in graph_io.iter_graphs(
            text.splitlines(), on_error=policy, source="f.tve", report=report
        ):
            shapes[gid] = _shape(graph)
    except GraphParseError as exc:
        raised = str(exc)
    return shapes, raised, report


class TestInlineParse:
    """The one-pass parser keeps every check, message and graph shape."""

    @pytest.mark.parametrize("armed", [False, True], ids=["plain", "armed"])
    @pytest.mark.parametrize("policy", ["raise", "skip", "collect"])
    @pytest.mark.parametrize("row", list(INLINE_ROWS))
    def test_row(self, row, policy, armed):
        body, want = INLINE_ROWS[row]
        text = _HEAD + body + _TAIL
        plan = _RecordingPlan()
        if armed:
            with plan.active():
                shapes, raised, report = _parse(text, policy)
        else:
            shapes, raised, report = _parse(text, policy)
        build = LabeledGraph.from_vertices_and_edges  # add_* in file order
        clean = {
            100: _shape(build([1, 2], [(0, 1, 3)])),
            200: _shape(build([4, 4], [(1, 0, 4)])),
        }
        lines = text.count("\n")
        if isinstance(want, tuple):
            assert raised is None
            assert shapes == {**clean, 7: _shape(build(*want))}
            assert (report.graphs_ok, report.graphs_skipped) == (3, 0)
            fired = list(range(1, lines + 1))
        elif policy == "raise":
            assert raised == want
            assert shapes == {100: clean[100]}
            fired = list(range(1, report.lines + 1))
        else:
            assert (shapes, raised) == (clean, None)
            assert (report.graphs_ok, report.graphs_skipped) == (2, 1)
            errors = [str(e) for e in report.errors]
            assert errors == ([want] if policy == "collect" else [])
            fired = list(range(1, lines + 1))
        assert report.lines == (lines if raised is None else
                                int(want.split(":")[1]))
        assert plan.lines == (fired if armed else [])

    def test_labels_are_parsed_once_per_token(self):
        db = graph_io.loads("t # 0\nv 0 12345678901\nv 1 12345678901\n"
                            "e 0 1 12345678901\n")
        graph = db[0]
        assert graph.vertex_label(0) is graph.vertex_label(1)
        assert graph.edge_label(0, 1) is graph.vertex_label(0)

    def test_injected_fault_still_aborts_the_parse(self):
        plan = FaultPlan().inject(graph_io.SITE_PARSE, times=1)
        with plan.active(), pytest.raises(InjectedFault):
            graph_io.loads(GOOD)
        assert len(plan.fired) == 1


class TestDuplicateGraphId:
    TEXT = "t # 0\nv 0 1\nt # 1\nv 0 2\nt # 0\nv 0 3\nt # 2\nv 0 4\n"

    def test_raise_names_the_second_t_record(self, tmp_path):
        path = tmp_path / "db.tve"
        path.write_text(self.TEXT)
        with pytest.raises(GraphParseError) as excinfo:
            graph_io.read_database(path)
        err = excinfo.value
        assert (err.line, err.token, err.gid) == (5, "0", None)
        assert str(err) == f"{path}:5: duplicate graph id 0 (token '0')"

    @pytest.mark.parametrize("policy", ["skip", "collect"])
    def test_lenient_policies_keep_the_first_graph(self, tmp_path, policy):
        path = tmp_path / "db.tve"
        path.write_text(self.TEXT)
        report = ParseReport()
        db = graph_io.read_database(path, on_error=policy, report=report)
        assert db.gids() == [0, 1, 2]
        assert db[0].vertex_label(0) == 1
        assert (report.graphs_ok, report.graphs_skipped) == (3, 1)
        assert [e.line for e in report.errors] == (
            [5] if policy == "collect" else []
        )
