"""Stateful exactness of IncPartMiner: any update sequence, checked each batch.

A hypothesis state machine queues arbitrary interleavings of the paper's
update operations (relabel vertex / relabel edge / add edge / add vertex)
into batches — empty batches, batches that touch one graph many times,
batches that touch every graph and so every unit — and flushes them through
two :class:`IncrementalPartMiner` sessions over the same database.  After
every batch:

* the session mining its units at support 1 (``unit_support='exact'``) must
  equal Gaston on the current database — keys, supports and TID lists — and
  UF / FI / IF must partition the old and new results (where the static
  merge-join itself cannot reach a pattern — ROADMAP's static-exactness
  item — the session may miss exactly what a from-scratch run misses);
* the session at the paper's reduced unit threshold must report, for every
  pattern, exactly the support a whole-database recount finds, and must
  contain everything a from-scratch :class:`PartMiner` over the same
  database and update frequencies finds.

And after every batch each session's kept partition tree is the tree a
fresh :func:`db_partition` of its current database under its maintained
update frequencies builds.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.incremental import IncrementalPartMiner
from repro.core.partminer import PartMiner
from repro.mining.gaston import GastonMiner
from repro.partition.dbpartition import db_partition
from repro.query import match_patterns
from repro.updates.model import (
    AddEdge,
    AddVertex,
    RelabelEdge,
    RelabelVertex,
    apply_update,
)

from .test_incremental import tree_state
from .test_properties import databases

VLABELS = st.integers(0, 3)
ELABELS = st.integers(0, 1)
MAX_SIZE = 4


def pattern_map(patterns):
    return {p.key: (p.support, p.tids) for p in patterns}


class IncrementalMachine(RuleBasedStateMachine):
    @initialize(
        db=databases(max_graphs=7, max_vertices=5),
        k=st.sampled_from([2, 3, 4]),
        support=st.integers(2, 3),
    )
    def mine(self, db, k, support):
        self.k, self.support = k, support
        self.exact = IncrementalPartMiner(
            k=k, unit_support="exact", max_size=MAX_SIZE
        )
        self.paper = IncrementalPartMiner(k=k, max_size=MAX_SIZE)
        self.exact.initial_mine(db, support)
        self.paper.initial_mine(db, support)
        # What the database looks like with the queued batch applied:
        # updates are drawn against it so every queued update is valid.
        self.shadow = db.copy(deep=True)
        self.batch = []

    def queue(self, update):
        apply_update(self.shadow, update)
        self.batch.append(update)

    def draw_graph(self, data):
        gid = data.draw(st.sampled_from(self.shadow.gids()))
        return gid, self.shadow[gid]

    # ---- rules: grow the pending batch --------------------------------
    @rule(data=st.data(), label=VLABELS)
    def relabel_vertex(self, data, label):
        gid, graph = self.draw_graph(data)
        vertex = data.draw(st.integers(0, graph.num_vertices - 1))
        self.queue(RelabelVertex(gid, vertex, label))

    @rule(data=st.data(), label=ELABELS)
    def relabel_edge(self, data, label):
        gid, graph = self.draw_graph(data)
        u, v, _ = data.draw(st.sampled_from(sorted(graph.edges())))
        self.queue(RelabelEdge(gid, u, v, label))

    @rule(data=st.data(), label=ELABELS)
    def add_edge(self, data, label):
        gid, graph = self.draw_graph(data)
        free = [
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        ]
        if free:
            u, v = data.draw(st.sampled_from(free))
            self.queue(AddEdge(gid, u, v, label))

    @rule(data=st.data(), vlabel=VLABELS, elabel=ELABELS)
    def add_vertex(self, data, vlabel, elabel):
        gid, graph = self.draw_graph(data)
        anchor = data.draw(st.integers(0, graph.num_vertices - 1))
        self.queue(AddVertex(gid, vlabel, anchor, elabel))

    @rule(label=VLABELS)
    def relabel_in_every_graph(self, label):
        """One update per graph: every unit sees a changed piece."""
        for gid in self.shadow.gids():
            self.queue(RelabelVertex(gid, 0, label))

    # ---- the rule under test ------------------------------------------
    @rule()
    def flush(self):
        batch, self.batch = self.batch, []
        self.check_exact(batch)
        self.check_paper(batch)

    def check_exact(self, batch):
        old = self.exact.current_patterns.keys()
        result = self.exact.apply_updates(batch)
        database = self.exact.database
        truth = pattern_map(
            GastonMiner(max_size=MAX_SIZE).mine(database, self.support)
        )
        got = pattern_map(self.exact.current_patterns)
        if got != truth:
            # Nothing wrong or invented — and nothing missing that a
            # from-scratch exact PartMiner on this database would find.
            assert got.items() <= truth.items()
            scratch = PartMiner(
                k=self.k, unit_support="exact", max_size=MAX_SIZE
            ).mine(
                database.copy(deep=True), self.support,
                ufreq=self.exact.ufreq,
            )
            assert got.keys() >= scratch.patterns.keys()
        new = result.patterns.keys()
        assert result.unchanged.keys() == old & new
        assert result.became_frequent.keys() == new - old
        assert result.became_infrequent.keys() == old - new

    def check_paper(self, batch):
        self.paper.apply_updates(batch)
        database = self.paper.database
        got = self.paper.current_patterns
        assert pattern_map(got) == pattern_map(match_patterns(got, database))
        scratch = PartMiner(k=self.k, max_size=MAX_SIZE).mine(
            database.copy(deep=True), self.support, ufreq=self.paper.ufreq
        )
        assert got.keys() >= scratch.patterns.keys()

    # ---- invariants ----------------------------------------------------
    @precondition(lambda self: not self.batch)
    @invariant()
    def databases_follow_the_updates(self):
        for miner in (self.exact, self.paper):
            assert miner.database.gids() == self.shadow.gids()
            for gid, graph in miner.database:
                want = self.shadow[gid]
                assert graph.vertex_labels() == want.vertex_labels()
                assert sorted(graph.edges()) == sorted(want.edges())

    @precondition(lambda self: not self.batch)
    @invariant()
    def kept_tree_is_a_fresh_partition(self):
        for miner in (self.exact, self.paper):
            fresh = db_partition(miner.database, self.k, ufreq=miner.ufreq)
            assert tree_state(miner._result.tree) == tree_state(fresh)


IncrementalMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None
)
TestIncrementalMachine = IncrementalMachine.TestCase
