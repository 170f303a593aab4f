"""Set-up: inputs from the seed, and the oracles that judge the outputs.

Everything here runs before (or after) the timed interval, never inside it,
and its wall time is what ``setup_s`` reports.

**How the seed makes the inputs.**  The synthetic generator draws its
kernel pool — the L seed patterns every graph is glued from — from the same
random stream as the graphs, and that draw alone swings a D1000 run between
2.5 s and 5.7 s (347 to 529 patterns over six seeds, measured).  A
regression bound of 10 % means nothing across such inputs.  So the
generator runs at the fixed ``BASE_SEED`` and ``--seed`` then permutes, in
the ``t/v/e`` text, the order of the graphs and the names of the vertex and
edge labels.  Every seed is a different file with different label values
and the same amount of work (wall time moves by less than run-to-run
noise).  Vertex ids are left alone on purpose: renumbering them changes
what GraphPart cuts and moved wall time by 35 %.  What else a workload
draws — the update batches of ``inc-update``, the graphs ``query-mix`` asks
about — is drawn once on the base database and carried through the same
permutation, so every seed does the same logical job; only the oracle's
query sample is drawn from ``--seed`` directly.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from .spec import BASE_SEED, Workload


def _quiet_cli(argv: list[str]) -> None:
    """``repro.cli.main(argv)`` with its report lines swallowed."""
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")


def read_tve(path: Path) -> list[list[list[str]]]:
    """The graphs of a ``t/v/e`` file, each a list of split v/e lines."""
    graphs: list[list[list[str]]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "t":
                graphs.append([])
            else:
                graphs[-1].append(fields)
    return graphs


def write_tve(path: Path, graphs, vmap=None, emap=None) -> None:
    """Write graphs numbered from 0, labels sent through the maps."""
    with open(path, "w", encoding="utf-8") as out:
        for gid, records in enumerate(graphs):
            out.write(f"t # {gid}\n")
            for fields in records:
                label = fields[-1]
                if vmap is not None:
                    label = (vmap if fields[0] == "v" else emap)[label]
                out.write(" ".join(fields[:-1] + [label]) + "\n")


def permute_tve(paths: list[Path], seed: int, shuffle_graphs: bool) -> dict:
    """Rewrite ``t/v/e`` files in place as the seed's isomorphic copy.

    One vertex-label bijection and one edge-label bijection (each over the
    labels the files use) are applied to every file, so patterns mined
    from one stay meaningful in another; with ``shuffle_graphs`` each
    file's graphs are also reordered and renumbered from 0.  Returns the
    permutation: ``{"v": label map, "e": label map, "gids": [old -> new
    gid, one map per file]}``.
    """
    rng = random.Random(seed)
    parsed = [read_tve(path) for path in paths]

    def bijection(kind: str) -> dict[str, str]:
        labels = {
            fields[-1]
            for graphs in parsed for records in graphs for fields in records
            if fields[0] == kind
        }
        ordered = sorted(labels, key=lambda s: (len(s), s))
        image = ordered[:]
        rng.shuffle(image)
        return dict(zip(ordered, image))

    vmap, emap = bijection("v"), bijection("e")
    gid_maps = []
    for path, graphs in zip(paths, parsed):
        order = list(range(len(graphs)))
        if shuffle_graphs:
            rng.shuffle(order)
        write_tve(path, [graphs[old] for old in order], vmap, emap)
        gid_maps.append({old: new for new, old in enumerate(order)})
    return {"v": vmap, "e": emap, "gids": gid_maps}


def _generate(spec: str, path: Path) -> None:
    _quiet_cli(["generate", spec, str(path), "--seed", str(BASE_SEED)])


def mine_oracle(db_path: Path, support, out: Path) -> None:
    """Whole-database Gaston at the same absolute threshold -> records.

    ``inc-update`` calls it on the post-update database its first rep wrote.
    """
    from repro.graph.io import read_database
    from repro.mining.gaston import GastonMiner
    from repro.mining.store import save_patterns

    database = read_database(db_path)
    threshold = database.absolute_support(support)
    save_patterns(GastonMiner().mine(database, threshold), out)


def prepare(workload: Workload, seed: int, quick: bool, workdir: Path) -> dict:
    """Write the workload's inputs and oracle under ``workdir``.

    Returns the job description every child of this run starts from.
    """
    p = workload.params(quick)
    job = {
        "workload": workload.name, "kind": workload.kind, "seed": seed,
        "params": p,
    }
    if workload.kind == "tx":
        db = workdir / "db.tve"
        _generate(p["spec"], db)
        permute_tve([db], seed, shuffle_graphs=True)
        mine_oracle(db, p["support"], workdir / "oracle.jsonl")
        job["db"] = str(db)
        job["oracle"] = str(workdir / "oracle.jsonl")
    elif workload.kind == "inc":
        db = workdir / "db.tve"
        _generate(p["spec"], db)
        plan = _plan_updates(db, p)
        _write_update_plan(
            plan, permute_tve([db], seed, shuffle_graphs=True),
            workdir / "updates.json",
        )
        job["db"], job["updates"] = str(db), str(workdir / "updates.json")
        # The oracle needs the post-update database, which the first rep
        # writes; the harness mines it then.
    elif workload.kind == "big":
        graph, planted = workdir / "big.tve", workdir / "planted.tve"
        _quiet_cli([
            "generate-big", str(graph),
            "--vertices", str(p["vertices"]),
            "--edges-per-vertex", str(p["edges_per_vertex"]),
            "--labels", str(p["labels"]),
            "--communities", str(p["communities"]),
            "--planted", str(p["planted"]),
            "--copies", str(p["copies"]),
            "--planted-size", str(p["planted_size"]),
            "--planted-out", str(planted),
            "--seed", str(BASE_SEED),
        ])
        permute_tve([graph, planted], seed, shuffle_graphs=False)
        _planted_oracle(planted, p["copies"], workdir / "oracle.jsonl")
        job["db"], job["planted"] = str(graph), str(planted)
        job["oracle"] = str(workdir / "oracle.jsonl")
    elif workload.kind == "query":
        # One generated pool, halved: the catalog is mined from the first
        # half and served against the second, so the queried graphs are
        # unseen but built from the same kernels (a catalog whose patterns
        # never occur would leave the verify stage idle).
        source, target = workdir / "a.tve", workdir / "b.tve"
        _generate(p["spec"], source)
        pool = read_tve(source)
        write_tve(source, pool[: len(pool) // 2])
        write_tve(target, pool[len(pool) // 2:])
        permutation = permute_tve([source, target], seed, shuffle_graphs=True)
        mine_oracle(source, p["support"], workdir / "catalog.jsonl")
        job["db"], job["catalog"] = str(target), str(workdir / "catalog.jsonl")
        job["oracle"] = str(workdir / "oracle.json")
        # The same graphs are asked about under every seed (drawn on the
        # base order, then carried through the permutation).
        moved = permutation["gids"][1]
        job["contains_gids"] = [moved[gid] for gid in contains_plan(
            sorted(moved), p["contains"], p["repeat_share"], BASE_SEED
        )]
        _query_oracle(job, seed, p["sample"])
    else:
        raise ValueError(f"unknown workload kind {workload.kind!r}")
    return job


#: Which label space each label-valued field of an update lives in.
_UPDATE_LABELS = {
    "RelabelVertex": {"new_label": "v"},
    "RelabelEdge": {"new_label": "e"},
    "AddEdge": {"label": "e"},
    "AddVertex": {"vertex_label": "v", "edge_label": "e"},
}


def _plan_updates(base_db: Path, p: dict) -> dict:
    """Hot vertices and the update batches, drawn on the *base* database.

    Drawing them per seed would make every seed a different job (which
    graphs a batch touches decides whether a unit is re-merged at all: six
    seeds ran 2.8 s to 4.6 s).  They are drawn once here, at ``BASE_SEED``,
    and then carried through the seed's permutation like the graphs are.
    Each batch is drawn against the database the previous one left behind.
    """
    from repro.graph.io import read_database
    from repro.updates.generator import UpdateGenerator
    from repro.updates.model import apply_updates
    from repro.updates.tracker import hot_vertex_assignment

    database = read_database(base_db)
    ufreq = hot_vertex_assignment(
        database, hot_fraction=p["hot_fraction"], seed=BASE_SEED
    )
    generator = UpdateGenerator(
        num_vertex_labels=p["labels"], num_edge_labels=p["labels"],
        seed=BASE_SEED,
    )
    batches = []
    for kind in p["kinds"]:
        updates = generator.generate(database, ufreq, p["fraction"], 1, kind)
        apply_updates(database, updates)
        batches.append(updates)
    return {"ufreq": ufreq, "batches": batches}


def _write_update_plan(plan: dict, permutation: dict, out: Path) -> None:
    """The plan in the seed's gids and label names, as JSON for the child."""
    import dataclasses

    gid_map = permutation["gids"][0]

    def translate(update) -> dict:
        op = type(update).__name__
        fields = dataclasses.asdict(update)
        fields["gid"] = gid_map[update.gid]
        for name, space in _UPDATE_LABELS[op].items():
            label = str(fields[name])
            fields[name] = int(permutation[space].get(label, label))
        return {"op": op, **fields}

    document = {
        "ufreq": {str(gid_map[g]): list(f) for g, f in plan["ufreq"].items()},
        "batches": [[translate(u) for u in batch] for batch in plan["batches"]],
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def _planted_oracle(planted: Path, copies: int, out: Path) -> None:
    """The planted stars as pattern records with support == copies."""
    from repro.graph.io import read_database
    from repro.mining.base import Pattern, PatternSet
    from repro.mining.store import save_patterns

    oracle = PatternSet()
    for _gid, graph in read_database(planted):
        # The TID list only has to have the right length: the checker
        # compares (pattern, support), never TIDs.
        oracle.add(Pattern.from_graph(graph, range(copies)))
    save_patterns(oracle, out)


def contains_plan(gids: list[int], count: int, repeat_share: float, seed: int) -> list[int]:
    """``count`` graph ids to ask ``contains`` about, a share repeated."""
    rng = random.Random(seed)
    distinct = min(len(gids), max(1, round(count * (1 - repeat_share))))
    first = rng.sample(gids, distinct)
    plan = first + [rng.choice(first) for _ in range(count - distinct)]
    rng.shuffle(plan)
    return plan


def _query_oracle(job: dict, seed: int, sample: int) -> None:
    """Linear ``repro.query`` answers for a seeded sample of the mix.

    Half the sample is catalog patterns, half queried graphs.  One linear
    ``match`` per sampled pattern yields its supporting graphs; restricted
    to the sampled graphs the same facts are the ``contains`` oracle.
    """
    from repro import query
    from repro.graph.io import read_database
    from repro.mining.store import read_patterns
    from repro.serve.catalog import catalog_order

    database = read_database(job["db"])
    patterns, _meta = read_patterns(job["catalog"])
    ordered = catalog_order(patterns)
    rng = random.Random(seed)
    half = sample // 2
    pids = sorted(rng.sample(range(len(ordered)), min(half, len(ordered))))
    asked = sorted(set(job["contains_gids"]))
    gids = sorted(rng.sample(asked, min(half, len(asked))))
    facts = {
        str(pid): sorted(
            query.match(
                ordered[pid].graph, database, max_occurrences_per_graph=1
            ).supporting_gids
        )
        for pid in pids
    }
    with open(job["oracle"], "w", encoding="utf-8") as out:
        json.dump({"pids": pids, "gids": gids, "match": facts}, out)


def recount_mni_sample(job: dict, records: list[dict], seed: int, size: int) -> dict:
    """``big-mni`` precision oracle: recount a seeded sample of emitted
    patterns with ``MNISupport`` on the reference matcher.

    Returns record key -> recounted support for the sampled records.
    """
    from repro import perf
    from repro.biggraph import MNISupport, NeighborhoodExtractor
    from repro.graph.io import read_database
    from repro.graph.labeled_graph import LabeledGraph

    from .check import record_key

    rng = random.Random(seed)
    chosen = rng.sample(records, min(size, len(records)))
    database = read_database(job["db"])
    graph = database[database.gids()[0]]
    radius = job["params"]["radius"]
    truth = {}
    with perf.disabled():
        neighborhoods = NeighborhoodExtractor(radius=radius).extract(graph)
        counter = MNISupport(graph, neighborhoods, radius)
        for record in chosen:
            pattern = LabeledGraph.from_vertices_and_edges(
                record["vertices"],
                [tuple(edge) for edge in record["edges"]],
            )
            truth[record_key(record)] = counter.count(pattern).support
    return truth
