"""Putting mined patterns to work: coverage and cross-matching.

Mining produces a pile of patterns; this example shows the consumption
side of the library on a concrete scenario — two months of "transaction"
graph snapshots:

1. mine last month's database at a support threshold;
2. take a small **pattern team** — the first few patterns in the serving
   catalog's order (smallest, then most frequent) — and measure how many
   graphs it covers;
3. **re-locate** the team over this month's (updated) database and compare
   supports — which behaviours persisted, grew, or vanished;
4. drill into one pattern's exact **occurrences** (graph ids + vertex
   mappings).

Run:  python examples/pattern_explorer.py
"""

from repro import (
    GastonMiner,
    UpdateGenerator,
    generate_dataset,
    hot_vertex_assignment,
    match,
    match_patterns,
    min_dfs_code,
)
from repro.mining.base import PatternSet
from repro.query import coverage
from repro.serve import catalog_order
from repro.updates.model import apply_updates

MINSUP = 0.1


def main() -> None:
    # --- month 1 ---------------------------------------------------------
    month1 = generate_dataset("D70T10N10L18I4", seed=53)
    print(f"month 1: {len(month1)} graphs, "
          f"avg {month1.average_size():.1f} edges")

    patterns = GastonMiner().mine(month1, MINSUP)
    ordered = catalog_order(patterns)
    print(f"\n{len(patterns)} patterns at minsup={MINSUP:.0%}, "
          f"in catalog order:")
    for pattern in ordered[:5]:
        print(f"  support={pattern.support:3d} size={pattern.size}  "
              f"{min_dfs_code(pattern.graph)}")
    print("  ...")

    team = ordered[:4]
    fraction, covered = coverage(PatternSet(team), month1)
    print(f"\npattern team: {len(team)} patterns cover "
          f"{fraction:.0%} of month 1 ({len(covered)} graphs)")

    # --- month 2 = month 1 + two update batches --------------------------
    month2 = month1.copy(deep=True)
    ufreq = hot_vertex_assignment(month2, 0.2, seed=54)
    generator = UpdateGenerator(10, 10, seed=55)
    applied = 0
    for _ in range(2):
        batch = generator.generate(month2, ufreq, 0.35, 2, "mixed")
        apply_updates(month2, batch)
        applied += len(batch)
    print(f"\nmonth 2: 2 update batches applied ({applied} updates)")

    # --- where did the team go? ------------------------------------------
    relocated = match_patterns(PatternSet(team), month2)
    print("\npattern team, month 1 -> month 2 supports:")
    for pattern in team:
        then = pattern.support
        now_pattern = relocated.get(pattern.key)
        now = now_pattern.support if now_pattern else 0
        trend = "=" if now == then else ("+" if now > then else "-")
        print(f"  [{trend}] {then:3d} -> {now:3d}  size={pattern.size}")

    # --- drill into one pattern ------------------------------------------
    probe = team[0]
    hits = match(probe.graph, month2, max_occurrences_per_graph=2)
    print(f"\nprobe pattern occurs in {hits.support} month-2 graphs; "
          f"first occurrences:")
    for occurrence in hits.occurrences[:3]:
        print(f"  graph {occurrence.gid}: pattern->graph vertices "
              f"{dict(occurrence.mapping)}")


if __name__ == "__main__":
    main()
