"""Render a trace file as a human-readable phase-time tree.

Backs ``repro trace summarize <file>``: loads a trace written by
:meth:`~repro.obs.trace.Tracer.save`, rebuilds the span tree, and prints
each span with its duration, share of the root's wall-clock, status and
the attributes worth a glance::

    partminer.mine                     412.3ms 100.0%  units=4 patterns=17
      partminer.partition                3.1ms   0.8%  parts=4
      unit.mine [unit=0]               101.2ms  24.5%
        unit.attempt [attempt=1]       100.9ms  24.5%
      ...
      merge.level [level=2]             55.0ms  13.3%

Orphans (spans whose parent never made it into the file) are grouped
under an ``(orphans)`` heading rather than hidden, because an incomplete
trace should *look* incomplete.
"""

from __future__ import annotations

from pathlib import Path

from .trace import load_spans

#: Attribute keys promoted into the tree line's ``[...]`` tag.
_TAG_KEYS = ("unit", "attempt", "level", "round", "kind", "site")
_MAX_ATTRS = 4


def format_duration(seconds: float | None) -> str:
    if seconds is None:
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 0.001:
        return f"{seconds * 1000:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def build_tree(spans: list[dict]) -> tuple[list[dict], list[dict]]:
    """Group spans into (roots, orphans); each span gains a ``children`` list.

    Roots are spans with no parent id; orphans have a parent id that no
    span in the file carries.  Children sort by start time.
    """
    by_id = {span["span_id"]: dict(span, children=[]) for span in spans}
    roots: list[dict] = []
    orphans: list[dict] = []
    for span in by_id.values():
        parent_id = span.get("parent_id")
        if parent_id is None:
            roots.append(span)
        elif parent_id in by_id:
            by_id[parent_id]["children"].append(span)
        else:
            orphans.append(span)
    for span in by_id.values():
        span["children"].sort(key=lambda s: s.get("start_time") or 0.0)
    key = lambda s: s.get("start_time") or 0.0  # noqa: E731
    roots.sort(key=key)
    orphans.sort(key=key)
    return roots, orphans


def _tag(span: dict) -> str:
    attrs = span.get("attrs") or {}
    parts = [f"{k}={attrs[k]}" for k in _TAG_KEYS if k in attrs]
    return f" [{' '.join(parts)}]" if parts else ""


def _extra_attrs(span: dict) -> str:
    attrs = span.get("attrs") or {}
    rest = [
        f"{k}={v}"
        for k, v in attrs.items()
        if k not in _TAG_KEYS and k != "status_detail"
    ]
    shown = rest[:_MAX_ATTRS]
    if len(rest) > _MAX_ATTRS:
        shown.append("…")
    return "  " + " ".join(shown) if shown else ""


def _render(span: dict, depth: int, total: float, lines: list[str]) -> None:
    duration = span.get("duration")
    share = (
        f"{100.0 * duration / total:5.1f}%"
        if duration is not None and total > 0
        else "     ?"
    )
    status = "" if span.get("status") == "ok" else f"  !{span.get('status')}"
    lines.append(
        f"{'  ' * depth}{span['name']}{_tag(span)}  "
        f"{format_duration(duration):>8} {share}{status}{_extra_attrs(span)}"
    )
    for child in span["children"]:
        _render(child, depth + 1, total, lines)


def summarize_spans(spans: list[dict]) -> str:
    """The phase-time tree for a list of span dicts."""
    if not spans:
        return "(no spans)"
    roots, orphans = build_tree(spans)
    lines: list[str] = []
    for root in roots:
        total = root.get("duration") or 0.0
        _render(root, 0, total, lines)
    if orphans:
        lines.append("(orphans)")
        for orphan in orphans:
            _render(orphan, 1, orphan.get("duration") or 0.0, lines)
    statuses = [s for s in spans if s.get("status") != "ok"]
    lines.append(
        f"-- {len(spans)} spans, {len(roots)} root(s), "
        f"{len(orphans)} orphan(s), {len(statuses)} non-ok"
    )
    return "\n".join(lines)


def summarize_file(path: str | Path) -> str:
    """Load a sealed trace file and render its span tree."""
    return summarize_spans(load_spans(path))
