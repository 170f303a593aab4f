"""Tests for the result-validation module."""

import pytest

from repro.mining.base import Pattern, PatternSet
from repro.mining.gspan import GSpanMiner
from repro.mining.validation import (
    check_against_reference,
    check_downward_closure,
    check_supports,
    validate,
)

from .conftest import path_graph, random_database, triangle


class TestCheckSupports:
    def test_correct_result_passes(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        report = check_supports(patterns, medium_db)
        assert report.ok
        assert report.patterns_checked == len(patterns)

    def test_wrong_support_detected(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        victim = next(iter(patterns))
        forged = PatternSet(
            p for p in patterns if p.key != victim.key
        )
        forged.add(
            Pattern(
                graph=victim.graph,
                key=victim.key,
                support=victim.support + 5,
                tids=victim.tids | {991, 992, 993, 994, 995},
            )
        )
        report = check_supports(forged, medium_db)
        assert not report.ok
        assert len(report.support_errors) == 1


class TestDownwardClosure:
    def test_complete_set_is_closed(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        assert check_downward_closure(patterns).ok

    def test_hole_detected(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        # Remove a small pattern that larger ones depend on.
        edge_patterns = patterns.of_size(1)
        bigger = patterns.of_size(2)
        if not bigger:
            pytest.skip("no size-2 patterns at this threshold")
        holed = PatternSet(p for p in patterns if p.size != 1)
        report = check_downward_closure(holed)
        assert not report.ok
        assert report.closure_errors


class TestAgainstReference:
    def test_exact_result_clean(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        report = check_against_reference(patterns, medium_db, 3)
        assert report.missing_patterns == 0
        assert report.spurious_patterns == 0

    def test_missing_counted(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        victim = max(patterns, key=lambda p: p.size)
        partial = PatternSet(p for p in patterns if p.key != victim.key)
        report = check_against_reference(partial, medium_db, 3)
        assert report.missing_patterns == 1


class TestValidatePipeline:
    def test_full_validation_of_partminer(self, medium_db):
        from repro.core.partminer import PartMiner

        result = PartMiner(k=2, unit_support="exact").mine(medium_db, 3)
        report = validate(
            result.patterns, medium_db, min_support=3, full=True
        )
        assert report.ok, report.summary()
        assert "OK" in report.summary()

    def test_full_requires_support(self, medium_db):
        patterns = GSpanMiner().mine(medium_db, 3)
        with pytest.raises(ValueError, match="min_support"):
            validate(patterns, medium_db, full=True)

    def test_summary_mentions_failures(self, medium_db):
        patterns = PatternSet(
            [Pattern.from_graph(triangle(labels=(91, 92, 93)), [0])]
        )
        report = validate(patterns, medium_db)
        assert not report.ok
        assert "FAILED" in report.summary()
