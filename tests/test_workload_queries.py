"""Tests for the query-trace builder."""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.cello import ReadColumns
from repro.workload.queries import QuerySpec, build_query_trace, deadline_range


def records(n=50, service=0.05):
    return ReadColumns(
        arrivals=[float(i) for i in range(n)],
        service_times=[service * (1 + i % 3) for i in range(n)],
        regions=[i % 8 for i in range(n)],
    )


class TestDeadlineRange:
    def test_mean_based_range(self):
        low, high = deadline_range([0.1, 0.2, 0.3])
        assert low == pytest.approx(0.2)
        assert high == pytest.approx(0.6)  # 3 x mean

    def test_validation(self):
        with pytest.raises(ValueError):
            deadline_range([])


class TestBuildQueryTrace:
    def build(self, **kwargs):
        return build_query_trace(
            records(),
            n_items=8,
            streams=RandomStreams(1),
            horizon=100.0,
            **kwargs,
        )

    def test_one_query_per_read(self):
        trace = self.build()
        assert len(trace.queries) == 50

    def test_deadlines_within_range_and_feasible(self):
        trace = self.build()
        low, high = deadline_range(records().service_times)
        for query in trace.queries:
            assert query.relative_deadline >= min(low, 1.1 * query.exec_time) - 1e-12
            assert query.relative_deadline <= max(high, 1.1 * query.exec_time) + 1e-12
            # No born-dead queries: the deadline covers the execution.
            assert query.relative_deadline > query.exec_time

    def test_freshness_requirement_propagated(self):
        trace = self.build()
        assert all(q.freshness_req == 0.9 for q in trace.queries)  # paper §4.1

    def test_multi_item_queries(self):
        trace = self.build(items_per_query=3)
        for query in trace.queries:
            assert len(query.items) == 3
            assert len(set(query.items)) == 3  # distinct items

    def test_multi_item_scales_exec_time(self):
        single = self.build(items_per_query=1)
        triple = self.build(items_per_query=3)
        assert triple.queries[0].exec_time == pytest.approx(
            3 * single.queries[0].exec_time
        )

    def test_access_counts(self):
        trace = self.build()
        counts = trace.access_counts()
        assert sum(counts) == 50
        assert len(counts) == 8

    def test_utilization(self):
        trace = self.build()
        expected = sum(q.exec_time for q in trace.queries) / 100.0
        assert trace.utilization() == pytest.approx(expected)

    def test_empty_records(self):
        trace = build_query_trace(records(n=0), n_items=8, streams=RandomStreams(1), horizon=10.0)
        assert trace.queries == []
        assert trace.utilization() == 0.0

    def test_invalid_items_per_query(self):
        with pytest.raises(ValueError):
            self.build(items_per_query=0)


class TestQuerySpecValidation:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            QuerySpec(arrival=0.0, items=(), exec_time=0.1, relative_deadline=1.0, freshness_req=0.9)
        with pytest.raises(ValueError):
            QuerySpec(arrival=0.0, items=(0,), exec_time=0.0, relative_deadline=1.0, freshness_req=0.9)
        with pytest.raises(ValueError):
            QuerySpec(arrival=0.0, items=(0,), exec_time=0.1, relative_deadline=0.0, freshness_req=0.9)
        with pytest.raises(ValueError):
            QuerySpec(arrival=0.0, items=(0,), exec_time=0.1, relative_deadline=1.0, freshness_req=1.5)
