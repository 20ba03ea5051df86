"""Span builder contracts: exactness, determinism, malformed input.

Three pillars (the PR's acceptance criteria):

1. **Exact segmentation** — for every completed span, the segment
   durations summed in fixed-point units telescope to
   ``fixed(end) − fixed(admit)`` exactly, across multiple seeds; every
   simulated instant between admit and outcome is accounted for.
2. **Determinism** — same seed ⇒ byte-identical span JSONL, and
   serial-vs-parallel sweeps build identical spans per cell.
3. **Graceful degradation** — orphan outcomes, missing admits,
   duplicate admits, and truncated streams never raise; they are
   skipped and counted per category.
"""

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.core.fixedpoint import fixed_from_float
from repro.core.usm import PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import WORKERS_ENV, run_grid
from repro.obs import spans as spans_module
from repro.obs import trace as trace_module
from repro.obs.config import ObsConfig
from repro.obs.spans import (
    COMPONENT_BY_OUTCOME,
    SKIP_DUPLICATE_ADMIT,
    SKIP_MALFORMED,
    SKIP_ORPHAN_OUTCOME,
    SKIP_ORPHAN_SCHED,
    SKIP_UNFINISHED,
    WAIT_STATES,
    build_spans,
    render_spans_jsonl,
)

SMOKE = SCALES["smoke"]
OBS_KEEP = ObsConfig(enabled=True, keep_events=True)


def _spans_for(seed, policy="unit", trace="med-unif"):
    config = ExperimentConfig(
        policy=policy, update_trace=trace, seed=seed, scale=SMOKE, obs=OBS_KEEP
    )
    report = run_experiment(config)
    assert report.obs_events
    return report, build_spans(report.obs_events)


class TestExactSegmentation:
    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_segments_telescope_to_span_duration(self, seed):
        """Sum of segment durations == end − admit, to the ulp."""
        _, result = _spans_for(seed)
        assert result.spans
        assert result.summary()["skipped"] == {}
        checked = 0
        for span in result.spans:
            if span.admit is None:
                assert span.segments == ()
                assert span.duration_fixed == 0 and not any(span.wait_fixed)
                continue
            total = sum(
                fixed_from_float(seg.end) - fixed_from_float(seg.start)
                for seg in span.segments
            )
            expected = fixed_from_float(span.end) - fixed_from_float(span.admit)
            assert total == expected, span
            assert span.duration_fixed == expected
            per_state = dict.fromkeys(WAIT_STATES, 0)
            for seg in span.segments:
                per_state[seg.state] += (
                    fixed_from_float(seg.end) - fixed_from_float(seg.start)
                )
            assert span.wait_fixed == tuple(per_state.values())
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_every_submitted_query_has_a_span(self, seed):
        report, result = _spans_for(seed)
        assert len(result.spans) == report.queries_submitted
        by_outcome = {}
        for span in result.spans:
            by_outcome[span.outcome] = by_outcome.get(span.outcome, 0) + 1
        for outcome, count in report.outcome_counts.items():
            assert by_outcome.get(outcome.value, 0) == count, outcome

    def test_segments_are_contiguous_and_positive(self):
        _, result = _spans_for(7)
        for span in result.spans:
            if span.admit is None:
                continue
            previous_end = span.admit
            for seg in span.segments:
                assert seg.state in WAIT_STATES
                assert seg.start == previous_end  # no gaps, no overlaps
                assert seg.end > seg.start  # zero-length segments dropped
                previous_end = seg.end
            assert previous_end == span.end

    def test_usm_component_matches_outcome(self):
        _, result = _spans_for(7)
        for span in result.spans:
            assert span.usm_component == COMPONENT_BY_OUTCOME[span.outcome]
            if span.outcome == "success":
                assert span.cause is None
            else:
                assert span.cause

    def test_odu_policy_produces_refresh_waits(self):
        """ODU parks queries for on-demand refreshes; spans must see it."""
        _, result = _spans_for(7, policy="odu")
        parked = sum(
            1
            for span in result.spans
            for seg in span.segments
            if seg.state == "refresh-wait"
        )
        assert parked > 0


class TestSpanDeterminism:
    def test_same_seed_byte_identical_span_jsonl(self):
        _, first = _spans_for(7)
        _, second = _spans_for(7)
        assert render_spans_jsonl(first) == render_spans_jsonl(second)

    def test_different_seed_different_spans(self):
        _, first = _spans_for(7)
        _, second = _spans_for(8)
        assert render_spans_jsonl(first) != render_spans_jsonl(second)

    def test_serial_vs_parallel_sweep_identical_spans(self, monkeypatch):
        kwargs = dict(
            policies=("unit", "odu"),
            traces=("low-unif", "med-unif"),
            profiles=(PenaltyProfile.naive(),),
            scale=SMOKE,
            seed=5,
            base=ExperimentConfig(
                policy="unit", update_trace="low-unif", seed=5, scale=SMOKE,
                obs=OBS_KEEP,
            ),
        )
        serial = run_grid(**kwargs)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = run_grid(**kwargs)
        for key in serial:
            assert render_spans_jsonl(build_spans(serial[key].obs_events)) == (
                render_spans_jsonl(build_spans(parallel[key].obs_events))
            ), key


class TestMalformedStreams:
    """Hand-crafted event dicts (the JSONL shape) through the builder."""

    ADMIT = {"t": 1.0, "kind": "query.admit", "txn": 1, "deadline": 2.0}
    ENQ = {"t": 1.0, "kind": "sched.enqueue", "txn": 1, "cause": "admit"}
    RUN = {"t": 1.2, "kind": "sched.dispatch", "txn": 1}
    DONE = {
        "t": 1.5, "kind": "query.outcome", "txn": 1, "outcome": "success",
        "arrival": 1.0, "latency": 0.5, "freshness": 1.0, "restarts": 0,
    }

    def test_well_formed_minimal_stream(self):
        result = build_spans([self.ADMIT, self.ENQ, self.RUN, self.DONE])
        assert len(result.spans) == 1
        assert result.summary()["skipped"] == {}
        span = result.spans[0]
        assert [seg.state for seg in span.segments] == ["queued", "executing"]
        assert span.duration == pytest.approx(0.5)

    def test_orphan_outcome_skipped_with_count(self):
        result = build_spans([self.DONE])
        assert result.spans == []
        assert result.skipped[SKIP_ORPHAN_OUTCOME] == 1

    def test_rejected_outcome_without_admit_is_a_rejection_span(self):
        rejected = dict(self.DONE, outcome="rejected")
        result = build_spans([rejected])
        assert result.summary()["skipped"] == {}
        (span,) = result.spans
        assert span.admit is None
        assert span.usm_component == "R"
        assert span.segments == ()

    def test_orphan_sched_events_skipped_with_count(self):
        result = build_spans([self.ENQ, self.RUN])
        assert result.spans == []
        assert result.skipped[SKIP_ORPHAN_SCHED] == 2

    def test_duplicate_admit_counted_first_wins(self):
        result = build_spans(
            [self.ADMIT, dict(self.ADMIT, t=1.1), self.ENQ, self.RUN, self.DONE]
        )
        assert len(result.spans) == 1
        assert result.skipped[SKIP_DUPLICATE_ADMIT] == 1
        assert result.spans[0].admit == 1.0

    @pytest.mark.parametrize("shape", ["dicts", "tuples"])
    def test_late_first_sched_event_skipped_as_malformed(self, shape):
        """The admit's same-instant enqueue is missing, so the segments
        cannot telescope to end - admit: skip and count, never raise."""
        events = [self.ADMIT, self.RUN, self.DONE]
        if shape == "tuples":
            events = [trace_module.from_dict(event) for event in events]
        result = build_spans(events)
        assert result.spans == []
        assert result.skipped[SKIP_MALFORMED] == 1
        assert result.partial

    def test_malformed_query_does_not_hide_well_formed_ones(self):
        other = [
            {"t": 2.0, "kind": "query.admit", "txn": 2, "deadline": 3.0},
            {"t": 2.0, "kind": "sched.enqueue", "txn": 2, "cause": "admit"},
            dict(self.DONE, txn=2, t=2.5),
        ]
        result = build_spans([self.ADMIT, self.RUN, self.DONE] + other)
        assert [span.txn for span in result.spans] == [2]
        assert result.summary()["skipped"] == {SKIP_MALFORMED: 1}

    def test_unfinished_span_counted_not_emitted(self):
        result = build_spans([self.ADMIT, self.ENQ])
        assert result.spans == []
        assert result.skipped[SKIP_UNFINISHED] == 1

    def test_interleaved_queries_do_not_cross_attribute(self):
        other_admit = {"t": 1.0, "kind": "query.admit", "txn": 2, "deadline": 3.0}
        other_enq = {"t": 1.0, "kind": "sched.enqueue", "txn": 2, "cause": "admit"}
        other_run = {"t": 1.6, "kind": "sched.dispatch", "txn": 2}
        other_done = dict(self.DONE, txn=2, t=2.0, latency=1.0)
        result = build_spans(
            [self.ADMIT, self.ENQ, other_admit, other_enq,
             self.RUN, self.DONE, other_run, other_done]
        )
        assert result.summary()["skipped"] == {}
        by_txn = {span.txn: span for span in result.spans}
        assert by_txn[1].duration == pytest.approx(0.5)
        assert by_txn[2].duration == pytest.approx(1.0)
        assert by_txn[2].waits["queued"] == pytest.approx(0.6)

    def test_trace_meta_header_marks_partial(self):
        header = {"kind": "trace.meta", "dropped": 42, "recorded": 100}
        result = build_spans(
            [header, self.ADMIT, self.ENQ, self.RUN, self.DONE]
        )
        assert result.partial
        assert result.dropped == 42
        assert len(result.spans) == 1  # surviving spans still build

    def test_dropped_argument_marks_partial(self):
        result = build_spans([self.ADMIT, self.ENQ, self.RUN, self.DONE], dropped=7)
        assert result.partial
        assert result.dropped == 7

    def test_complete_stream_not_partial(self):
        result = build_spans([self.ADMIT, self.ENQ, self.RUN, self.DONE])
        assert not result.partial
        assert result.dropped == 0

    def test_lock_wait_attribution_per_item(self):
        events = [
            self.ADMIT,
            self.ENQ,
            {"t": 1.1, "kind": "sched.dispatch", "txn": 1},
            {"t": 1.2, "kind": "lock.wait", "txn": 1, "item": 9,
             "holders": [5], "update": False},
            {"t": 1.3, "kind": "lock.grant", "txn": 1, "item": 9},
            {"t": 1.3, "kind": "sched.enqueue", "txn": 1, "cause": "grant"},
            {"t": 1.4, "kind": "sched.dispatch", "txn": 1},
            self.DONE,
        ]
        result = build_spans(events)
        (span,) = result.spans
        assert span.waits["lock-wait"] == pytest.approx(0.1)
        assert span.lock_items == {9: pytest.approx(0.1)}
        states = [seg.state for seg in span.segments]
        assert states == ["queued", "executing", "lock-wait", "queued", "executing"]


class TestKindFilter:
    def test_filter_matches_the_kinds_build_spans_handles(self):
        """``_iter_event_tuples`` drops every kind outside ``_SPAN_KINDS``
        before ``build_spans`` sees it, so the set must name exactly the
        kinds the builder's ``kind == _trace.X`` chain compares against."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(spans_module.build_spans)))
        handled = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "kind"
            ):
                for right in node.comparators:
                    assert isinstance(right, ast.Attribute)
                    handled.add(getattr(trace_module, right.attr))
        assert handled == spans_module._SPAN_KINDS

    def test_ignored_kinds_leave_spans_unchanged(self):
        events = [
            TestMalformedStreams.ADMIT,
            # A parsed JSONL line: the signal's item ids arrive as a list.
            {"t": 1.0, "kind": "modulation.change", "direction": "degrade",
             "items": [3, 1, 3]},
            TestMalformedStreams.ENQ,
            TestMalformedStreams.RUN,
            TestMalformedStreams.DONE,
        ]
        with_extra = render_spans_jsonl(build_spans(events))
        without = render_spans_jsonl(
            build_spans([e for e in events if e["kind"] != "modulation.change"])
        )
        assert with_extra == without


class TestRunnerIntegration:
    def test_report_obs_spans_attached_and_reconciled(self):
        report, result = _spans_for(7)
        assert report.obs_spans is not None
        assert report.obs_spans["summary"]["spans"] == len(result.spans)
        ledger = report.obs_spans["ledger"]
        assert ledger["components"] == report.components
        assert ledger["usm"] == report.usm

    def test_spans_disabled_via_config(self):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
            obs=dataclasses.replace(OBS_KEEP, spans=False),
        )
        report = run_experiment(config)
        assert report.obs_spans is None

    def test_spans_jsonl_artifact_written(self, tmp_path):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
            obs=ObsConfig(enabled=True, out_dir=str(tmp_path)),
        )
        report = run_experiment(config)
        path = Path(report.obs_artifacts["spans_jsonl"])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert '"kind":"spans.meta"' in lines[0]
        assert len(lines) == report.queries_submitted + 1
