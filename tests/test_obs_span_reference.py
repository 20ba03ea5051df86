"""The span builder and attribution against their previous versions.

``tests/span_reference.py`` keeps the builder and the attribution as
they were before spans kept exact per-state sums and converted each
boundary once.  Every span dump and attribution report here must equal
the reference's: the span JSONL byte for byte, the ``attrib_report``
dict float for float (``==``), from event tuples and from flattened
JSONL dicts alike.  Real cells cover refresh waits, preemptions,
restarts, fault windows and a truncated ring; seeded random streams
add refresh parks at random points, same-instant transitions and
malformed input.

``TestConversionCounts`` is the span pipeline's zero-slack work count:
``build_spans`` + ``attrib_report`` convert each distinct boundary
instant of each span to fixed point exactly once.
"""

import json
import random
from collections import Counter

import pytest

from repro.core.usm import PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import Substrate
from repro.faults.scenarios import canned
from repro.obs import attrib as attrib_module
from repro.obs import spans as spans_module
from repro.obs import trace as T
from repro.obs.attrib import attrib_report
from repro.obs.config import ObsConfig
from repro.obs.export import render_trace_jsonl
from repro.obs.spans import build_spans, render_spans_jsonl
from repro.workload.cache import get_workload
from tests import span_reference as reference

SMOKE = SCALES["smoke"]
SMALL = SCALES["small"]
PROFILE = PenaltyProfile.naive()


def _recorded(policy, trace, scale=SMOKE, seed=7, fault=None, capacity=262_144,
              items_per_query=1):
    """A finished cell's recorder (event tuples plus its drop count)."""
    config = ExperimentConfig(
        policy=policy,
        update_trace=trace,
        seed=seed,
        scale=scale,
        items_per_query=items_per_query,
        faults=None if fault is None else canned(fault, scale.horizon, scale.n_items),
        obs=ObsConfig(enabled=True, capacity=capacity, spans=False),
    )
    substrate = Substrate(config, *get_workload(config))
    substrate.finish()
    return substrate.recorder


def _jsonl_dicts(recorder):
    """The recorder's JSONL dump parsed back (``trace.meta`` header
    included when the ring dropped events)."""
    text = render_trace_jsonl(recorder)
    return [json.loads(line) for line in text.splitlines()]


def assert_matches_reference(events, dropped=0, profile=PROFILE):
    """New and reference builders agree on ``events``; returns the new
    result."""
    events = list(events)
    new = build_spans(events, dropped=dropped)
    old = reference.build_spans(events, dropped=dropped)
    assert render_spans_jsonl(new) == render_spans_jsonl(old)
    assert new.summary() == old.summary()
    assert attrib_report(new.spans, profile) == reference.attrib_report(
        old.spans, profile
    )
    return new


class TestSimulatedCells:
    @pytest.mark.parametrize(
        "policy, trace, fault, items_per_query",
        [
            ("odu", "high-pos", None, 3),
            ("imu", "med-neg", None, 3),
            ("unit", "high-unif", "server-slowdown", 3),
            ("unit", "med-unif", "update-storm", 1),
        ],
    )
    def test_tuples_and_dicts_match_reference(
        self, policy, trace, fault, items_per_query
    ):
        recorder = _recorded(
            policy, trace, fault=fault, items_per_query=items_per_query
        )
        assert recorder.dropped == 0
        from_tuples = assert_matches_reference(recorder.events())
        from_dicts = assert_matches_reference(_jsonl_dicts(recorder))
        assert render_spans_jsonl(from_tuples) == render_spans_jsonl(from_dicts)
        spans = from_tuples.spans
        assert sum(span.preemptions for span in spans) > 0
        assert sum(span.restarts for span in spans) > 0
        if policy == "odu":
            assert any(seg.state == "refresh-wait" for s in spans for seg in s.segments)
        if fault is not None:
            assert any(span.faults for span in spans)

    def test_truncated_ring_matches_reference(self):
        recorder = _recorded("odu", "med-unif", capacity=3000, items_per_query=3)
        assert recorder.dropped > 0
        result = assert_matches_reference(recorder.events(), dropped=recorder.dropped)
        assert result.partial
        assert any(result.skipped.values())
        from_dicts = assert_matches_reference(_jsonl_dicts(recorder))
        assert render_spans_jsonl(from_dicts) == render_spans_jsonl(result)


def random_stream(seed, steps=600):
    """A seeded event stream with refresh parks, same-instant
    transitions, orphans, duplicate admits, fault windows and spans
    left open at the end; times never decrease."""
    rng = random.Random(seed)
    events = []
    now = 0.0
    live = []
    next_txn = 1
    faults = []
    for _ in range(steps):
        if rng.random() < 0.6:
            now += rng.choice([0.1, 0.25, 1 / 3, 1e-9, rng.random()])
        roll = rng.random()
        if roll < 0.15 or not live:
            txn = next_txn
            next_txn += 1
            live.append(txn)
            deadline = now + rng.random() * 5 if rng.random() < 0.9 else None
            events.append((now, T.QUERY_ADMIT, txn, deadline, 1))
            events.append((now, T.SCHED_ENQUEUE, txn, T.ENQUEUE_ADMIT))
            continue
        txn = rng.choice(live)
        if roll < 0.35:
            cause = rng.choice(T.ENQUEUE_CAUSES)
            events.append((now, T.SCHED_ENQUEUE, txn, cause))
        elif roll < 0.55:
            events.append((now, T.SCHED_DISPATCH, txn))
        elif roll < 0.7:
            events.append((now, T.SCHED_PARK, txn))
        elif roll < 0.8:
            live.remove(txn)
            outcome = rng.choice(["success", "dmf", "dmf", "dsf", "aborted"])
            events.append(
                (now, T.QUERY_OUTCOME, txn, outcome, now - 1.0, 1.0, 0.5,
                 rng.randrange(3))
            )
        elif roll < 0.85:
            rejected = next_txn + 1000
            if rng.random() < 0.5:
                events.append(
                    (now, T.ADMISSION_DECISION, rejected, False, "deadline",
                     0.0, 0, 1.0)
                )
            events.append(
                (now, T.QUERY_OUTCOME, rejected, "rejected", now, 0.0, None, 0)
            )
        elif roll < 0.9:
            label = f"fault-{len(faults)}"
            faults.append(label)
            events.append((now, T.FAULT_START, label, "slowdown", {"factor": 2.0}))
        elif roll < 0.93 and faults:
            label = faults.pop(rng.randrange(len(faults)))
            events.append((now, T.FAULT_END, label, "slowdown"))
        elif roll < 0.96:
            events.append((now, T.SCHED_DISPATCH, txn + 5000))  # orphan
        elif roll < 0.98:
            events.append((now, T.QUERY_ADMIT, txn, 1.0, 1))  # duplicate
        else:
            events.append((now, T.MODULATION_CHANGE, "degrade", (1, 2)))
    return events


class TestRandomStreams:
    @pytest.mark.parametrize("seed", range(12))
    def test_tuples_and_dicts_match_reference(self, seed):
        events = random_stream(seed)
        result = assert_matches_reference(events)
        assert_matches_reference([T.as_dict(event) for event in events])
        assert assert_matches_reference(events, dropped=5).partial
        assert result.spans

    def test_streams_exercise_refresh_waits_and_faults(self):
        spans = [
            span
            for seed in range(12)
            for span in build_spans(random_stream(seed)).spans
        ]
        assert sum("refresh-wait" in span.waits for span in spans) > 20
        assert sum(bool(span.faults) for span in spans) > 20
        assert Counter(span.cause for span in spans if span.outcome == "dmf")[
            "wait:refresh-wait"
        ] > 0


@pytest.fixture
def conversions(monkeypatch):
    """Count the ``fixed_from_float`` calls made through the span and
    attribution modules."""
    calls = Counter()
    convert = spans_module.fixed_from_float

    def counted(value):
        calls["fixed_from_float"] += 1
        return convert(value)

    monkeypatch.setattr(spans_module, "fixed_from_float", counted)
    monkeypatch.setattr(attrib_module, "fixed_from_float", counted, raising=False)
    return calls


def boundary_instants(spans):
    """Distinct boundary instants per completed span, summed: its admit,
    every segment end and its outcome."""
    return sum(
        len({span.admit, span.end, *(seg.end for seg in span.segments)})
        for span in spans
        if span.admit is not None
    )


class TestConversionCounts:
    """Zero slack: one conversion per distinct boundary instant of each
    span, and none in the attribution."""

    @pytest.mark.parametrize(
        "policy, trace, expected",
        [
            ("unit", "med-unif", (3_411, 5_266, 8_677)),
            ("odu", "high-unif", (4_087, 6_089, 10_176)),
        ],
    )
    def test_small_cell(self, conversions, policy, trace, expected):
        recorder = _recorded(policy, trace, scale=SMALL)
        result = build_spans(recorder.events())
        assert not result.partial and not any(result.skipped.values())
        built = conversions["fixed_from_float"]
        attrib_report(result.spans, PROFILE)
        assert conversions["fixed_from_float"] == built
        completed = sum(span.admit is not None for span in result.spans)
        segments = sum(len(span.segments) for span in result.spans)
        assert built == boundary_instants(result.spans)
        assert (completed, segments, built) == expected
