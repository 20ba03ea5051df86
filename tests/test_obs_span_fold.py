"""The live span fold against the offline builder, and what it holds.

An observed run folds its spans while it records: the recorder hands
every event to a :class:`~repro.obs.spans.SpanFold`, whose finalized
spans go straight into an
:class:`~repro.obs.attrib.AttribAccumulator`.  ``build_spans`` replays
a recorded stream through the same fold.  Here the two drivers must
agree: ``report.obs_spans`` equals the offline summary and
``attrib_report`` of ``build_spans(recorder.events())``, and the spans
JSONL an ``out_dir`` run writes equals the offline dump byte for byte.

The live fold sees every event, so the spans are complete even when the
ring wraps.  Without ``out_dir`` the run builds no span object at all,
without ``out_dir`` or ``keep_events`` it keeps no trace event, and the
fixed-point conversion keeps nothing between calls.
"""

import dataclasses
import gc
import tracemalloc
from pathlib import Path

import pytest

from repro.core.fixedpoint import fixed_from_float
from repro.experiments.config import POLICIES, SCALES, ExperimentConfig
from repro.experiments.runner import Substrate, run_experiment
from repro.faults.scenarios import canned
from repro.obs import spans as spans_module
from repro.obs.attrib import attrib_report
from repro.obs.config import ObsConfig
from repro.obs.spans import build_spans, render_spans_jsonl
from repro.workload.cache import get_workload

SMOKE = SCALES["smoke"]
SMALL = SCALES["small"]
OBS = ObsConfig(enabled=True, spans=True)


def _config(policy, trace, scale=SMOKE, fault=None, obs=OBS, items_per_query=1):
    return ExperimentConfig(
        policy=policy,
        update_trace=trace,
        seed=7,
        scale=scale,
        items_per_query=items_per_query,
        faults=None if fault is None else canned(fault, scale.horizon, scale.n_items),
        obs=obs,
    )


def _finished(config):
    """A finished substrate's report and recorder, whose ring
    ``keep_events`` asks for."""
    config = dataclasses.replace(
        config, obs=dataclasses.replace(config.obs, keep_events=True)
    )
    substrate = Substrate(config, *get_workload(config))
    return substrate.finish(), substrate.recorder


CELLS = [
    *[(policy, "med-unif", SMOKE, None, 1) for policy in POLICIES],
    ("unit", "high-unif", SMALL, None, 1),
    ("odu", "high-pos", SMALL, None, 3),
    ("unit", "med-unif", SMOKE, "update-storm", 1),
    ("odu", "med-unif", SMOKE, "pile-up", 3),
]


class TestOnlineMatchesOffline:
    def test_every_policy_is_covered(self):
        assert {cell[0] for cell in CELLS} == set(POLICIES) == {
            "unit", "imu", "odu", "qmf", "elastic",
        }

    @pytest.mark.parametrize(
        "policy, trace, scale, fault, items_per_query",
        CELLS,
        ids=[f"{c[0]}-{c[1]}-{c[2].name}-{c[3]}-{c[4]}" for c in CELLS],
    )
    def test_report_and_dump_equal_the_offline_build(
        self, tmp_path, policy, trace, scale, fault, items_per_query
    ):
        config = _config(policy, trace, scale, fault, items_per_query=items_per_query)
        report, recorder = _finished(config)
        assert recorder.dropped == 0
        offline = build_spans(recorder.events())
        expected = {"summary": offline.summary(), **attrib_report(offline.spans, config.profile)}
        assert report.obs_spans == expected
        assert report.obs_spans["summary"]["spans"] == report.queries_submitted

        exported = dataclasses.replace(
            config, obs=dataclasses.replace(OBS, out_dir=str(tmp_path))
        )
        report_out, recorder_out = _finished(exported)
        assert report_out.obs_spans == expected
        dump = Path(report_out.obs_artifacts["spans_jsonl"]).read_bytes()
        assert dump == render_spans_jsonl(build_spans(recorder_out.events())).encode("utf-8")
        if fault is not None:
            assert any(span.faults for span in offline.spans)


class TestSmallRing:
    def test_spans_are_complete_when_the_ring_wraps(self):
        small_ring = dataclasses.replace(OBS, capacity=4096, keep_events=True)
        report = run_experiment(_config("unit", "med-unif", SMALL, obs=small_ring))
        assert report.obs_summary["dropped"] > 0
        summary = report.obs_spans["summary"]
        assert summary["spans"] == report.queries_submitted
        assert summary["partial"] is False
        assert summary["dropped"] == 0
        ledger = report.obs_spans["ledger"]
        assert ledger["total"] == report.queries_submitted
        assert ledger["components"] == report.components
        assert ledger["usm"] == report.usm
        # The attribution does not depend on the ring at all.
        full_ring = run_experiment(
            _config("unit", "med-unif", SMALL, obs=dataclasses.replace(OBS, keep_events=True))
        )
        assert full_ring.obs_summary["dropped"] == 0
        assert report.obs_spans == full_ring.obs_spans


class TestMemoryContract:
    def test_fixed_from_float_keeps_nothing_between_calls(self):
        values = [0.1 + index * 1.000_001 for index in range(10_000)]
        assert len(set(values)) == len(values)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for value in values:
                fixed_from_float(value)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def _count_spans(self, monkeypatch):
        built = []
        original = spans_module.QuerySpan

        def counted(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(spans_module, "QuerySpan", counted)
        return built

    def test_observed_run_without_out_dir_builds_no_span(self, monkeypatch):
        built = self._count_spans(monkeypatch)
        report = run_experiment(_config("unit", "med-unif"))
        assert report.obs_spans["summary"]["spans"] == report.queries_submitted > 0
        assert built == []

    @staticmethod
    def _traced_peak(config):
        """The traced-memory peak of one run above its start."""
        get_workload(config)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            substrate = Substrate(config, *get_workload(config))
            report = substrate.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - start, substrate, report

    def test_run_without_a_reader_keeps_no_events(self):
        config = _config("unit", "med-unif", SMALL, obs=ObsConfig())
        peak, substrate, report = self._traced_peak(config)
        assert len(substrate.recorder) == 0
        summary = report.obs_summary
        assert summary["events"] == summary["dropped"] == 0
        assert summary["recorded"] == sum(summary["by_kind"].values()) > 0
        kept = dataclasses.replace(config, obs=ObsConfig(keep_events=True))
        kept_report = run_experiment(kept)
        assert kept_report.obs_summary["events"] == summary["recorded"]
        assert report.obs_spans == kept_report.obs_spans
        # Observation costs the span fold and the attribution only.
        off_peak, _, _ = self._traced_peak(dataclasses.replace(config, obs=None))
        assert peak <= 1.25 * off_peak

    def test_out_dir_run_builds_one_span_per_query(self, monkeypatch, tmp_path):
        built = self._count_spans(monkeypatch)
        obs = dataclasses.replace(OBS, out_dir=str(tmp_path))
        report = run_experiment(_config("unit", "med-unif", obs=obs))
        assert len(built) == report.queries_submitted
