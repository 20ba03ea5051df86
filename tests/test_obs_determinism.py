"""Observability must not perturb the simulation.

Three contracts:

1. Two runs with the same seed produce byte-identical traces
   (:func:`trace_digest` over the JSONL bytes).
2. Traces are identical whether the sweep runs serially or in the
   process pool — recording happens inside each worker.
3. A run with observability enabled produces a byte-identical
   *simulation report* to one with it disabled (the recorder observes;
   it never steers).
"""

import dataclasses
import json

from repro.core.usm import PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import WORKERS_ENV, run_grid
from repro.obs.config import ObsConfig
from repro.obs.export import trace_digest
from repro.obs.trace import TraceRecorder
from tests.test_determinism_regression import _stable_report_bytes

SMOKE = SCALES["smoke"]

OBS_KEEP = ObsConfig(enabled=True, keep_events=True)


def _run(config):
    report = run_experiment(config)
    assert report.obs_events is not None
    return report


class TestTraceDeterminism:
    def test_same_seed_identical_trace(self):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE, obs=OBS_KEEP
        )
        first = _run(config)
        second = _run(dataclasses.replace(config))
        assert first.obs_events  # non-trivial trace
        assert trace_digest(first.obs_events) == trace_digest(second.obs_events)

    def test_different_seed_different_trace(self):
        base = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE, obs=OBS_KEEP
        )
        other = dataclasses.replace(base, seed=8)
        assert trace_digest(_run(base).obs_events) != trace_digest(
            _run(other).obs_events
        )

    def test_serial_vs_parallel_sweep_identical_traces(self, monkeypatch):
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
        assert list(serial) == list(parallel)
        for key in serial:
            assert trace_digest(serial[key].obs_events) == trace_digest(
                parallel[key].obs_events
            ), key


class TestObsDoesNotPerturb:
    def test_enabled_vs_disabled_byte_identical_report(self):
        """The acceptance gate: obs on vs off, same seed, same report."""
        disabled = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=7, scale=SMOKE)
        )
        enabled = run_experiment(
            ExperimentConfig(
                policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
                obs=ObsConfig(enabled=True),
            )
        )
        assert _stable_report_bytes(disabled) == _stable_report_bytes(enabled)
        # And the recorder actually saw the run.
        assert enabled.obs_summary is not None
        assert enabled.obs_summary["recorded"] > 0
        assert disabled.obs_summary is None

    def test_obs_disabled_config_matches_no_config(self):
        plain = run_experiment(
            ExperimentConfig(policy="unit", update_trace="low-unif", seed=3, scale=SMOKE)
        )
        explicit_off = run_experiment(
            ExperimentConfig(
                policy="unit", update_trace="low-unif", seed=3, scale=SMOKE,
                obs=ObsConfig(enabled=False),
            )
        )
        assert _stable_report_bytes(plain) == _stable_report_bytes(explicit_off)
        assert explicit_off.obs_summary is None

    def test_all_policies_unperturbed(self):
        """Every policy's instrumentation path is observation-only."""
        for policy in ("unit", "imu", "odu", "elastic"):
            off = run_experiment(
                ExperimentConfig(
                    policy=policy, update_trace="med-unif", seed=11, scale=SMOKE
                )
            )
            on = run_experiment(
                ExperimentConfig(
                    policy=policy, update_trace="med-unif", seed=11, scale=SMOKE,
                    obs=ObsConfig(enabled=True),
                )
            )
            assert _stable_report_bytes(off) == _stable_report_bytes(on), policy


class TestArtifactDeterminism:
    def test_exported_trace_bytes_identical_across_runs(self, tmp_path):
        def run_into(directory):
            config = ExperimentConfig(
                policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
                obs=ObsConfig(enabled=True, out_dir=str(directory)),
            )
            report = run_experiment(config)
            assert report.obs_artifacts is not None
            return report.obs_artifacts

        first = run_into(tmp_path / "a")
        second = run_into(tmp_path / "b")
        assert set(first) == {
            "trace_jsonl", "chrome_json", "controller_csv", "spans_jsonl",
        }
        for kind in first:
            with open(first[kind], "rb") as fa, open(second[kind], "rb") as fb:
                assert fa.read() == fb.read(), kind

    def test_wrapped_ring_export_keeps_truncation_header(self, tmp_path):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
            obs=ObsConfig(enabled=True, capacity=100, out_dir=str(tmp_path)),
        )
        report = run_experiment(config)
        assert report.obs_summary["dropped"] > 0
        with open(report.obs_artifacts["trace_jsonl"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace.meta"
        assert header["dropped"] == report.obs_summary["dropped"]
        assert len(lines) == 101


class TestTypedEventsDoNotPerturb:
    def test_typed_and_dict_events_same_digest_and_summary(self):
        """Re-recording a run's flattened events through the generic
        :meth:`Recorder.emit` path reproduces its trace and summary:
        the typed hooks and the schema agree key for key."""
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
            obs=ObsConfig(enabled=True, keep_events=True, spans=False),
        )
        typed = _run(config)
        generic = TraceRecorder()
        for flat in typed.obs_events:
            fields = dict(flat)
            generic.emit(fields.pop("t"), fields.pop("kind"), fields)
        kinds = typed.obs_summary["by_kind"]
        assert kinds["modulation.change"] and kinds["sched.enqueue"]
        assert trace_digest(typed.obs_events) == trace_digest(generic.event_dicts())
        assert typed.obs_summary == generic.summary()
