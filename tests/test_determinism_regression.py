"""Determinism regression guard (the invariant simlint protects).

Two identical runs with the same master seed must be *byte-identical* —
not approximately equal — all the way through the Figure 4 benchmark
pipeline.  If this test starts failing, something in the run path is
drawing from ambient state (RNG, wall clock, hash ordering); run
``python -m repro.lint src/repro`` to find it.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.figures import figure4, render_figure4
from repro.core.usm import TABLE2_PROFILES
from repro.experiments.report import stable_report_bytes, stable_report_digest
from repro.experiments.runner import run_experiment

SMOKE = SCALES["smoke"]

# The canonical serialization lives in experiments.report so the fleet
# 1-shard-equivalence gate shares the exact same byte contract.
_stable_report_bytes = stable_report_bytes


class TestSingleRunDeterminism:
    def test_same_seed_byte_identical_report(self):
        config = ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE
        )
        first = _stable_report_bytes(run_experiment(config))
        second = _stable_report_bytes(
            run_experiment(dataclasses.replace(config))
        )
        assert first == second

    def test_different_seed_differs(self):
        """Sanity: the serialization actually captures run results."""
        a = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=7, scale=SMOKE)
        )
        b = run_experiment(
            ExperimentConfig(policy="unit", update_trace="med-unif", seed=8, scale=SMOKE)
        )
        assert _stable_report_bytes(a) != _stable_report_bytes(b)


class TestFigure4Determinism:
    def test_two_fig4_runs_byte_identical(self):
        """The acceptance gate: the full Fig. 4 benchmark (9 traces x
        all policies, naive USM) twice with one master seed."""
        first = figure4(SMOKE, seed=7)
        second = figure4(SMOKE, seed=7)
        first_bytes = json.dumps(
            {t: {p: v.hex() for p, v in row.items()} for t, row in first.items()},
            sort_keys=True,
        ).encode("utf-8")
        second_bytes = json.dumps(
            {t: {p: v.hex() for p, v in row.items()} for t, row in second.items()},
            sort_keys=True,
        ).encode("utf-8")
        assert first_bytes == second_bytes
        # The rendered stats output is byte-identical too.
        assert render_figure4(first).encode("utf-8") == render_figure4(second).encode(
            "utf-8"
        )


#: Committed report digests of five smoke cells, equal to the entries
#: ``scripts/report_digest.py`` prints under the same labels.  The
#: tests above compare two runs in one interpreter; these hold the bits
#: fixed across interpreters, so a Python version whose float
#: arithmetic or ``sum()`` rounds differently fails here.
PINNED_DIGESTS = {
    "unit/med-unif/naive/seed7/h120": (
        dict(policy="unit"),
        "1929a523d0fdb8341c9fbdc029d53364193d06fc754194200f3f55edb4d33ecf",
    ),
    "qmf/med-unif/naive/seed7/h120": (
        dict(policy="qmf"),
        "1ad6cff99487bacb3cd8bf0c70705e83fae877eb7f9fdb47ba53d265c125c335",
    ),
    "odu/high-pos/naive/seed7/h120": (
        dict(policy="odu", update_trace="high-pos"),
        "f1ad0d0508e3c480312f259fb0127bd6284d44ddd2816f568eaf939a548b2fb9",
    ),
    "elastic/med-unif/naive/seed7/h120/q3": (
        dict(policy="elastic", items_per_query=3),
        "459814d6f7c81962306b8137dbe638b97d274fa2d940e46483ac29211b47c7c3",
    ),
    "unit/med-unif/high C_fm (<1)/seed7/h120": (
        dict(policy="unit", profile=TABLE2_PROFILES["lt1-high-cfm"]),
        "3065d14c2838a91fc8e24772c8593ac4bc2b1921ce2e97e2ef9dcd720e29a30a",
    ),
}


class TestPinnedDigests:
    @pytest.mark.parametrize("label", sorted(PINNED_DIGESTS))
    def test_report_digest_matches_the_committed_hex(self, label):
        overrides, expected = PINNED_DIGESTS[label]
        cell = dict(update_trace="med-unif", seed=7, scale=SMOKE)
        cell.update(overrides)
        report = run_experiment(ExperimentConfig(**cell))
        assert stable_report_digest(report) == expected
