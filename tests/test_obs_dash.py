"""Static sweep page contracts: cell payloads, the embedded snapshot,
and serial/pooled sweeps rendering the same page."""

import json

import pytest

from repro.core.usm import PenaltyProfile
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import WORKERS_ENV, run_grid
from repro.obs.config import ObsConfig
from repro.obs.dash import _downsample, render_dashboard

from tests.test_sweep_and_cli_tools import _progress_lines

SMOKE = SCALES["smoke"]
OBS_KEEP = ObsConfig(enabled=True, keep_events=True)

#: Wall-clock figures: the only payload fields two runs may disagree on.
WALL_FIELDS = ("wall_seconds", "throughput", "phase_seconds")


def embedded_state(html):
    marker = "const STATE = "
    start = html.index(marker) + len(marker)
    end = html.index(";\n", start)
    return json.loads(html[start:end].replace("<\\/", "</"))


@pytest.fixture(scope="module")
def report():
    return run_experiment(
        ExperimentConfig(
            policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
            obs=OBS_KEEP,
        )
    )


@pytest.fixture()
def page(report):
    return render_dashboard(
        "test sweep",
        {
            ("unit", "med-unif", "naive"): report,
            ("unit", "low-unif", "naive"): report,
        },
    )


class TestDownsample:
    def test_short_series_untouched(self):
        assert _downsample([1.0, 2.0], 60) == [1.0, 2.0]

    def test_long_series_capped_keeps_endpoints(self):
        series = [float(i) for i in range(500)]
        down = _downsample(series, 60)
        assert len(down) <= 60
        assert down[0] == 0.0
        assert down[-1] == 499.0


class TestDashboardState:
    def test_snapshot_shape(self, page):
        snap = embedded_state(page)
        assert snap["title"] == "test sweep"
        assert snap["done"] == 2 and snap["total"] == 2
        assert snap["complete"] is True
        assert len(snap["cells"]) == 2
        cell = snap["cells"][0]
        assert cell["policy"] == "unit"
        assert cell["trace"] == "med-unif"
        assert "usm" in cell and "ratios" in cell and "throughput" in cell
        # keep_events=True: waits attribution rides along.
        assert "waits" in cell
        assert not cell["spans_partial"]

    def test_snapshot_json_is_valid_json(self, page):
        parsed = embedded_state(page)
        assert parsed["done"] == 2
        assert [cell["key"] for cell in parsed["cells"]] == [
            "unit/med-unif/naive",
            "unit/low-unif/naive",
        ]

    def test_runs_without_kept_events(self):
        """Observability off: the cell payload degrades gracefully."""
        plain = run_experiment(
            ExperimentConfig(
                policy="unit", update_trace="med-unif", seed=7, scale=SMOKE,
            )
        )
        html = render_dashboard("plain", {("unit", "med-unif", "naive"): plain})
        cell = embedded_state(html)["cells"][0]
        assert "waits" not in cell
        assert "usm_series" not in cell


class TestStaticExport:
    def test_placeholders_substituted(self, page):
        assert "__STATE__" not in page
        assert "EventSource" not in page
        assert "test sweep" in page

    def test_embedded_state_parses(self, page):
        assert len(embedded_state(page)["cells"]) == 2

    def test_empty_grid_renders(self):
        snap = embedded_state(render_dashboard("empty", {}))
        assert snap["cells"] == [] and snap["complete"] is False


def _strip_wall(cell):
    return {key: value for key, value in cell.items() if key not in WALL_FIELDS}


class TestSweepIntegration:
    def test_run_grid_feeds_dashboard(self):
        base = ExperimentConfig(
            policy="unit", update_trace="low-unif", seed=5, scale=SMOKE,
            obs=OBS_KEEP,
        )
        reports = run_grid(
            ("unit",),
            ("low-unif",),
            (PenaltyProfile.naive(),),
            SMOKE,
            seed=5,
            base=base,
        )
        html = render_dashboard("grid", reports)
        snap = embedded_state(html)
        assert snap["complete"]
        assert len(snap["cells"]) == len(reports) == 1
        assert "low-unif" in html

    def test_dashboard_chains_with_progress_callback(self, caplog, monkeypatch):
        """A progress-logging sweep still feeds the page every cell."""
        base = ExperimentConfig(
            policy="unit", update_trace="low-unif", seed=5, scale=SMOKE,
        )
        reports = {}
        lines = _progress_lines(caplog, monkeypatch, lambda: reports.update(
            run_grid(
                ("unit",),
                ("low-unif",),
                (PenaltyProfile.naive(),),
                SMOKE,
                seed=5,
                base=base,
                progress=True,
            )
        ))
        assert len(lines) == 1 and "unit" in lines[0] and "low-unif" in lines[0]
        assert embedded_state(render_dashboard("grid", reports))["done"] == 1

    def test_serial_and_pooled_pages_agree(self, monkeypatch):
        """The CI grid, serial and through a 2-worker pool: same cells in
        grid order, same payloads apart from wall-clock figures."""
        policies, traces = ("unit", "odu"), ("low-unif", "med-unif")
        base = ExperimentConfig(
            policy="unit", update_trace="low-unif", seed=7, scale=SMOKE,
            obs=OBS_KEEP,
        )
        pages = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            reports = run_grid(
                policies, traces, (PenaltyProfile.naive(),), SMOKE,
                seed=7, base=base,
            )
            pages.append(embedded_state(render_dashboard("ci grid", reports)))
        serial, pooled = pages
        grid_order = [
            f"{policy}/{trace}/naive" for trace in traces for policy in policies
        ]
        assert [cell["key"] for cell in serial["cells"]] == grid_order
        assert [cell["key"] for cell in pooled["cells"]] == grid_order
        assert [_strip_wall(cell) for cell in serial["cells"]] == [
            _strip_wall(cell) for cell in pooled["cells"]
        ]
        assert {k: v for k, v in serial.items() if k != "cells"} == {
            k: v for k, v in pooled.items() if k != "cells"
        }
