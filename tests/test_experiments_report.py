"""JSON-safety helpers in the report layer.

Regression: an empty :class:`OnlineStats` carries ±inf min/max
sentinels, and ``json.dumps`` emits those as the bare tokens
``Infinity``/``-Infinity`` — invalid JSON to strict parsers.  Anything
headed for a report file must pass through :func:`json_sanitize` /
:meth:`OnlineStats.as_dict` and come out ``null``.
"""

import json
import math

from repro.experiments.report import json_sanitize
from repro.sim.stats import OnlineStats


class TestJsonSanitize:
    def test_non_finite_floats_become_none(self):
        assert json_sanitize(float("inf")) is None
        assert json_sanitize(float("-inf")) is None
        assert json_sanitize(float("nan")) is None

    def test_finite_values_pass_through(self):
        assert json_sanitize(1.5) == 1.5
        assert json_sanitize(0) == 0
        assert json_sanitize("inf") == "inf"
        assert json_sanitize(None) is None
        assert json_sanitize(True) is True

    def test_recurses_into_containers(self):
        payload = {
            "a": [1.0, float("inf"), {"b": float("nan")}],
            "c": (float("-inf"), 2),
        }
        clean = json_sanitize(payload)
        assert clean == {"a": [1.0, None, {"b": None}], "c": [None, 2]}
        # The result is strictly-valid JSON (no Infinity/NaN tokens).
        text = json.dumps(clean, allow_nan=False)
        assert "Infinity" not in text

    def test_empty_stats_would_leak_without_sanitize(self):
        """Documents the failure mode this module guards against."""
        empty = OnlineStats()
        raw = {"min": empty._min, "max": empty._max}
        assert math.isinf(raw["min"])
        assert "Infinity" in json.dumps(raw)  # the bug
        assert json.dumps(json_sanitize(raw)) == '{"min": null, "max": null}'


class TestStatsDict:
    def test_empty_stats_serialize_with_nulls(self):
        d = OnlineStats().as_dict()
        assert d["count"] == 0
        assert d["min"] is None
        assert d["max"] is None
        # Strict JSON round-trip must succeed.
        assert json.loads(json.dumps(d, allow_nan=False))["min"] is None

    def test_populated_stats(self):
        stats = OnlineStats()
        for v in (1.0, 3.0, 2.0):
            stats.add(v)
        d = stats.as_dict()
        assert d["count"] == 3
        assert d["min"] == 1.0
        assert d["max"] == 3.0
        assert d["mean"] == 2.0
