"""Exporters: JSONL, Chrome trace, controller CSV."""

import csv
import json

from repro.obs.export import (
    FlatTrace,
    chrome_trace_events,
    controller_rows,
    render_trace_jsonl,
    trace_digest,
    truncation_header,
    write_chrome_trace,
    write_controller_csv,
    write_trace_jsonl,
)
from repro.obs.trace import TraceRecorder


def _sample_recorder():
    rec = TraceRecorder()
    rec.query_admit(0.1, 1, 1.5, 2)
    rec.lock_wait(0.2, 2, 7, True, [1])
    rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
    rec.control_window(1.0, {"S": 0.8, "R": 0.1}, 0.42, 20, ["LAC"], 1.25, 0.3, 2, -0.5)
    rec.control_window(2.0, {"S": 0.7, "R": 0.2}, 0.35, 18, [], 1.0, 0.4, 3, -0.5)
    return rec


class TestJsonl:
    def test_one_line_per_event_sorted_keys(self):
        text = render_trace_jsonl(_sample_recorder())
        lines = text.splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert first["kind"] == "query.admit"
        assert first["t"] == 0.1
        # Canonical form: keys sorted, compact separators.
        assert lines[0] == json.dumps(first, sort_keys=True, separators=(",", ":"))

    def test_empty_source(self):
        assert render_trace_jsonl(TraceRecorder()) == ""

    def test_write_and_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        n = write_trace_jsonl(_sample_recorder(), path)
        assert n == 5
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["kind"] for e in events] == [
            "query.admit",
            "lock.wait",
            "query.outcome",
            "control.window",
            "control.window",
        ]

    def test_digest_is_stable_and_input_sensitive(self):
        a = trace_digest(_sample_recorder())
        b = trace_digest(_sample_recorder())
        assert a == b
        other = TraceRecorder()
        other.query_admit(0.1, 1, 1.5, 2)
        assert trace_digest(other) != a

    def test_accepts_plain_dicts(self):
        rec = _sample_recorder()
        assert trace_digest(rec.event_dicts()) == trace_digest(rec)


class TestChromeTrace:
    def test_metadata_lanes(self):
        events = chrome_trace_events(_sample_recorder())
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names == {"server", "controller", "locks"}
        assert any(e["name"] == "process_name" for e in meta)

    def test_outcome_becomes_complete_slice(self):
        events = chrome_trace_events(_sample_recorder())
        (slice_,) = [e for e in events if e["ph"] == "X"]
        assert slice_["name"] == "query:success"
        assert slice_["ts"] == 0.1 * 1e6  # arrival, in microseconds
        assert slice_["dur"] == 0.3 * 1e6  # latency
        assert slice_["tid"] == 1  # server lane

    def test_window_becomes_counter_track(self):
        events = chrome_trace_events(_sample_recorder())
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2
        args = counters[0]["args"]
        assert args["S"] == 0.8
        assert args["usm"] == 0.42
        # Counter args must be numeric only (no lists/strings/bools).
        assert all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in args.values()
        )
        assert counters[0]["tid"] == 2  # controller lane

    def test_lock_events_are_instants_on_lock_lane(self):
        events = chrome_trace_events(_sample_recorder())
        (instant,) = [e for e in events if e.get("name") == "lock.wait"]
        assert instant["ph"] == "i"
        assert instant["s"] == "t"
        assert instant["tid"] == 3

    def test_written_file_is_valid_json(self, tmp_path):
        path = tmp_path / "chrome.json"
        write_chrome_trace(_sample_recorder(), path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert isinstance(payload["traceEvents"], list)
        assert len(payload["traceEvents"]) > 5


class TestControllerCsv:
    def test_rows_only_window_snapshots(self):
        rows = controller_rows(_sample_recorder())
        assert len(rows) == 2
        assert rows[0]["t"] == 1.0
        assert rows[0]["S"] == 0.8
        assert rows[0]["usm"] == 0.42
        assert rows[0]["signals"] == "LAC"
        assert rows[1]["signals"] == "none"

    def test_csv_columns_t_first_union(self, tmp_path):
        path = tmp_path / "controller.csv"
        n = write_controller_csv(_sample_recorder(), path)
        assert n == 2
        with path.open() as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames is not None
            assert reader.fieldnames[0] == "t"
            rows = list(reader)
        assert {"S", "R", "usm", "c_flex", "ticket_threshold"} <= set(rows[0])
        assert rows[0]["usm"] == "0.42"

    def test_empty_trace_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_controller_csv(TraceRecorder(), path) == 0
        assert path.read_text().splitlines() == ["t"]


class TestTruncationHeader:
    def test_complete_trace_has_no_header(self):
        rec = _sample_recorder()
        assert truncation_header(rec) is None
        first = json.loads(render_trace_jsonl(rec).splitlines()[0])
        assert first["kind"] != "trace.meta"

    def test_wrapped_ring_prepends_header(self, tmp_path):
        rec = TraceRecorder(capacity=2)
        rec.query_admit(0.1, 1, 1.5, 2)
        rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
        rec.control_window(1.0, {"S": 0.8}, 0.42, 20, ["LAC"], 1.25, 0.3, 2, -0.5)
        header = truncation_header(rec)
        assert header == {
            "kind": "trace.meta", "dropped": 1, "recorded": 3, "retained": 2,
        }
        path = tmp_path / "truncated.jsonl"
        write_trace_jsonl(rec, path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == header
        assert len(lines) == 3  # header + the 2 retained events

    def test_flat_trace_of_wrapped_ring_keeps_header(self, tmp_path):
        """Writers sharing one :class:`FlatTrace` still see the drops."""
        rec = TraceRecorder(capacity=2)
        rec.query_admit(0.1, 1, 1.5, 2)
        rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
        rec.control_window(1.0, {"S": 0.8}, 0.42, 20, ["LAC"], 1.25, 0.3, 2, -0.5)
        flat = FlatTrace(rec)
        assert truncation_header(flat) == truncation_header(rec) is not None
        assert render_trace_jsonl(flat) == render_trace_jsonl(rec)
        assert chrome_trace_events(flat) == chrome_trace_events(rec)
        assert controller_rows(flat) == controller_rows(rec)
        path = tmp_path / "truncated.jsonl"
        write_trace_jsonl(flat, path)
        assert json.loads(path.read_text().splitlines()[0])["kind"] == "trace.meta"

    def test_digest_unchanged_for_complete_traces(self):
        """The header must not perturb historical digests."""
        rec = _sample_recorder()
        assert trace_digest(rec.event_dicts()) == trace_digest(rec)

    def test_chrome_exporter_skips_header(self):
        rec = TraceRecorder(capacity=1)
        rec.query_admit(0.1, 1, 1.5, 2)
        rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
        events = [json.loads(line) for line in render_trace_jsonl(rec).splitlines()]
        assert events[0]["kind"] == "trace.meta"
        assert all(
            e.get("name") != "trace.meta" for e in chrome_trace_events(events)
        )

