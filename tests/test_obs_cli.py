"""``python -m repro.obs`` subcommands, driven in-process."""

import json

import pytest

from repro.obs.cli import main
from repro.obs.export import trace_digest, write_trace_jsonl
from repro.obs.trace import TraceRecorder


@pytest.fixture()
def trace_file(tmp_path):
    rec = TraceRecorder()
    rec.query_admit(0.1, 1, 1.5, 2)
    rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
    rec.control_window(1.0, {"S": 0.8}, 0.42, 20, ["LAC"], 1.25, 0.3, 2, -0.5)
    rec.control_window(2.0, {"S": 0.7}, 0.35, 18, [], 1.0, 0.4, 3, -0.5)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(rec, path)
    return path


class TestSummary:
    def test_counts_and_span(self, trace_file, capsys):
        assert main(["summary", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "4 events" in out
        assert "query.admit" in out
        assert "control.window" in out
        assert "0.100s .. 2.000s" in out

    def test_modulation_signal_line(self, tmp_path, capsys):
        rec = TraceRecorder()
        rec.modulation_change(0.5, "upgrade", (1, 4, 9))
        path = tmp_path / "modulation.jsonl"
        write_trace_jsonl(rec, path)
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 events" in out
        assert "modulation.change" in out

    def test_bad_json_exits(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 1}\nnot json\n')
        with pytest.raises(SystemExit):
            main(["summary", str(bad)])


class TestFilter:
    def test_by_kind_to_stdout(self, trace_file, capsys):
        assert main(["filter", str(trace_file), "--kind", "control.window"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["kind"] == "control.window" for line in lines)

    def test_time_range_to_file(self, trace_file, tmp_path, capsys):
        out = tmp_path / "late.jsonl"
        assert (
            main(["filter", str(trace_file), "--since", "0.5", "--out", str(out)]) == 0
        )
        assert "wrote 2 of 4 events" in capsys.readouterr().out
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(e["t"] >= 0.5 for e in events)


class TestConvert:
    def test_chrome(self, trace_file, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["chrome", str(trace_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "C"} <= phases

    def test_controller(self, trace_file, tmp_path, capsys):
        out = tmp_path / "controller.csv"
        assert main(["controller", str(trace_file), "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header.startswith("t,")
        assert len(rows) == 2

    def test_digest_matches_library(self, trace_file, capsys):
        assert main(["digest", str(trace_file)]) == 0
        printed = capsys.readouterr().out.split()[0]
        events = [json.loads(line) for line in trace_file.read_text().splitlines()]
        assert printed == trace_digest(events)


@pytest.fixture()
def lifecycle_trace_file(tmp_path):
    """A trace with the sched events the span builder keys on."""
    rec = TraceRecorder()
    rec.query_admit(0.1, 1, 1.5, 2)
    rec.sched_enqueue(0.1, 1, "admit")
    rec.sched_dispatch(0.3, 1)
    rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
    path = tmp_path / "lifecycle.jsonl"
    write_trace_jsonl(rec, path)
    return path


@pytest.fixture()
def truncated_trace_file(tmp_path):
    """A ring that wrapped: the JSONL carries a trace.meta header."""
    rec = TraceRecorder(capacity=2)
    rec.query_admit(0.1, 1, 1.5, 2)
    rec.sched_enqueue(0.1, 1, "admit")
    rec.sched_dispatch(0.3, 1)
    rec.query_outcome(0.4, 1, "success", 0.1, 0.3, 0.9, 0)
    path = tmp_path / "truncated.jsonl"
    write_trace_jsonl(rec, path)
    return path


class TestSpansCommand:
    def test_spans_to_stdout(self, lifecycle_trace_file, capsys):
        assert main(["spans", str(lifecycle_trace_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["kind"] == "spans.meta"
        span = json.loads(lines[1])
        assert span["outcome"] == "success"
        assert [seg["state"] for seg in span["segments"]] == [
            "queued", "executing",
        ]

    def test_spans_to_file(self, lifecycle_trace_file, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        assert main(["spans", str(lifecycle_trace_file), "--out", str(out)]) == 0
        assert "wrote 1 spans" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 2

    def test_truncated_trace_warns_and_marks_partial(
        self, truncated_trace_file, capsys
    ):
        assert main(["spans", str(truncated_trace_file)]) == 0
        captured = capsys.readouterr()
        assert "truncated" in captured.err
        assert "PARTIAL" in captured.err
        header = json.loads(captured.out.splitlines()[0])
        assert header["partial"] is True
        assert header["dropped"] == 2

    def test_summary_warns_on_truncation(self, truncated_trace_file, capsys):
        assert main(["summary", str(truncated_trace_file)]) == 0
        captured = capsys.readouterr()
        assert "dropped 2 events" in captured.err
        assert "trace.meta" in captured.out

    def test_complete_trace_no_warning(self, lifecycle_trace_file, capsys):
        assert main(["summary", str(lifecycle_trace_file)]) == 0
        assert capsys.readouterr().err == ""


class TestAttribCommand:
    def test_tables_printed(self, lifecycle_trace_file, capsys):
        assert main(["attrib", str(lifecycle_trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Wait breakdown" in out
        assert "p99" in out
        assert "USM=" in out

    def test_json_report(self, lifecycle_trace_file, tmp_path, capsys):
        out = tmp_path / "attrib.json"
        assert (
            main(
                ["attrib", str(lifecycle_trace_file),
                 "--profile", "gt1-high-cr", "--json", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["ledger"]["total"] == 1
        assert payload["spans_summary"]["spans"] == 1

    def test_unknown_profile_exits(self, lifecycle_trace_file):
        with pytest.raises(SystemExit):
            main(["attrib", str(lifecycle_trace_file), "--profile", "nope"])


class TestDashCommand:
    def test_static_export(self, tmp_path, capsys):
        out = tmp_path / "dash" / "index.html"
        assert (
            main(
                ["dash", "--scale", "smoke", "--policies", "unit",
                 "--traces", "low-unif", "--out", str(out)]
            )
            == 0
        )
        assert "wrote static dashboard" in capsys.readouterr().out
        html = out.read_text()
        assert "EventSource" not in html
        assert "low-unif" in html

    def test_no_serving_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["dash", "--help"])
        help_text = capsys.readouterr().out
        for option in ("--serve", "--port", "--hold"):
            assert option not in help_text


class TestSmoke:
    def test_smoke_exports_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["smoke", "--scale", "smoke", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "events recorded" in out
        suffixes = {p.name.rsplit(".", 2)[-2] + "." + p.suffix.lstrip(".")
                    for p in out_dir.iterdir()}
        assert suffixes == {
            "trace.jsonl", "chrome.json", "controller.csv", "spans.jsonl"
        }
