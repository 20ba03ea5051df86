"""Round-trip tests for trace (de)serialization."""

import json

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.cello import CelloConfig, generate_cello_trace
from repro.workload.queries import build_query_trace
from repro.workload.traces import load_trace_bundle, save_trace_bundle
from repro.workload.updates import STANDARD_UPDATE_TRACES, build_update_trace


@pytest.fixture()
def bundle():
    streams = RandomStreams(4)
    config = CelloConfig(
        horizon=200.0,
        n_items=16,
        query_utilization=0.4,
        mean_service=0.05,
        zipf_skew=1.3,
        burst_factor=4.0,
        normal_dwell=120.0,
        burst_dwell=20.0,
    )
    reads = generate_cello_trace(config, streams)
    query_trace = build_query_trace(reads, 16, streams, horizon=200.0)
    update_trace = build_update_trace(
        STANDARD_UPDATE_TRACES["low-unif"],
        query_trace.access_counts(),
        horizon=200.0,
        streams=streams,
        mean_exec=0.15,
    )
    return query_trace, {"low-unif": update_trace}


def test_round_trip(tmp_path, bundle):
    query_trace, updates = bundle
    path = tmp_path / "bundle.json"
    save_trace_bundle(path, query_trace, updates)
    loaded_queries, loaded_updates = load_trace_bundle(path)

    assert loaded_queries.name == query_trace.name
    assert loaded_queries.n_items == query_trace.n_items
    assert loaded_queries.queries == query_trace.queries

    reloaded = loaded_updates["low-unif"]
    original = updates["low-unif"]
    assert reloaded.items == original.items
    assert reloaded.horizon == original.horizon
    assert reloaded.target_utilization == original.target_utilization


def test_version_mismatch_rejected(tmp_path, bundle):
    query_trace, updates = bundle
    path = tmp_path / "bundle.json"
    save_trace_bundle(path, query_trace, updates)
    payload = json.loads(path.read_text())
    payload["format_version"] = 999
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_trace_bundle(path)


def test_statistics_survive_round_trip(tmp_path, bundle):
    query_trace, updates = bundle
    path = tmp_path / "bundle.json"
    save_trace_bundle(path, query_trace, updates)
    loaded_queries, loaded_updates = load_trace_bundle(path)
    assert loaded_queries.access_counts() == query_trace.access_counts()
    assert loaded_updates["low-unif"].utilization() == pytest.approx(
        updates["low-unif"].utilization()
    )
