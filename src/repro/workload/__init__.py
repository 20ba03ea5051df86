"""Workload generation.

The paper drives its evaluation with (a) a user-query trace derived
from the HP ``cello99a`` disk trace and (b) nine synthetic update
traces — three volumes (15 %, 75 %, 150 % of CPU) times three spatial
distributions (uniform, positively correlated, negatively correlated
with the query access histogram, coefficient 0.8).

We cannot redistribute ``cello99a``; :mod:`repro.workload.cello`
synthesizes a trace with the same consumed statistics (bursty arrivals,
Zipf-skewed access over 1024 regions, long-tailed service times) at a
configurable scale.  See DESIGN.md Section 3 for the substitution
rationale.
"""

from repro.workload.cello import CelloConfig, ReadColumns, generate_cello_trace
from repro.workload.correlation import correlated_weights, pearson
from repro.workload.queries import QuerySpec, QueryTrace, build_query_trace
from repro.workload.traces import load_trace_bundle, save_trace_bundle
from repro.workload.updates import (
    STANDARD_UPDATE_TRACES,
    ItemUpdateSpec,
    UpdateTrace,
    UpdateTraceSpec,
    build_update_trace,
)

__all__ = [
    "CelloConfig",
    "ItemUpdateSpec",
    "QuerySpec",
    "QueryTrace",
    "ReadColumns",
    "STANDARD_UPDATE_TRACES",
    "UpdateTrace",
    "UpdateTraceSpec",
    "build_query_trace",
    "build_update_trace",
    "correlated_weights",
    "generate_cello_trace",
    "load_trace_bundle",
    "pearson",
    "save_trace_bundle",
]
