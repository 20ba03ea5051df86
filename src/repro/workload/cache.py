"""Content-addressed memoization of workload generation.

Every figure in the paper is a *paired* comparison: each policy and
penalty profile runs against the identical seeded workload, and every
update-volume cell of a seed plays one query workload against a
different update trace.  Yet each
:func:`repro.experiments.runner.run_experiment` call would regenerate
the cello arrival trace, the query trace, and the update trace from
scratch.  This module shares that work in two in-memory LRU tiers:

* **pairs** — ``(query_trace, update_trace)`` under
  ``ExperimentConfig.workload_key()``, a canonical hash of exactly the
  workload-shaping fields plus the seed;
* **base query traces** — the unperturbed query trace under
  ``ExperimentConfig.query_key()``, the query-shaping subset of those
  fields.  A pair miss generates only the update trace and the fault
  perturbation against the cached base, so the cells of an
  update-volume sweep generate one query trace per seed (the query
  trace is nearly all of the generation cost).

A sweep that fans out over processes warms the cache in the parent
before it forks its workers (:func:`repro.experiments.sweep.fan_out`),
so the workers reuse the parent's traces without a store of their own.

Sharing is safe on two axes:

* **Determinism** — workload generation draws only from named
  ``RandomStreams`` substreams that are disjoint from every policy
  stream (seeds are derived per stream name), so skipping regeneration
  perturbs nothing downstream.  The base query trace's ``cello-*`` and
  ``query-*`` streams are likewise disjoint from the ``update-*`` and
  ``fault-*`` ones, so a pair built on a cached base is the pair a
  fresh generation gives; cached and uncached runs are byte-identical
  (see ``tests/test_workload_cache.py``).
* **Aliasing** — traces are immutable specification objects; the
  runner builds a fresh item table and fresh transaction objects per
  run and never writes into a trace.  Callers must uphold that: treat
  cached traces as frozen.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable, Tuple

from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # import would be circular at runtime (runner -> workload)
    from repro.experiments.config import ExperimentConfig
    from repro.workload.queries import QueryTrace
    from repro.workload.updates import UpdateTrace

    Workload = Tuple[QueryTrace, UpdateTrace]
else:
    Workload = tuple

class WorkloadCache:
    """Two in-memory LRU tiers of generated workloads.

    Attributes:
        max_entries: Capacity of each tier (a paper-scale trace pair is
            a few MB; the default keeps a full 3-trace grid plus room).
        hits / misses: Counters of the pair tier, for reporting.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Workload]" = OrderedDict()
        self._queries: "OrderedDict[str, QueryTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry of both tiers and reset the hit/miss counters.

        Counters restart so that statistics gathered after a
        ``clear()`` describe only the new population, not the evicted
        one.
        """
        self._entries.clear()
        self._queries.clear()
        self.hits = 0
        self.misses = 0

    def _remember(self, entries: "OrderedDict[str, Any]", key: str, value: Any) -> None:
        """Store ``value`` as the most recent entry of one tier and
        evict that tier's oldest beyond :attr:`max_entries`."""
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)

    def _query_trace(
        self, config: "ExperimentConfig", streams: RandomStreams
    ) -> "QueryTrace":
        """The query tier: the base query trace for ``config``,
        generated from ``streams`` on a miss."""
        # Imported lazily: the experiments package sits above workload in
        # the layering and importing it at module load would be circular.
        from repro.experiments.runner import build_query_workload

        key = config.query_key()
        found = self._queries.get(key)
        if found is None:
            found = build_query_workload(config, streams)
        self._remember(self._queries, key, found)
        return found

    def get(self, config: "ExperimentConfig") -> Workload:
        """The (query_trace, update_trace) pair for ``config``.

        A hit, or else generate-and-store.  Generation
        takes the base query trace from the query tier, so only the
        update trace and the fault perturbation are new work when a
        config sharing the :meth:`~ExperimentConfig.query_key` came
        before.  The traces returned for equal keys are the *same
        objects* — treat them as immutable.
        """
        key = config.workload_key()
        entries = self._entries
        found = entries.get(key)
        if found is not None:
            entries.move_to_end(key)
            self.hits += 1
            return found
        self.misses += 1
        from repro.experiments.runner import build_workload  # see _query_trace

        workload = build_workload(config, RandomStreams(config.seed), self._query_trace)
        self._remember(entries, key, workload)
        return workload

    def warm(self, configs: Iterable["ExperimentConfig"]) -> int:
        """Materialize every distinct workload among ``configs``.

        Returns the number of distinct keys touched.  Warming the
        default cache before forking worker processes lets the children
        inherit the generated traces for free.
        """
        seen = set()
        for config in configs:
            key = config.workload_key()
            if key in seen:
                continue
            seen.add(key)
            self.get(config)
        return len(seen)


_DEFAULT = WorkloadCache()


def default_cache() -> WorkloadCache:
    """The process-wide cache used by :func:`get_workload`."""
    return _DEFAULT


def get_workload(config: "ExperimentConfig") -> Workload:
    """Cached :func:`repro.experiments.runner.build_workload`."""
    return _DEFAULT.get(config)  # simlint: disable=SF003 -- per-process memoization keyed by content hash; values are regenerated deterministically from the config, so per-process copies are byte-identical (test_workload_cache cross-process test)
