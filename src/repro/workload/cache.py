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

An optional on-disk pickle store of pairs (conventionally
``benchmarks/out/.workload-cache/``) adds cross-process reuse.

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

The on-disk store is enabled by pointing the ``REPRO_WORKLOAD_CACHE``
environment variable at a directory (``0``/``off``/``no``/empty
disable it).  Disk entries are written atomically (temp file +
``os.replace``), so concurrent workers racing on the same key simply
overwrite each other with identical bytes.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Tuple

from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # import would be circular at runtime (runner -> workload)
    from repro.experiments.config import ExperimentConfig
    from repro.workload.queries import QueryTrace
    from repro.workload.updates import UpdateTrace

    Workload = Tuple[QueryTrace, UpdateTrace]
else:
    Workload = tuple

#: Environment variable naming the on-disk store directory.
CACHE_DIR_ENV = "REPRO_WORKLOAD_CACHE"

#: Values of :data:`CACHE_DIR_ENV` that mean "memory only".
_DISABLED_VALUES = frozenset({"", "0", "off", "no", "false"})

#: Version tag baked into disk filenames; bump on pickle-layout changes.
_DISK_FORMAT = "v1"


def disk_dir_from_env() -> Optional[Path]:
    """The on-disk store directory selected by the environment, if any."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    if raw.lower() in _DISABLED_VALUES:
        return None
    return Path(raw)


class WorkloadCache:
    """Two in-memory LRU tiers of generated workloads, plus a disk tier.

    Attributes:
        max_entries: Capacity of each in-memory tier (a paper-scale
            trace pair is a few MB; the default keeps a full 3-trace
            grid plus room).
        disk_dir: Directory of the pickle store, or None for memory
            only.  When unset, each :meth:`get` consults
            :data:`CACHE_DIR_ENV` instead — so a worker process enables
            the disk tier by exporting the variable.
        hits / misses / disk_hits: Counters of the pair tier, for
            reporting; ``hits`` counts memory hits only.
    """

    def __init__(
        self,
        max_entries: int = 32,
        disk_dir: Optional[Path] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[str, Workload]" = OrderedDict()
        self._queries: "OrderedDict[str, QueryTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry of both tiers and reset the
        hit/miss counters.

        The disk tier is untouched.  Counters restart so that
        statistics gathered after a ``clear()`` describe only the new
        population, not the evicted one.
        """
        self._entries.clear()
        self._queries.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def _resolve_disk_dir(self) -> Optional[Path]:
        if self.disk_dir is not None:
            return self.disk_dir
        return disk_dir_from_env()

    def _disk_path(self, key: str) -> Optional[Path]:
        base = self._resolve_disk_dir()
        if base is None:
            return None
        return base / f"{key}-{_DISK_FORMAT}.pkl"

    def _load_disk(self, key: str) -> Optional[Workload]:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            with path.open("rb") as handle:
                workload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None  # missing or stale/corrupt entry: regenerate
        if not (isinstance(workload, tuple) and len(workload) == 2):
            return None
        return workload

    def _store_disk(self, key: str, workload: Workload) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp-{os.getpid()}")
            with tmp.open("wb") as handle:
                pickle.dump(workload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            return  # the disk tier is best-effort; memory still holds it

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

        Memory hit, then disk hit, then generate-and-store.  Generation
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
        workload = self._load_disk(key)
        if workload is not None:
            self.disk_hits += 1
            self._remember(entries, key, workload)
            return workload
        self.misses += 1
        from repro.experiments.runner import build_workload  # see _query_trace

        workload = build_workload(config, RandomStreams(config.seed), self._query_trace)
        self._remember(entries, key, workload)
        self._store_disk(key, workload)
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
