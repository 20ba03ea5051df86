"""Tests for the content-addressed workload cache.

The cache is only sound if (a) each key covers exactly the config
fields that shape what it addresses — ``query_key()`` the base query
trace, ``workload_key()`` the (query, update) pair — and (b) a cached
run is byte-identical to an uncached one.  Both are asserted here.
"""

import dataclasses
import pickle

import pytest

from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.experiments import runner
from repro.experiments.config import SCALES, ExperimentConfig, ExperimentScale
from repro.experiments.runner import build_query_workload, build_workload, run_experiment
from repro.experiments.sweep import WORKERS_ENV, run_grid
from repro.faults.scenario import FaultScenario, FlashCrowd, HotspotShift, UpdateStorm
from repro.sim.rng import RandomStreams
from repro.workload.cache import WorkloadCache, default_cache
from repro.workload.updates import STANDARD_UPDATE_TRACES, build_update_trace

from tests.test_determinism_regression import _stable_report_bytes

SMOKE = SCALES["smoke"]


def _config(**overrides):
    base = dict(policy="unit", update_trace="med-unif", seed=7, scale=SMOKE)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestWorkloadKey:
    def test_key_is_stable_across_equal_configs(self):
        assert _config().workload_key() == _config().workload_key()

    def test_policy_and_profile_do_not_shape_the_workload(self):
        """Fields that only affect the *policy* must share one key —
        that sharing is the whole point of the cache."""
        key = _config().workload_key()
        assert _config(policy="odu").workload_key() == key
        assert _config(policy="elastic").workload_key() == key
        assert _config(profile=TABLE2_PROFILES["gt1-high-cfs"]).workload_key() == key
        assert _config(keep_records=True).workload_key() == key

    def test_workload_fields_change_the_key(self):
        key = _config().workload_key()
        assert _config(seed=8).workload_key() != key
        assert _config(update_trace="med-pos").workload_key() != key
        assert _config(scale=SCALES["small"]).workload_key() != key
        assert _config(zipf_skew=1.7).workload_key() != key
        assert _config(items_per_query=2).workload_key() != key


class TestCacheBehavior:
    def test_hit_returns_the_same_objects(self):
        cache = WorkloadCache()
        first = cache.get(_config())
        second = cache.get(_config(policy="imu"))  # same workload key
        assert second[0] is first[0]
        assert second[1] is first[1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_bound_is_enforced(self):
        cache = WorkloadCache(max_entries=1)
        cache.get(_config())
        cache.get(_config(update_trace="med-pos"))  # evicts the first
        assert len(cache) == 1
        cache.get(_config())  # regenerated, not remembered
        assert cache.misses == 3

    def test_clear_resets_counters(self):
        cache = WorkloadCache()
        cache.get(_config())
        cache.get(_config())
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert (cache.hits, cache.misses) == (0, 0)
        assert len(cache) == 0


class TestCrossProcessEquivalence:
    def test_fresh_caches_generate_identical_workloads(self):
        """The contract behind the SF003 suppression on ``get_workload``:
        each sweep-pool worker holds its *own* module-global cache, so
        sharing is only sound because generation is a pure function of
        the config.  Two caches standing in for two worker processes
        must produce identical traces."""
        query_a, update_a = WorkloadCache().get(_config())
        query_b, update_b = WorkloadCache().get(_config())
        assert [q.arrival for q in query_a.queries] == [
            q.arrival for q in query_b.queries
        ]
        assert [item.period for item in update_a.items] == [
            item.period for item in update_b.items
        ]


class TestCachedRunsAreByteIdentical:
    def test_warm_cache_changes_nothing(self):
        """The regression gate for the whole scheme: a report computed
        from a cache hit is byte-for-byte the report computed from a
        freshly generated workload."""
        cache = default_cache()
        cache.clear()
        cold = _stable_report_bytes(run_experiment(_config()))  # miss
        warm = _stable_report_bytes(run_experiment(_config()))  # hit
        assert cold == warm


#: Every field :func:`build_query_workload` reads (``scale.*`` on the
#: scale preset).  The seed reaches it through the streams.
QUERY_FIELDS = frozenset(
    {
        "scale.horizon",
        "scale.n_items",
        "scale.query_utilization",
        "scale.mean_query_service",
        "zipf_skew",
        "items_per_query",
    }
)

#: The fields :func:`build_workload` reads on top of the base query trace
#: and :func:`build_query_workload` does not.
UPDATE_FIELDS = frozenset({"update_trace", "scale.mean_update_exec", "faults"})

#: The smoke scale with slower updates: an update-only difference.
SLOW_UPDATES = dataclasses.replace(SMOKE, mean_update_exec=0.3)

FLASH_CROWD = FaultScenario(
    name="crowd", flash_crowds=(FlashCrowd(start=20.0, end=50.0, multiplier=3.0),)
)
HOTSPOT_SHIFT = FaultScenario(
    name="shift", hotspot_shifts=(HotspotShift(at=60.0, rotation=5),)
)
UPDATE_STORM = FaultScenario(
    name="storm", update_storms=(UpdateStorm(start=10.0, end=40.0, period_factor=0.25),)
)


class _ReadLog:
    """Stands in for a config (or its scale) and logs each field read."""

    def __init__(self, target, log, prefix=""):
        self._target = target
        self._log = log
        self._prefix = prefix

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if isinstance(value, ExperimentScale):
            return _ReadLog(value, self._log, "scale.")
        self._log.add(self._prefix + name)
        return value


def _with_field(config, field, value):
    if field.startswith("scale."):
        scale = dataclasses.replace(config.scale, **{field.rpartition(".")[2]: value})
        return dataclasses.replace(config, scale=scale)
    return dataclasses.replace(config, **{field: value})


def _changed(config, field):
    """``config`` with ``field`` moved to another valid value."""
    special = {
        "update_trace": "high-unif",
        "faults": FLASH_CROWD,
    }
    if field in special:
        return _with_field(config, field, special[field])
    if field == "seed":
        return dataclasses.replace(config, seed=config.seed + 1)
    owner = config.scale if field.startswith("scale.") else config
    current = getattr(owner, field.rpartition(".")[2])
    if isinstance(current, int):
        return _with_field(config, field, current + 1)
    return _with_field(config, field, current / 2)


def _count_generations(monkeypatch):
    """Count query-trace and update-trace generations by wrapping the
    two generators the runner calls."""
    counts = {"query": 0, "update": 0}

    def counting(name, kind):
        original = getattr(runner, name)

        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, name, wrapper)

    counting("generate_cello_trace", "query")
    counting("build_update_trace", "update")
    return counts


class TestKeyCoverage:
    def test_field_lists_match_what_generation_reads(self):
        config = _config(faults=FLASH_CROWD)
        query_reads = set()
        base = build_query_workload(_ReadLog(config, query_reads), RandomStreams(7))
        assert query_reads == QUERY_FIELDS
        workload_reads = set()
        build_workload(
            _ReadLog(config, workload_reads), RandomStreams(7), lambda *_: base
        )
        assert UPDATE_FIELDS <= workload_reads <= UPDATE_FIELDS | QUERY_FIELDS

    @pytest.mark.parametrize("field", sorted(QUERY_FIELDS | {"seed"}))
    def test_query_fields_change_both_keys(self, field):
        config = _config()
        changed = _changed(config, field)
        assert changed.query_key() != config.query_key()
        assert changed.workload_key() != config.workload_key()

    @pytest.mark.parametrize("field", sorted(UPDATE_FIELDS))
    def test_update_fields_change_the_workload_key_only(self, field):
        config = _config()
        changed = _changed(config, field)
        assert changed.query_key() == config.query_key()
        assert changed.workload_key() != config.workload_key()


class TestQueryTier:
    def test_update_only_differences_share_one_query_trace(self, monkeypatch):
        counts = _count_generations(monkeypatch)
        cache = WorkloadCache()
        plain, _ = cache.get(_config())
        other_trace, _ = cache.get(_config(update_trace="high-unif"))
        slow_updates, _ = cache.get(_config(scale=SLOW_UPDATES))
        cache.get(_config(faults=FLASH_CROWD))
        cache.get(_config(faults=UPDATE_STORM))
        assert other_trace is plain
        assert slow_updates is plain
        assert list(cache._queries.values()) == [plain]
        assert counts == {"query": 1, "update": 5}
        assert (cache.hits, cache.misses) == (0, 5)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"update_trace": "high-unif"},
            {"scale": SLOW_UPDATES},
            {"faults": FLASH_CROWD},
            {"faults": HOTSPOT_SHIFT},
            {"faults": UPDATE_STORM},
        ],
        ids=["plain", "high-unif", "mean-exec", "flash-crowd", "hotspot", "storm"],
    )
    def test_cached_pairs_pickle_like_fresh_generation(self, overrides):
        """Each pair is built on a base another config generated first,
        yet pickles to the bytes of a from-scratch generation."""
        cache = WorkloadCache()
        cache.get(_config(update_trace="low-unif"))  # fills the query tier
        config = _config(**overrides)
        fresh = build_workload(config, RandomStreams(config.seed))
        assert pickle.dumps(cache.get(config)) == pickle.dumps(fresh)

    @pytest.mark.parametrize("faults", [FLASH_CROWD, HOTSPOT_SHIFT], ids=["crowd", "shift"])
    def test_trace_shaping_fault_leaves_the_cached_base_unperturbed(self, faults):
        cache = WorkloadCache()
        perturbed, _ = cache.get(_config(faults=faults))
        base = cache._queries[_config().query_key()]
        pristine = build_query_workload(_config(), RandomStreams(7))
        assert pickle.dumps(base) == pickle.dumps(pristine)
        assert perturbed is not base
        assert [(q.arrival, q.items) for q in perturbed.queries] != [
            (q.arrival, q.items) for q in base.queries
        ]
        plain, _ = cache.get(_config())
        assert plain is base

    def test_clear_empties_both_tiers(self):
        cache = WorkloadCache()
        cache.get(_config())
        cache.clear()
        assert len(cache) == 0
        assert not cache._queries

    def test_lru_bound_holds_on_both_tiers(self, monkeypatch):
        counts = _count_generations(monkeypatch)
        cache = WorkloadCache(max_entries=1)
        cache.get(_config())
        cache.get(_config(seed=8))  # evicts the seed-7 pair and base
        assert (len(cache), len(cache._queries)) == (1, 1)
        cache.get(_config(update_trace="high-unif"))  # seed-7 base regenerated
        assert (len(cache), len(cache._queries)) == (1, 1)
        assert counts == {"query": 3, "update": 3}

    def test_query_trace_does_not_depend_on_generation_order(self):
        """The query streams are disjoint from the update and fault
        streams, so drawing those first changes no query draw."""
        config = _config()
        first = build_query_workload(config, RandomStreams(7))
        streams = RandomStreams(7)
        build_update_trace(
            STANDARD_UPDATE_TRACES["high-unif"],
            first.access_counts(),
            horizon=config.scale.horizon,
            streams=streams,
            mean_exec=config.scale.mean_update_exec,
        )
        streams.stream("fault-flash-0").random()
        after = build_query_workload(config, streams)
        assert pickle.dumps(after) == pickle.dumps(first)


class TestGenerationCounts:
    def test_update_volume_grid_generates_one_query_trace(self, monkeypatch):
        """Exact work counts, zero slack: the 2-policy x 3-trace grid
        builds one base query trace for its seed and one update trace
        per update trace; the second policy of each trace hits."""
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        counts = _count_generations(monkeypatch)
        cache = default_cache()
        cache.clear()
        reports = run_grid(
            ["unit", "imu"],
            ["low-unif", "med-unif", "high-unif"],
            [PenaltyProfile.naive()],
            SMOKE,
            seed=7,
        )
        assert len(reports) == 6
        assert counts == {"query": 1, "update": 3}
        assert (cache.hits, cache.misses) == (3, 3)
