"""Per-rule fixtures for the whole-program simlint rules (SF001-SF004).

Each fixture lays out a miniature ``repro`` tree on disk (the loader
anchors module names at the last ``repro`` directory, so
``tmp/repro/sim/engine.py`` loads as ``repro.sim.engine``) and asserts
which rules fire — and, just as importantly, which don't.
"""

from pathlib import Path
from textwrap import dedent

from repro.lint import lint_paths

# -- harness ----------------------------------------------------------------


def build_tree(tmp_path: Path, files: dict) -> Path:
    """Write ``{"sim/engine.py": source}`` style dicts under tmp/repro."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source), encoding="utf-8")
    return root


def flow_violations(tmp_path: Path, files: dict, select=None):
    root = build_tree(tmp_path, files)
    violations, _files = lint_paths([root], select=select)
    return violations


def rules_fired(violations):
    return {v.rule_id for v in violations}


RNG = """\
    "RandomStreams fixture."


    class RandomStreams:
        def __init__(self, master_seed: int) -> None:
            self.master_seed = master_seed

        def stream(self, name: str):
            return name
"""

ENGINE = """\
    "Simulator fixture."


    class Simulator:
        def __init__(self) -> None:
            self.now = 0.0

        def schedule(self, delay, callback=None):
            return delay
"""

LOCKS = """\
    "LockManager fixture."


    class LockManager:
        def __init__(self) -> None:
            self._held_by = {}
            self._waiting_on = {}
"""


# -- SF001: stream provenance ------------------------------------------------


class TestStreamProvenance:
    def test_literal_names_are_clean(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "core/policy.py": """\
                    "policy."
                    from repro.sim.rng import RandomStreams


                    def make(streams: RandomStreams):
                        return streams.stream("unit-lottery")
                """,
            },
            select=["SF001"],
        )
        assert violations == []

    def test_fstring_template_names_are_clean(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "workload/updates.py": """\
                    "updates."
                    from repro.sim.rng import RandomStreams


                    def make(streams: RandomStreams, spec):
                        return streams.stream(f"update-{spec.name}-exec")
                """,
            },
            select=["SF001"],
        )
        assert violations == []

    def test_unresolvable_name_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "core/policy.py": """\
                    "policy."
                    from repro.sim.rng import RandomStreams


                    def compute_name(k):
                        return str(k) + str(k)


                    def make(streams: RandomStreams, k):
                        return streams.stream(compute_name(k))
                """,
            },
            select=["SF001"],
        )
        assert rules_fired(violations) == {"SF001"}
        assert "cannot be resolved" in violations[0].message

    def test_cross_component_collision_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "core/policy.py": """\
                    "policy."
                    from repro.sim.rng import RandomStreams


                    def make(streams: RandomStreams):
                        return streams.stream("shared-name")
                """,
                "db/server.py": """\
                    "server."
                    from repro.sim.rng import RandomStreams


                    def make(streams: RandomStreams):
                        return streams.stream("shared-name")
                """,
            },
            select=["SF001"],
        )
        assert rules_fired(violations) == {"SF001"}
        assert all("shared-name" in v.message for v in violations)
        assert len(violations) == 2  # both ends of the collision

    def test_same_component_reuse_is_allowed(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "core/a.py": """\
                    "a."
                    from repro.sim.rng import RandomStreams


                    def make(streams: RandomStreams):
                        return streams.stream("core-shared")
                """,
                "core/b.py": """\
                    "b."
                    from repro.sim.rng import RandomStreams


                    def make(streams: RandomStreams):
                        return streams.stream("core-shared")
                """,
            },
            select=["SF001"],
        )
        assert violations == []

    def test_name_resolves_through_caller_parameter(self, tmp_path):
        """A name passed down a call chain resolves to the caller's
        literal — no false positive on the indirection."""
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "core/policy.py": """\
                    "policy."
                    from repro.sim.rng import RandomStreams


                    def _fetch(streams: RandomStreams, name):
                        return streams.stream(name)


                    def make(streams: RandomStreams):
                        return _fetch(streams, "lottery-draws")
                """,
            },
            select=["SF001"],
        )
        assert violations == []

    def test_unrelated_stream_method_is_ignored(self, tmp_path):
        """``.stream`` on a non-RandomStreams receiver is not a site."""
        violations = flow_violations(
            tmp_path,
            {
                "sim/rng.py": RNG,
                "db/values.py": """\
                    "values."


                    class ValueLog:
                        def stream(self, item_id):
                            return item_id


                    def tail(log: ValueLog, item_id):
                        return log.stream(item_id)
                """,
            },
            select=["SF001"],
        )
        assert violations == []


# -- SF002: clock-domain taint ----------------------------------------------


class TestClockDomain:
    def test_wall_clock_into_sim_call_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/engine.py": ENGINE,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.sim.engine import Simulator


                    def run():
                        sim = Simulator()
                        started = time.perf_counter()
                        sim.schedule(started)
                """,
            },
            select=["SF002"],
        )
        assert rules_fired(violations) == {"SF002"}
        assert "schedule" in violations[0].message

    def test_taint_survives_arithmetic_and_assignment(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/engine.py": ENGINE,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.sim.engine import Simulator


                    def run():
                        sim = Simulator()
                        t0 = time.perf_counter()
                        elapsed = (time.perf_counter() - t0) * 1000.0
                        sim.schedule(elapsed + 1.0)
                """,
            },
            select=["SF002"],
        )
        assert rules_fired(violations) == {"SF002"}

    def test_taint_crosses_function_returns(self, tmp_path):
        """Interprocedural: a helper that returns wall time taints its
        callers' use sites."""
        violations = flow_violations(
            tmp_path,
            {
                "sim/engine.py": ENGINE,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.sim.engine import Simulator


                    def _stamp():
                        return time.perf_counter()


                    def run():
                        sim = Simulator()
                        sim.schedule(_stamp())
                """,
            },
            select=["SF002"],
        )
        assert rules_fired(violations) == {"SF002"}

    def test_wall_metadata_report_fields_are_sanctioned(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/report.py": """\
                    "report."


                    class SimulationReport:
                        def __init__(self, mean_latency=0.0, wall_seconds=0.0,
                                     phase_seconds=None) -> None:
                            self.mean_latency = mean_latency
                            self.wall_seconds = wall_seconds
                            self.phase_seconds = phase_seconds
                """,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.experiments.report import SimulationReport


                    def run():
                        t0 = time.perf_counter()
                        return SimulationReport(wall_seconds=time.perf_counter() - t0)
                """,
            },
            select=["SF002"],
        )
        assert violations == []

    def test_other_report_fields_reject_wall_values(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/report.py": """\
                    "report."


                    class SimulationReport:
                        def __init__(self, mean_latency=0.0, wall_seconds=0.0) -> None:
                            self.mean_latency = mean_latency
                            self.wall_seconds = wall_seconds
                """,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.experiments.report import SimulationReport


                    def run():
                        t0 = time.perf_counter()
                        return SimulationReport(mean_latency=time.perf_counter() - t0)
                """,
            },
            select=["SF002"],
        )
        assert rules_fired(violations) == {"SF002"}
        assert "mean_latency" in violations[0].message

    def test_wall_value_stored_on_sim_object_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/engine.py": ENGINE,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.sim.engine import Simulator


                    def run():
                        sim = Simulator()
                        sim.now = time.perf_counter()
                """,
            },
            select=["SF002"],
        )
        assert rules_fired(violations) == {"SF002"}

    def test_untainted_flow_is_clean(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "sim/engine.py": ENGINE,
                "experiments/run.py": """\
                    "run."
                    import time

                    from repro.sim.engine import Simulator


                    def run(config_delay: float):
                        sim = Simulator()
                        wall = time.perf_counter()  # legal: stays in experiments
                        sim.schedule(config_delay)
                        return wall
                """,
            },
            select=["SF002"],
        )
        assert violations == []


# -- SF003: cross-process capture --------------------------------------------


class TestCrossProcessCapture:
    def test_lambda_payload_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/sweep.py": """\
                    "sweep."
                    from multiprocessing import Pool


                    def run(configs):
                        with Pool(2) as pool:
                            return pool.map(lambda c: c, configs)
                """,
            },
            select=["SF003"],
        )
        assert rules_fired(violations) == {"SF003"}
        assert "lambda" in violations[0].message.lower()

    def test_module_level_function_payload_is_clean(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/sweep.py": """\
                    "sweep."
                    from multiprocessing import Pool


                    def _run_one(config):
                        return config


                    def run(configs):
                        with Pool(2) as pool:
                            return pool.map(_run_one, configs)
                """,
            },
            select=["SF003"],
        )
        assert violations == []

    def test_nested_function_payload_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/sweep.py": """\
                    "sweep."
                    from multiprocessing import Pool


                    def run(configs):
                        def _run_one(config):
                            return config

                        with Pool(2) as pool:
                            return pool.map(_run_one, configs)
                """,
            },
            select=["SF003"],
        )
        assert rules_fired(violations) == {"SF003"}

    def test_mutation_after_submit_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/sweep.py": """\
                    "sweep."
                    from multiprocessing import Pool


                    def _run_one(config):
                        return config


                    def run(configs):
                        with Pool(2) as pool:
                            results = pool.map_async(_run_one, configs)
                            configs.append("late")  # raced with the workers
                            return results.get()
                """,
            },
            select=["SF003"],
        )
        assert rules_fired(violations) == {"SF003"}
        assert "mutated after being shipped" in violations[0].message

    def test_worker_reachable_global_mutation_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "experiments/sweep.py": """\
                    "sweep."
                    from multiprocessing import Pool

                    _COUNTER = 0


                    def _run_one(config):
                        global _COUNTER
                        _COUNTER += 1
                        return config


                    def run(configs):
                        with Pool(2) as pool:
                            return pool.map(_run_one, configs)
                """,
            },
            select=["SF003"],
        )
        assert rules_fired(violations) == {"SF003"}
        assert "_COUNTER" in violations[0].message

    def test_non_pool_receiver_is_ignored(self, tmp_path):
        """`.map` on something that isn't pool-ish is not a submission."""
        violations = flow_violations(
            tmp_path,
            {
                "analysis/tables.py": """\
                    "tables."


                    class Grid:
                        def map(self, fn, rows):
                            return [fn(r) for r in rows]


                    def render(grid: Grid, rows):
                        return grid.map(lambda r: r, rows)
                """,
            },
            select=["SF003"],
        )
        assert violations == []


# -- SF004: engine-owned escapes ---------------------------------------------


class TestEngineEscape:
    def test_lock_manager_mutation_via_leaked_alias_is_flagged(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "db/locks.py": LOCKS,
                "core/policy.py": """\
                    "policy."
                    from repro.db.locks import LockManager


                    def tweak(table: LockManager):
                        table._held_by = {}
                """,
            },
            select=["SF004"],
        )
        assert rules_fired(violations) == {"SF004"}
        assert "LockManager._held_by" in violations[0].message

    def test_engine_modules_may_mutate(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "db/locks.py": LOCKS
                + """\


    def reset(table: LockManager):
        table._waiting_on = {}
""",
            },
            select=["SF004"],
        )
        assert violations == []

    def test_provenance_tracks_through_assignment(self, tmp_path):
        """Mutation through an alias bound from a constructor, not an
        annotation, is still tracked."""
        violations = flow_violations(
            tmp_path,
            {
                "db/locks.py": LOCKS,
                "core/policy.py": """\
                    "policy."
                    from repro.db.locks import LockManager


                    def sneak():
                        table = LockManager()
                        table._waiting_on = {}
                """,
            },
            select=["SF004"],
        )
        # Constructing a LockManager is fine; the aliased mutation fires.
        assert rules_fired(violations) == {"SF004"}
        assert len(violations) == 1


# -- suppression interaction --------------------------------------------------


class TestFlowSuppression:
    def test_per_line_suppression_silences_a_flow_finding(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "db/locks.py": LOCKS,
                "core/policy.py": """\
                    "policy."
                    from repro.db.locks import LockManager


                    def tweak(table: LockManager):
                        table._held_by = {}  # simlint: disable=SF004 -- fixture
                """,
            },
            select=["SF004"],
        )
        assert violations == []

    def test_file_level_suppression_silences_a_flow_finding(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "db/locks.py": LOCKS,
                "core/policy.py": """\
                    "policy."
                    # simlint: disable-file=SF004 -- fixture
                    from repro.db.locks import LockManager


                    def tweak(table: LockManager):
                        table._held_by = {}
                """,
            },
            select=["SF004"],
        )
        assert violations == []

    def test_sl_suppression_does_not_hide_sf_findings(self, tmp_path):
        violations = flow_violations(
            tmp_path,
            {
                "db/locks.py": LOCKS,
                "core/policy.py": """\
                    "policy."
                    from repro.db.locks import LockManager


                    def tweak(table: LockManager):
                        table._held_by = {}  # simlint: disable=SL003 -- wrong layer
                """,
            },
            select=["SF004"],
        )
        assert rules_fired(violations) == {"SF004"}
