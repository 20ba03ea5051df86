"""Fixture-level tests for each per-file simlint rule, and for SF002's reads.

Every rule gets snippets that MUST trigger and snippets that must NOT,
plus tests for suppression comments, rule selection, and the registry.
Fixture paths are virtual: ``lint_source`` only uses them to decide
which component a file belongs to and its module name.  ``lint_source``
lints the snippet as a one-module program, so program rules (SF002's
wall-clock reads) run on it too.
"""

import pytest

from repro.lint import lint_source
from repro.lint.base import Rule, all_rules, get_rule, known_rule_ids, register, select_rules
from repro.lint.walker import LintError, classify_component
from pathlib import Path

CORE = "src/repro/core/fixture.py"
DB = "src/repro/db/fixture.py"
SIM = "src/repro/sim/fixture.py"
WORKLOAD = "src/repro/workload/fixture.py"
EXPERIMENTS = "src/repro/experiments/fixture.py"
OBS = "src/repro/obs/fixture.py"


def rules_fired(source, path):
    return sorted({v.rule_id for v in lint_source(source, path)})


def violations(source, path, rule_id):
    return [v for v in lint_source(source, path) if v.rule_id == rule_id]


class TestSL001AmbientRandom:
    def test_module_call_triggers(self):
        src = "import random\nx = random.random()\n"
        found = violations(src, CORE, "SL001")
        assert len(found) == 1
        assert "ambient random.random" in found[0].message

    def test_direct_random_construction_triggers(self):
        src = "import random\nrng = random.Random(42)\n"
        found = violations(src, DB, "SL001")
        assert len(found) == 1
        assert "RandomStreams" in found[0].message

    def test_from_import_and_call_trigger(self):
        src = "from random import gauss\ny = gauss(0.0, 1.0)\n"
        found = violations(src, WORKLOAD, "SL001")
        assert len(found) == 2  # the import and the call

    def test_aliased_module_triggers(self):
        src = "import random as rnd\nx = rnd.randint(1, 6)\n"
        assert len(violations(src, SIM, "SL001")) == 1

    def test_annotation_only_use_is_clean(self):
        src = (
            "import random\n\n"
            "def sample(rng: random.Random) -> float:\n"
            "    return rng.random()\n"
        )
        assert violations(src, CORE, "SL001") == []

    def test_out_of_scope_component_is_clean(self):
        src = "import random\nx = random.random()\n"
        assert violations(src, EXPERIMENTS, "SL001") == []

    def test_rng_module_is_exempt(self):
        src = "import random\nstream = random.Random(7)\n"
        assert violations(src, "src/repro/sim/rng.py", "SL001") == []


class TestSL002WallClock:
    """Wall-clock reads in simulation components (SF002 reports them)."""

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nnow = time.time()\n",
            "import time\nstart = time.perf_counter()\n",
            "import time\ntime.sleep(0.1)\n",
            "import datetime\nstamp = datetime.datetime.now()\n",
            "from datetime import datetime\nstamp = datetime.now()\n",
            "from datetime import date\ntoday = date.today()\n",
            "from time import perf_counter\n",
        ],
    )
    def test_wall_clock_triggers(self, snippet):
        assert len(violations(snippet, SIM, "SF002")) >= 1

    def test_virtual_clock_is_clean(self):
        src = (
            "def tick(sim) -> float:\n"
            "    return sim.now + 1.0\n"
        )
        assert violations(src, SIM, "SF002") == []

    def test_experiments_may_measure_wall_time(self):
        src = "import time\nstarted = time.perf_counter()\n"
        assert violations(src, EXPERIMENTS, "SF002") == []

    def test_unrelated_time_attribute_is_clean(self):
        src = "import time\nz = time.struct_time\n"
        assert violations(src, DB, "SF002") == []


class TestSL003UnorderedIteration:
    def test_set_call_triggers(self):
        src = "def pick(items):\n    for x in set(items):\n        return x\n"
        assert len(violations(src, CORE, "SL003")) == 1

    def test_dict_keys_triggers(self):
        src = "def pick(d):\n    for k in d.keys():\n        return k\n"
        found = violations(src, DB, "SL003")
        assert len(found) == 1
        assert ".keys()" in found[0].message

    def test_set_typed_local_triggers(self):
        src = (
            "def pick(a, b):\n"
            "    pending = {a, b}\n"
            "    for x in pending:\n"
            "        return x\n"
        )
        assert len(violations(src, CORE, "SL003")) == 1

    def test_comprehension_over_set_triggers(self):
        src = "def f(xs):\n    return [y for y in set(xs)]\n"
        assert len(violations(src, DB, "SL003")) == 1

    def test_enumerate_descends_into_set(self):
        src = "def f(xs):\n    for i, x in enumerate(set(xs)):\n        return i\n"
        assert len(violations(src, CORE, "SL003")) == 1

    def test_sorted_wrapping_is_clean(self):
        src = "def f(xs):\n    for x in sorted(set(xs)):\n        return x\n"
        assert violations(src, CORE, "SL003") == []

    def test_plain_dict_iteration_is_clean(self):
        src = "def f(d):\n    for k, v in d.items():\n        return k, v\n"
        assert violations(src, DB, "SL003") == []

    def test_list_iteration_is_clean(self):
        src = "def f(xs):\n    for x in list(xs):\n        return x\n"
        assert violations(src, CORE, "SL003") == []

    def test_out_of_scope_component_is_clean(self):
        src = "def f(xs):\n    for x in set(xs):\n        return x\n"
        assert violations(src, WORKLOAD, "SL003") == []


_OUTCOME_PRELUDE = "from repro.db.transactions import Outcome\n\n"


class TestSL004OutcomeExhaustive:
    def test_partial_elif_chain_triggers(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    if outcome is Outcome.SUCCESS:\n"
            "        return 1\n"
            "    elif outcome is Outcome.REJECTED:\n"
            "        return 2\n"
            "    elif outcome is Outcome.DEADLINE_MISS:\n"
            "        return 3\n"
            "    return 4\n"
        )
        found = violations(src, CORE, "SL004")
        assert len(found) == 1
        assert "DATA_STALE" in found[0].message

    def test_partial_guard_run_triggers(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    if outcome is Outcome.SUCCESS:\n"
            "        return 1\n"
            "    if outcome is Outcome.REJECTED:\n"
            "        return 2\n"
            "    return 0\n"
        )
        found = violations(src, CORE, "SL004")
        assert len(found) == 1
        assert "DEADLINE_MISS" in found[0].message

    def test_all_four_members_clean(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    if outcome is Outcome.SUCCESS:\n"
            "        return 1\n"
            "    if outcome is Outcome.REJECTED:\n"
            "        return 2\n"
            "    if outcome is Outcome.DEADLINE_MISS:\n"
            "        return 3\n"
            "    if outcome is Outcome.DATA_STALE:\n"
            "        return 4\n"
            "    raise ValueError(outcome)\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_else_raise_is_loud_catch_all(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    if outcome is Outcome.SUCCESS:\n"
            "        return 1\n"
            "    elif outcome in (Outcome.REJECTED, Outcome.DEADLINE_MISS):\n"
            "        return 2\n"
            "    else:\n"
            "        raise ValueError(outcome)\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_trailing_raise_after_guard_run_is_clean(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    if outcome is Outcome.SUCCESS:\n"
            "        return 1\n"
            "    if outcome is Outcome.REJECTED:\n"
            "        return 2\n"
            "    raise ValueError(outcome)\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_membership_tuple_counts_members(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    if outcome in (Outcome.SUCCESS, Outcome.DATA_STALE):\n"
            "        return 1\n"
            "    elif outcome in (Outcome.REJECTED, Outcome.DEADLINE_MISS):\n"
            "        return 2\n"
            "    return 0\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_single_guard_is_clean(self):
        src = _OUTCOME_PRELUDE + (
            "def early(outcome):\n"
            "    if outcome is Outcome.REJECTED:\n"
            "        return None\n"
            "    return 1\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_partial_dict_literal_triggers(self):
        src = _OUTCOME_PRELUDE + (
            "WEIGHTS = {Outcome.SUCCESS: 1.0, Outcome.REJECTED: -1.0}\n"
        )
        found = violations(src, OBS, "SL004")  # rule applies everywhere
        assert len(found) == 1
        assert "mapping" in found[0].message

    def test_full_dict_literal_clean(self):
        src = _OUTCOME_PRELUDE + (
            "WEIGHTS = {\n"
            "    Outcome.SUCCESS: 1.0,\n"
            "    Outcome.REJECTED: 0.0,\n"
            "    Outcome.DEADLINE_MISS: 0.0,\n"
            "    Outcome.DATA_STALE: 0.0,\n"
            "}\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_partial_match_triggers(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    match outcome:\n"
            "        case Outcome.SUCCESS:\n"
            "            return 1\n"
            "        case Outcome.REJECTED:\n"
            "            return 2\n"
        )
        assert len(violations(src, CORE, "SL004")) == 1

    def test_match_with_raising_wildcard_clean(self):
        src = _OUTCOME_PRELUDE + (
            "def book(outcome):\n"
            "    match outcome:\n"
            "        case Outcome.SUCCESS | Outcome.DATA_STALE:\n"
            "            return 1\n"
            "        case Outcome.REJECTED:\n"
            "            return 2\n"
            "        case _:\n"
            "            raise ValueError(outcome)\n"
        )
        assert violations(src, CORE, "SL004") == []

    def test_non_outcome_chain_is_ignored(self):
        src = (
            "def route(policy):\n"
            "    if policy == 'unit':\n"
            "        return 1\n"
            "    elif policy == 'imu':\n"
            "        return 2\n"
            "    return 0\n"
        )
        assert violations(src, CORE, "SL004") == []


class TestSL006PublicAnnotations:
    def test_unannotated_public_function_triggers(self):
        src = "def admit(query, server):\n    return True\n"
        found = violations(src, CORE, "SL006")
        assert len(found) == 1
        assert "query" in found[0].message and "return" in found[0].message

    def test_missing_return_only(self):
        src = "def admit(query: object):\n    return True\n"
        found = violations(src, DB, "SL006")
        assert len(found) == 1
        assert found[0].message.endswith("for: return")

    def test_unannotated_method_self_is_exempt(self):
        src = (
            "class Policy:\n"
            "    def admit(self, query: object) -> bool:\n"
            "        return True\n"
        )
        assert violations(src, CORE, "SL006") == []

    def test_private_function_is_exempt(self):
        src = "def _helper(x):\n    return x\n"
        assert violations(src, CORE, "SL006") == []

    def test_nested_function_is_exempt(self):
        src = (
            "def outer() -> int:\n"
            "    def inner(x):\n"
            "        return x\n"
            "    return inner(1)\n"
        )
        assert violations(src, CORE, "SL006") == []

    def test_dunder_counts_as_public(self):
        src = (
            "class Box:\n"
            "    def __init__(self, size):\n"
            "        self.size = size\n"
        )
        found = violations(src, DB, "SL006")
        assert len(found) == 1

    def test_starargs_need_annotations(self):
        src = "def spread(*args, **kwargs) -> None:\n    pass\n"
        found = violations(src, CORE, "SL006")
        assert len(found) == 1
        assert "*args" in found[0].message and "**kwargs" in found[0].message

    def test_out_of_scope_component_is_clean(self):
        src = "def helper(x):\n    return x\n"
        assert violations(src, EXPERIMENTS, "SL006") == []


class TestSL007BarePrint:
    def test_print_in_library_code_triggers(self):
        src = "def report(x):\n    print(x)\n"
        found = violations(src, CORE, "SL007")
        assert len(found) == 1
        assert "logging_setup" in found[0].message

    def test_print_outside_sim_components_triggers_too(self):
        # SL007 patrols every component, not just the simulation path.
        src = "print('progress')\n"
        assert len(violations(src, EXPERIMENTS, "SL007")) == 1
        assert len(violations(src, OBS, "SL007")) == 1

    def test_builtins_print_triggers(self):
        src = "import builtins\nbuiltins.print('hi')\n"
        assert len(violations(src, DB, "SL007")) == 1

    def test_main_module_is_exempt(self):
        src = "print('the artifact itself')\n"
        assert violations(src, "src/repro/experiments/__main__.py", "SL007") == []

    def test_cli_module_is_exempt(self):
        src = "print('usage: ...')\n"
        assert violations(src, "src/repro/lint/cli.py", "SL007") == []

    def test_logger_calls_are_clean(self):
        src = (
            "from repro.obs.logging_setup import get_logger\n"
            "_log = get_logger(__name__)\n"
            "def report(x):\n"
            "    _log.info('%s', x)\n"
        )
        assert violations(src, CORE, "SL007") == []

    def test_shadowed_print_is_clean(self):
        src = (
            "def print(*args):\n"
            "    pass\n"
            "print('not the builtin')\n"
        )
        assert violations(src, CORE, "SL007") == []

    def test_docstring_mention_is_clean(self):
        src = '"""Example::\n\n    print(report)\n"""\nx = 1\n'
        assert violations(src, SIM, "SL007") == []

    def test_suppression_comment_silences(self):
        src = "print('x')  # simlint: disable=SL007 -- debugging aid\n"
        assert violations(src, CORE, "SL007") == []


class TestSuppression:
    def test_line_disable_silences_rule(self):
        src = "import time\nnow = time.time()  # simlint: disable=SF002\n"
        assert violations(src, SIM, "SF002") == []

    def test_line_disable_with_justification(self):
        src = (
            "import time\n"
            "now = time.time()  # simlint: disable=SF002 -- cache warmup, not sim state\n"
        )
        assert violations(src, SIM, "SF002") == []

    def test_line_disable_all_rules(self):
        src = "import time\nnow = time.time()  # simlint: disable\n"
        assert violations(src, SIM, "SF002") == []

    def test_wrong_rule_id_does_not_silence(self):
        src = "import time\nnow = time.time()  # simlint: disable=SL001\n"
        assert len(violations(src, SIM, "SF002")) == 1

    def test_file_level_disable(self):
        src = (
            "# simlint: disable-file=SF002\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert violations(src, SIM, "SF002") == []

    def test_file_disable_only_named_rule(self):
        src = (
            "# simlint: disable-file=SL001\n"
            "import time\n"
            "a = time.time()\n"
        )
        assert len(violations(src, SIM, "SF002")) == 1

    def test_sf_ids_parse_in_the_shared_grammar(self):
        """Program-rule ids ride the same suppression comments; naming one
        must neither crash the per-file rules nor silence them."""
        src = (
            "import random\n"
            "x = random.random()  # simlint: disable=SF002 -- program-rule id only\n"
        )
        assert len(violations(src, SIM, "SL001")) == 1

    def test_mixed_sl_and_sf_ids_on_one_line(self):
        src = (
            "import random\n"
            "import time\n"
            "x = random.random() + time.time()  # simlint: disable=SL001,SF002 -- both\n"
        )
        assert violations(src, SIM, "SL001") == []
        assert violations(src, SIM, "SF002") == []


class TestSuppressionWarnings:
    def test_unknown_rule_id_is_reported(self):
        from repro.lint.walker import suppression_warnings

        warnings = suppression_warnings(
            "import time\nnow = time.time()  # simlint: disable=SL099\n",
            "mod.py",
            known_ids={"SL001", "SF002"},
        )
        assert warnings == ["mod.py:2: suppression names unknown rule 'SL099'"]

    def test_known_ids_from_either_layer_do_not_warn(self):
        from repro.lint.walker import suppression_warnings

        warnings = suppression_warnings(
            "a = 1  # simlint: disable=SL001,SF002\n",
            "mod.py",
            known_ids={"SL001", "SF002"},
        )
        assert warnings == []

    def test_file_level_unknown_id_is_reported_at_line_one(self):
        from repro.lint.walker import suppression_warnings

        warnings = suppression_warnings(
            "# simlint: disable-file=XX123\na = 1\n",
            "mod.py",
            known_ids={"SL001"},
        )
        assert warnings == ["mod.py:1: suppression names unknown rule 'XX123'"]

    def test_prose_in_docstring_examples_does_not_warn(self):
        """The grammar examples in walker.py's own docstring parse as
        suppressions with prose trailing the id; prose is not a typo."""
        from repro.lint.walker import suppression_warnings

        src = '"""\n# simlint: disable=SL001            silence SL001 on this line\n"""\n'
        assert suppression_warnings(src, "m.py", {"SL001"}) == []

    def test_bare_disable_never_warns(self):
        from repro.lint.walker import suppression_warnings

        assert (
            suppression_warnings("a = 1  # simlint: disable\n", "m.py", {"SL001"})
            == []
        )


class TestSarifExport:
    def test_per_file_violations_render_as_sarif(self):
        import json

        from repro.lint.sarif import to_sarif

        found = violations("import time\nnow = time.time()\n", SIM, "SF002")
        sarif = to_sarif(found, [("SF002", "no wall-clock reads")], "simlint")
        text = json.dumps(sarif)  # must be JSON-serializable end to end
        assert json.loads(text)["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["SF002"]
        (result,) = run["results"]
        assert result["ruleId"] == "SF002"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] >= 1

    def test_empty_run_is_valid(self):
        from repro.lint.sarif import to_sarif

        sarif = to_sarif([], [("SL001", "x")], "simlint")
        assert sarif["runs"][0]["results"] == []


class TestConfigAndRegistry:
    def test_select_restricts_rules(self):
        src = "import time\nimport random\na = time.time()\nb = random.random()\n"
        found = lint_source(src, SIM, select=["SF002"])
        assert {v.rule_id for v in found} == {"SF002"}

    def test_ignore_drops_rule(self):
        src = "import time\na = time.time()\n"
        assert lint_source(src, SIM, ignore=["SF002"]) == []

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="SL999"):
            select_rules(select=["SL999"])

    def test_all_rules_registered(self):
        assert known_rule_ids() == [
            "SF001",
            "SF002",
            "SF003",
            "SF004",
            "SL001",
            "SL003",
            "SL004",
            "SL006",
            "SL007",
        ]
        for rule in all_rules():
            assert rule.summary

    def test_get_rule(self):
        assert get_rule("SL004").rule_id == "SL004"

    def test_duplicate_registration_rejected(self):
        class Impostor(Rule):
            rule_id = "SL001"
            summary = "impostor"

        with pytest.raises(ValueError, match="duplicate rule id"):
            register(Impostor)


class TestWalkerBasics:
    def test_classify_importable_tree(self):
        assert classify_component(Path("src/repro/db/server.py")) == "db"
        assert classify_component(Path("src/repro/__init__.py")) is None

    def test_classify_fixture_tree(self):
        assert classify_component(Path("/tmp/x/sim/engine.py")) == "sim"
        assert classify_component(Path("/tmp/elsewhere/file.py")) is None

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError, match="syntax error"):
            lint_source("def broken(:\n", CORE)
