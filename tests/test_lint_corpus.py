"""Seeded-violation corpus: every rule catches its seeds, and only its own.

One table of seeds.  Each rule gets one violation shape for each
component it patrols, and SF002 gets five extra wall-clock shapes in
``core/baselines.py`` (module level, from-import, a local-only call
through the from-imported name, a class-body ``sleep`` and a returned
``datetime.now()``).  Every seed is appended to one copy of
``src/repro`` and the whole copy is linted once; each finding is matched
to its seed by file and line.  A seed must be caught by exactly its
expected set of rule ids, and no finding may land off a seed line.

The table doubles as the overlap audit in ``docs/static-analysis.md``:
a per-file rule whose seeds are all caught by a program rule is
redundant and should be folded into it.
"""

import dataclasses
import shutil
from pathlib import Path
from typing import Dict, FrozenSet, List, Set, Tuple

import pytest

from repro.lint import lint_paths
from repro.lint.base import known_rule_ids

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The file each component's seeds are appended to (none is exempt
#: from any rule seeded into it).
TARGETS: Dict[str, str] = {
    "core": "core/baselines.py",
    "db": "db/server.py",
    "experiments": "experiments/runner.py",
    "faults": "faults/driver.py",
    "fleet": "fleet/runner.py",
    "lint": "lint/sarif.py",
    "obs": "obs/export.py",
    "sim": "sim/stats.py",
    "workload": "workload/queries.py",
}

SIM_DOMAIN = ("core", "db", "obs", "sim", "workload")
OUTSIDE_SIM = ("experiments", "faults", "fleet", "lint")
ALL_COMPONENTS = tuple(sorted(TARGETS))


@dataclasses.dataclass(frozen=True)
class Seed:
    """One violation shape appended to one component's target file."""

    rule: str
    component: str
    shape: str
    code: str  # appended verbatim; ``{tag}`` makes its names unique
    flagged: str  # substring of the one line the finding must land on
    expect: FrozenSet[str]


def _seeds(rule: str, components, shape: str, code: str, flagged: str) -> List[Seed]:
    return [
        Seed(rule, comp, shape, code, flagged, frozenset({rule})) for comp in components
    ]


SEEDS: List[Seed] = [
    *_seeds(
        "SL001",
        SIM_DOMAIN,
        "ambient random.random() call",
        "import random\n\n\ndef _sl001_{tag}() -> float:\n"
        "    return random.random()\n",
        "return random.random()",
    ),
    *_seeds(
        "SL003",
        ("core", "db"),
        "iteration over set(...)",
        "def _sl003_{tag}(items: list) -> object:\n"
        "    for item in set(items):\n"
        "        return item\n"
        "    return None\n",
        "for item in set(items):",
    ),
    *_seeds(
        "SL004",
        ALL_COMPONENTS,
        "Outcome-keyed dict with 2 of 4 members",
        "from repro.db.transactions import Outcome\n\n"
        "_SL004_{tag} = {{Outcome.SUCCESS: 1, Outcome.REJECTED: 2}}\n",
        "_SL004_",
    ),
    *_seeds(
        "SL006",
        ("core", "db"),
        "unannotated public function",
        "def sl006_{tag}(x):\n    return x\n",
        "def sl006_",
    ),
    *_seeds(
        "SL007",
        ALL_COMPONENTS,
        "bare print()",
        "def _sl007_{tag}(x: int) -> None:\n    print(x)\n",
        "print(x)",
    ),
    *_seeds(
        "SF001",
        ALL_COMPONENTS,
        "stream name built at runtime",
        "from repro.sim.rng import RandomStreams\n\n\n"
        "def _sf001_{tag}(streams: RandomStreams, k: int) -> object:\n"
        "    return streams.stream(str(k) + '-draws')\n",
        "streams.stream(",
    ),
    *_seeds(
        "SF002",
        SIM_DOMAIN,
        "wall-clock read in a function",
        "import time\n\n\ndef _sf002_{tag}() -> float:\n    return time.time()\n",
        "return time.time()",
    ),
    *_seeds(
        "SF002",
        OUTSIDE_SIM,
        "wall-clock value scheduled as sim time",
        "import time\n\nfrom repro.sim.engine import Simulator\n\n\n"
        "def _sf002_{tag}(sim: Simulator) -> None:\n"
        "    sim.schedule(time.perf_counter(), None)\n",
        "sim.schedule(",
    ),
    *_seeds(
        "SF003",
        ALL_COMPONENTS,
        "lambda shipped to a pool",
        "def _sf003_{tag}(pool: object, configs: list) -> object:\n"
        "    return pool.map(lambda c: c, configs)\n",
        "pool.map(",
    ),
    *_seeds(
        "SF004",
        ALL_COMPONENTS,
        "LockManager attribute written outside db/locks.py",
        "from repro.db.locks import LockManager\n\n\n"
        "def _sf004_{tag}(table: LockManager) -> None:\n"
        "    table._held_by = {{}}\n",
        "table._held_by",
    ),
    # Five wall-clock shapes covering every scope a read can sit in.
    *_seeds(
        "SF002",
        ("core",),
        "module-level time.time()",
        "import time\n\n_WALL_T0 = time.time()\n",
        "_WALL_T0 =",
    ),
    *_seeds(
        "SF002",
        ("core",),
        "from time import perf_counter",
        "from time import perf_counter\n",
        "from time import perf_counter",
    ),
    *_seeds(
        "SF002",
        ("core",),
        "perf_counter() whose value stays local",
        "def _local_perf_counter() -> None:\n"
        "    started = perf_counter()\n"
        "    del started\n",
        "started = perf_counter()",
    ),
    *_seeds(
        "SF002",
        ("core",),
        "time.sleep(0.0) in a class body",
        "import time\n\n\nclass _Pause:\n    time.sleep(0.0)\n",
        "time.sleep(0.0)",
    ),
    *_seeds(
        "SF002",
        ("core",),
        "return datetime.datetime.now()",
        "import datetime\n\n\ndef _stamp() -> object:\n"
        "    return datetime.datetime.now()\n",
        "return datetime.datetime.now()",
    ),
]

Location = Tuple[str, int]  # (target relpath, 1-based line)


def build_corpus(dest: Path) -> Tuple[Path, List[Location]]:
    """Copy ``src/repro`` under ``dest`` and append every seed.

    Returns the tree and, for each seed in ``SEEDS`` order, the line its
    finding must land on.
    """
    tree = dest / "repro"
    shutil.copytree(SRC_REPRO, tree, ignore=shutil.ignore_patterns("__pycache__"))
    locations: List[Location] = []
    for index, seed in enumerate(SEEDS):
        relpath = TARGETS[seed.component]
        target = tree / relpath
        text = target.read_text(encoding="utf-8").rstrip("\n") + "\n\n\n"
        code = seed.code.format(tag=f"{seed.component}_{index}")
        (offset,) = [
            i for i, line in enumerate(code.splitlines()) if seed.flagged in line
        ]
        locations.append((relpath, text.count("\n") + 1 + offset))
        target.write_text(text + code, encoding="utf-8")
    return tree, locations


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Tuple[List[Location], Dict[Location, Set[str]]]:
    """One lint run over the whole seeded tree: the seed locations and
    the rule ids found at each (path, line)."""
    tree, locations = build_corpus(tmp_path_factory.mktemp("corpus"))
    violations, _ = lint_paths([tree])
    found: Dict[Location, Set[str]] = {}
    for v in violations:
        relpath = Path(v.path).relative_to(tree).as_posix()
        found.setdefault((relpath, v.line), set()).add(v.rule_id)
    return locations, found


@pytest.mark.parametrize(
    "index",
    range(len(SEEDS)),
    ids=[f"{s.rule}-{s.component}-{s.shape}" for s in SEEDS],
)
def test_seed_is_caught_by_exactly_its_rules(corpus, index):
    locations, found = corpus
    seed = SEEDS[index]
    assert found.get(locations[index], set()) == seed.expect


def test_no_finding_lands_off_a_seed_line(corpus):
    locations, found = corpus
    assert sorted(set(found) - set(locations)) == []


def test_corpus_covers_every_rule():
    assert {seed.rule for seed in SEEDS} == set(known_rule_ids())
