"""Writing your own transaction-management policy.

The :class:`~repro.db.policy_api.ServerPolicy` interface is the
extension point the whole evaluation is built on: implement four small
hooks and the simulator, workload generators, and metrics all work
unchanged.

This example implements **FreshFirst**, a deliberately simple strawman:

* admit a query only if the server is less than ``max_inflight`` deep
  (a fixed concurrency cap instead of UNIT's EST reasoning);
* apply an update only if the item was queried recently (a poor man's
  demand-driven freshness without UNIT's tickets or ODU's waiting).

It then races FreshFirst against UNIT on the same workload.  Expect
UNIT to win — but the point is how little code a new policy needs.

Run:
    python examples/custom_policy.py
"""

from repro.db.items import DataItem
from repro.db.policy_api import ServerPolicy
from repro.db.transactions import QueryTransaction
from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.report import ascii_table
from repro.experiments.runner import run_experiment
import repro.experiments.runner as runner_mod
from repro.db.transactions import Outcome


class FreshFirstPolicy(ServerPolicy):
    """Recency-gated updates plus a fixed admission cap."""

    def __init__(self, recency_window: float = 30.0, max_inflight: int = 8) -> None:
        self.recency_window = recency_window
        self.max_inflight = max_inflight
        self._last_access: dict = {}

    def admit_query(self, query: QueryTransaction, server) -> bool:
        inflight = len(server.ready.ready_queries())
        if server.running_transaction() is not None:
            inflight += 1
        return inflight < self.max_inflight

    def on_query_admitted(self, query: QueryTransaction, server) -> None:
        for item_id in query.items:
            self._last_access[item_id] = server.now

    def should_apply_update(self, item: DataItem, server) -> bool:
        last = self._last_access.get(item.item_id)
        return last is not None and server.now - last <= self.recency_window

    def describe(self) -> str:
        return "FreshFirst"


def run_with_policy(policy_name: str, custom=None):
    config = ExperimentConfig(
        policy="unit",  # placeholder; swapped below for the custom policy
        update_trace="med-unif",
        seed=7,
        scale=SCALES["small"],
    )
    if custom is None:
        config.policy = policy_name
        return run_experiment(config)

    original = runner_mod.make_policy
    runner_mod.make_policy = lambda config, streams, recorder=None: custom
    try:
        return run_experiment(config)
    finally:
        runner_mod.make_policy = original


def main() -> None:
    rows = []
    for label, report in (
        ("FreshFirst (this file)", run_with_policy("custom", FreshFirstPolicy())),
        ("UNIT", run_with_policy("unit")),
        ("ODU", run_with_policy("odu")),
    ):
        rows.append(
            [
                label,
                f"{report.usm:+.4f}",
                f"{report.ratios[Outcome.SUCCESS]:.3f}",
                f"{report.ratios[Outcome.REJECTED]:.3f}",
                f"{report.ratios[Outcome.DEADLINE_MISS]:.3f}",
                f"{report.ratios[Outcome.DATA_STALE]:.3f}",
            ]
        )
    print(
        ascii_table(
            ["policy", "USM", "success", "reject", "DMF", "DSF"],
            rows,
            title="A 40-line custom policy vs the built-ins (med-unif)",
        )
    )


if __name__ == "__main__":
    main()
