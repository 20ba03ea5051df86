"""Heterogeneous user preferences: premium vs free tiers.

The paper assumes one system-wide penalty profile and notes the
framework "can be easily extended to support multiple preferences"
(Section 3.1).  This example exercises that extension: every query
carries its *own* :class:`~repro.core.usm.PenaltyProfile`, the
admission controller prices both of its checks per user (the predicted
miss vs rejection trade-off, and the endangered-queries USM check), and
the :class:`~repro.core.usm.MixedUsmAccumulator` reports satisfaction
per class.

The two classes price failures in opposite ways: **traders** hate a
broken promise (C_fm high, C_r low — "only admit me if you will
deliver"), while **browsers** hate being turned away (C_r high, C_fm
low — "let me try, I don't mind a slow page").  Expect mirror-image
outcome mixes from the same server: traders collect rejections and
almost no misses; browsers are always admitted and absorb the misses.

The example builds its :class:`~repro.db.server.Server` by hand rather
than through the experiment harness's ``Substrate``: a substrate is
assembled from one ``ExperimentConfig`` with a single system-wide
profile and a plain ``UsmAccumulator``, so it cannot attach a
``PenaltyProfile`` to each query or score the run with a
``MixedUsmAccumulator``.

Run:
    python examples/user_classes.py
"""

import random

from repro.core.unit import UnitConfig, UnitPolicy
from repro.core.usm import MixedUsmAccumulator, PenaltyProfile
from repro.db.items import ItemTable
from repro.db.server import ARRIVAL_EVENT_PRIORITY, Server, ServerConfig
from repro.db.transactions import Outcome, QueryTransaction
from repro.experiments.report import ascii_table
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

HORIZON = 400.0
N_ITEMS = 64

TRADER = PenaltyProfile(c_r=0.1, c_fm=1.0, c_fs=1.0, name="trader")
BROWSER = PenaltyProfile(c_r=1.0, c_fm=0.1, c_fs=0.1, name="browser")


def main() -> None:
    streams = RandomStreams(31)
    rng = streams.stream("workload")
    sim = Simulator()
    items = ItemTable.uniform(N_ITEMS, ideal_period=8.0, update_exec_time=0.06)
    policy = UnitPolicy(
        UnitConfig(profile=BROWSER, control_period=1.0),  # system default
        streams.stream("unit-lottery"),
    )
    server = Server(sim, items, policy, ServerConfig())

    # Periodic updates taking ~half the CPU.
    for item in items:
        t = rng.uniform(0, item.ideal_period)
        while t <= HORIZON:
            sim.schedule(
                t,
                lambda i=item.item_id: server.source_update_arrival(i),
                priority=ARRIVAL_EVENT_PRIORITY,
            )
            t += item.ideal_period

    # Query stream: 30% traders, 70% browsers, same behaviour otherwise.
    accumulator = MixedUsmAccumulator(default_profile=BROWSER)
    t = 0.0
    while t <= HORIZON:
        t += rng.expovariate(12.0)  # with updates: moderate overload
        trader = rng.random() < 0.3
        txn = QueryTransaction(
            txn_id=server.next_txn_id(),
            arrival=t,
            exec_time=rng.uniform(0.02, 0.08),
            items=(rng.randrange(N_ITEMS),),
            relative_deadline=rng.uniform(0.1, 0.4),
            freshness_req=0.9,
            profile=TRADER if trader else BROWSER,
            user_class="trader" if trader else "browser",
        )
        sim.schedule(
            t, lambda q=txn: server.submit_query(q), priority=ARRIVAL_EVENT_PRIORITY
        )
    sim.run(until=HORIZON + 1.0)

    for record in server.records:
        accumulator.record(record.outcome, record.profile, record.user_class)

    rows = []
    for user_class in accumulator.classes():
        ratios = accumulator.class_ratios(user_class)
        rows.append(
            [
                user_class,
                f"{accumulator.class_average_usm(user_class):+.4f}",
                f"{ratios[Outcome.SUCCESS]:.3f}",
                f"{ratios[Outcome.REJECTED]:.3f}",
                f"{ratios[Outcome.DEADLINE_MISS]:.3f}",
                f"{ratios[Outcome.DATA_STALE]:.3f}",
            ]
        )
    print(
        ascii_table(
            ["class", "USM", "success", "reject", "DMF", "DSF"],
            rows,
            title="Per-class satisfaction under one shared server (UNIT)",
        )
    )
    print(
        "\nExpected shape: traders (C_fm >> C_r) show high rejection and"
        "\nnear-zero DMF; browsers (C_r >> C_fm) are never rejected and"
        "\nabsorb the misses instead -- opposite mixes from one server."
    )


if __name__ == "__main__":
    main()
