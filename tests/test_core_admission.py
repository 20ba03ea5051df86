"""Tests for Query Admission Control (paper Section 3.3)."""

import pytest

from repro.core.admission import FLEX_MAX, FLEX_MIN, AdmissionController
from repro.core.usm import PenaltyProfile
from repro.db.items import ItemTable
from repro.db.policy_api import ServerPolicy
from repro.db.server import Server, ServerConfig
from repro.db.transactions import QueryTransaction, TransactionState, UpdateTransaction
from repro.sim.engine import Simulator


class _Inert(ServerPolicy):
    def admit_query(self, query, server):
        return True

    def should_apply_update(self, item, server):
        return True


def make_server():
    sim = Simulator()
    items = ItemTable.uniform(4, ideal_period=100.0, update_exec_time=0.5)
    return sim, Server(sim, items, _Inert(), ServerConfig())


def queue_query(server, txn_id, deadline, exec_time=0.5):
    txn = QueryTransaction(
        txn_id=txn_id,
        arrival=0.0,
        exec_time=exec_time,
        items=(0,),
        relative_deadline=deadline,
    )
    txn.state = TransactionState.READY
    server.ready.push(txn)
    return txn


def incoming(deadline, exec_time=0.5, txn_id=99):
    return QueryTransaction(
        txn_id=txn_id,
        arrival=0.0,
        exec_time=exec_time,
        items=(0,),
        relative_deadline=deadline,
    )


class TestDeadlineCheck:
    def test_admits_when_idle(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive())
        decision = ac.decide(incoming(deadline=1.0), server)
        assert decision.admitted
        assert decision.est == 0.0

    def test_rejects_when_exec_exceeds_deadline(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive())
        decision = ac.decide(incoming(deadline=0.4, exec_time=0.5), server)
        assert not decision.admitted
        assert decision.reason == "deadline-check"

    def test_est_counts_earlier_deadline_queries_only(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        queue_query(server, 1, deadline=1.0, exec_time=0.3)
        queue_query(server, 2, deadline=50.0, exec_time=0.3)  # later deadline
        decision = ac.decide(incoming(deadline=10.0, exec_time=0.1), server)
        assert decision.est == pytest.approx(0.3)

    def test_est_counts_update_backlog(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        update = UpdateTransaction(
            txn_id=5, arrival=0.0, exec_time=0.7, item_id=1, period=10.0
        )
        update.state = TransactionState.READY
        server.ready.push(update)
        decision = ac.decide(incoming(deadline=10.0), server)
        assert decision.est == pytest.approx(0.7)

    def test_c_flex_scales_est(self):
        _, server = make_server()
        queue_query(server, 1, deadline=0.9, exec_time=0.6)
        tight = AdmissionController(PenaltyProfile.naive(), c_flex=2.0)
        loose = AdmissionController(PenaltyProfile.naive(), c_flex=0.1)
        query = incoming(deadline=1.0, exec_time=0.3)
        assert not tight.decide(query, server).admitted  # 2*0.6+0.3 >= 1.0
        assert loose.decide(query, server).admitted  # 0.06+0.3 < 1.0

    def test_update_load_stretches_est_boundedly(self):
        _, server = make_server()
        queue_query(server, 1, deadline=1.0, exec_time=0.4)
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        ac.update_load = 0.99  # raw stretch would be 20x; capped at 2x
        decision = ac.decide(incoming(deadline=2.0, exec_time=0.1), server)
        assert decision.est == pytest.approx(0.8)  # 0.4 * 2.0 cap


class TestEqualDeadlineTies:
    """Equal-deadline ready queries are classified by the full EDF
    tie-break (``priority_key``): each is either ahead of the newcomer
    (in the EST backlog) or behind it (an endangered candidate) —
    never both, never neither."""

    def test_tied_query_ahead_counts_in_est(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        queue_query(server, 1, deadline=5.0, exec_time=0.3)  # id 1 < 99
        decision = ac.decide(incoming(deadline=5.0, exec_time=0.1), server)
        assert decision.est == pytest.approx(0.3)

    def test_tied_query_ahead_is_not_endangered(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive())
        tied = queue_query(server, 1, deadline=5.0, exec_time=0.3)
        assert ac.endangered_queries(incoming(deadline=5.0), server) == []
        assert tied.state is TransactionState.READY

    def test_tied_query_behind_is_an_endangered_candidate(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive())
        # id 100 > 99: behind the newcomer under EDF, and with only
        # 0.05s of slack the newcomer's 0.1s execution endangers it.
        queue_query(server, 100, deadline=0.35, exec_time=0.3)
        endangered = ac.endangered_queries(
            incoming(deadline=0.35, exec_time=0.1), server
        )
        assert [txn.txn_id for txn in endangered] == [100]

    def test_ties_partition_exactly_once(self):
        """Regression: with every deadline equal, the ready set must
        split cleanly around the newcomer — ids below it in the EST,
        ids above it in the endangered scan, nothing lost."""
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        for txn_id in (1, 2, 100, 101):
            queue_query(server, txn_id, deadline=1.0, exec_time=0.2)
        newcomer = incoming(deadline=1.0, exec_time=0.5)
        # Ahead: ids 1 and 2 (0.4s of backlog).
        assert ac.earliest_start(newcomer, server) == pytest.approx(0.4)
        # Behind: ids 100 and 101, both endangered by a 0.5s insertion
        # (slacks 0.4 and 0.2).
        endangered = ac.endangered_queries(newcomer, server)
        assert [txn.txn_id for txn in endangered] == [100, 101]


class TestControlSignals:
    def test_tighten_and_loosen_move_ten_percent(self):
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        ac.tighten()
        assert ac.c_flex == pytest.approx(1.1)
        ac.loosen()
        assert ac.c_flex == pytest.approx(0.99)
        assert ac.tighten_signals == 1
        assert ac.loosen_signals == 1

    def test_c_flex_clamped(self):
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=1.0)
        for _ in range(200):
            ac.tighten()
        assert ac.c_flex == FLEX_MAX
        for _ in range(2000):
            ac.loosen()
        assert ac.c_flex == FLEX_MIN


class TestUsmCheck:
    def profile(self):
        return PenaltyProfile(c_r=0.5, c_fm=0.3, c_fs=0.1)

    def test_endangered_detection(self):
        _, server = make_server()
        ac = AdmissionController(self.profile())
        # A later-deadline query with slack smaller than the newcomer's
        # exec time is endangered.
        queue_query(server, 1, deadline=0.62, exec_time=0.5)
        newcomer = incoming(deadline=0.5, exec_time=0.3)
        endangered = ac.endangered_queries(newcomer, server)
        assert [txn.txn_id for txn in endangered] == [1]

    def test_not_endangered_with_ample_slack(self):
        _, server = make_server()
        ac = AdmissionController(self.profile())
        queue_query(server, 1, deadline=10.0, exec_time=0.5)
        newcomer = incoming(deadline=0.5, exec_time=0.3)
        assert ac.endangered_queries(newcomer, server) == []

    def test_already_doomed_not_counted(self):
        """A query whose slack is already negative cannot be 'newly'
        endangered by the admission."""
        _, server = make_server()
        ac = AdmissionController(self.profile())
        queue_query(server, 1, deadline=0.4, exec_time=0.5)  # hopeless already
        newcomer = incoming(deadline=0.3, exec_time=0.2)
        assert ac.endangered_queries(newcomer, server) == []

    def test_usm_check_rejects_when_dmf_cost_exceeds_rejection(self):
        _, server = make_server()
        profile = PenaltyProfile(c_r=0.1, c_fm=0.5, c_fs=0.1)  # DMF dear
        ac = AdmissionController(profile, c_flex=0.01)
        queue_query(server, 1, deadline=0.62, exec_time=0.5)
        newcomer = incoming(deadline=2.0, exec_time=0.3)
        # Wait: newcomer deadline later than queued -> endangered set empty.
        # Use an urgent newcomer instead:
        newcomer = incoming(deadline=0.45, exec_time=0.3)
        decision = ac.decide(newcomer, server)
        assert not decision.admitted
        assert decision.reason == "usm-check"

    @pytest.mark.parametrize(
        "c_fm, c_r, n, admitted", [(0.1, 0.7, 7, True), (0.2, 5.0, 25, False)]
    )
    def test_dmf_cost_adds_one_c_fm_per_endangered_query(self, c_fm, c_r, n, admitted):
        """C_fm is added once per endangered query, in order.  Seven
        additions of 0.1 give 0.7, not above C_r = 0.7, where ``7 * 0.1``
        and a compensated ``sum()`` give 0.7000000000000001; 25 additions
        of 0.2 give 5.000000000000002, above C_r = 5.0, where ``25 * 0.2``
        gives 5.0."""
        _, server = make_server()
        # Each queued query finishes 0.1 s after the one before it with
        # 0.25 s of slack, less than the newcomer's 0.3 s of work.
        for k in range(n):
            queue_query(server, k + 1, deadline=0.1 * (k + 1) + 0.25, exec_time=0.1)
        profile = PenaltyProfile(c_r=c_r, c_fm=c_fm, c_fs=0.1)
        ac = AdmissionController(profile, c_flex=0.01)
        decision = ac.decide(incoming(deadline=0.31, exec_time=0.3), server)
        assert decision.endangered == n
        assert decision.admitted is admitted
        assert decision.reason == ("ok" if admitted else "usm-check")

    def test_usm_check_disabled_for_naive_profile(self):
        _, server = make_server()
        ac = AdmissionController(PenaltyProfile.naive(), c_flex=0.01)
        queue_query(server, 1, deadline=0.62, exec_time=0.5)
        newcomer = incoming(deadline=0.45, exec_time=0.3)
        assert ac.decide(newcomer, server).admitted

    def test_gamble_clause_admits_predicted_miss_when_rejection_dearer(self):
        """With C_r > C_fm, a predicted miss is the cheaper outcome, so
        the deadline check lets the query gamble (Eq. 3 economics)."""
        _, server = make_server()
        queue_query(server, 1, deadline=0.9, exec_time=5.0)  # wall of work
        gambler_profile = PenaltyProfile(c_r=1.0, c_fm=0.1, c_fs=0.1)
        ac = AdmissionController(gambler_profile, c_flex=1.0)
        decision = ac.decide(incoming(deadline=1.0, exec_time=0.3), server)
        assert decision.admitted

    def test_gamble_clause_inert_for_naive_and_cfm_heavy_profiles(self):
        _, server = make_server()
        queue_query(server, 1, deadline=0.9, exec_time=5.0)
        for profile in (
            PenaltyProfile.naive(),
            PenaltyProfile(c_r=0.1, c_fm=1.0, c_fs=0.1),
        ):
            ac = AdmissionController(profile, c_flex=1.0)
            decision = ac.decide(incoming(deadline=1.0, exec_time=0.3), server)
            assert not decision.admitted
            assert decision.reason == "deadline-check"

    def test_usm_check_can_be_switched_off(self):
        _, server = make_server()
        profile = PenaltyProfile(c_r=0.1, c_fm=0.5, c_fs=0.1)
        ac = AdmissionController(profile, c_flex=0.01, use_usm_check=False)
        queue_query(server, 1, deadline=0.62, exec_time=0.5)
        newcomer = incoming(deadline=0.45, exec_time=0.3)
        assert ac.decide(newcomer, server).admitted
