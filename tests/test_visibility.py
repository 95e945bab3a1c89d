"""Unit tests for MVCC tuple visibility (HeapTupleSatisfiesMVCC rules),
including the SSI-relevant classification of concurrent writers."""

import pytest

from repro.mvcc import CommitLog, Snapshot, tuple_visibility
from repro.mvcc.visibility import TxnView, page_visibility, tuple_is_dead
from repro.obs.metrics import Counter
from repro.storage import TID, HeapTuple


def make_tuple(xmin, cmin=0, xmax=0, cmax=0, lock_only=False):
    return HeapTuple(tid=TID(0, 0), data={"k": 1}, xmin=xmin, cmin=cmin,
                     xmax=xmax, cmax=cmax, xmax_lock_only=lock_only)


@pytest.fixture
def clog():
    log = CommitLog()
    for xid in range(3, 30):
        log.register(xid)
    return log


def view(*xids, cid=1):
    return TxnView(xids=frozenset(xids), curcid=cid)


class TestCreatorVisibility:
    def test_committed_before_snapshot_visible(self, clog):
        clog.set_committed([5])
        snap = Snapshot(xmin=6, xmax=10)
        res = tuple_visibility(make_tuple(5), snap, view(9), clog)
        assert res.visible

    def test_in_progress_creator_invisible_and_concurrent(self, clog):
        snap = Snapshot(xmin=5, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(7), snap, view(9), clog)
        assert not res.visible
        assert res.creator_concurrent
        assert res.creator_xid == 7

    def test_committed_after_snapshot_invisible_and_concurrent(self, clog):
        clog.set_committed([7])
        snap = Snapshot(xmin=5, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(7), snap, view(9), clog)
        assert not res.visible
        assert res.creator_concurrent

    def test_aborted_creator_invisible_not_concurrent(self, clog):
        clog.set_aborted([7])
        snap = Snapshot(xmin=5, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(7), snap, view(9), clog)
        assert not res.visible
        assert not res.creator_concurrent  # dead, not a conflict

    def test_own_insert_from_earlier_command_visible(self, clog):
        snap = Snapshot(xmin=5, xmax=10, xip=frozenset({9}))
        res = tuple_visibility(make_tuple(9, cmin=0), snap, view(9, cid=1), clog)
        assert res.visible

    def test_own_insert_from_current_command_invisible(self, clog):
        # Halloween protection: a command cannot see its own inserts.
        snap = Snapshot(xmin=5, xmax=10, xip=frozenset({9}))
        res = tuple_visibility(make_tuple(9, cmin=1), snap, view(9, cid=1), clog)
        assert not res.visible

    def test_own_aborted_subxact_insert_invisible(self, clog):
        clog.set_aborted([8])  # subxact 8 rolled back
        snap = Snapshot(xmin=5, xmax=10, xip=frozenset({9}))
        res = tuple_visibility(make_tuple(8, cmin=0), snap, view(9), clog)
        assert not res.visible


class TestDeleterVisibility:
    def test_deleted_by_committed_visible_txn_invisible(self, clog):
        clog.set_committed([5, 6])
        snap = Snapshot(xmin=7, xmax=10)
        res = tuple_visibility(make_tuple(5, xmax=6), snap, view(9), clog)
        assert not res.visible
        assert not res.deleter_concurrent

    def test_deleted_by_in_progress_txn_still_visible_concurrent(self, clog):
        clog.set_committed([5])
        snap = Snapshot(xmin=6, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(5, xmax=7), snap, view(9), clog)
        assert res.visible
        assert res.deleter_concurrent
        assert res.deleter_xid == 7

    def test_deleted_by_txn_committed_after_snapshot_visible(self, clog):
        clog.set_committed([5, 7])
        snap = Snapshot(xmin=6, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(5, xmax=7), snap, view(9), clog)
        assert res.visible
        assert res.deleter_concurrent

    def test_deleter_aborted_visible(self, clog):
        clog.set_committed([5])
        clog.set_aborted([7])
        snap = Snapshot(xmin=6, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(5, xmax=7), snap, view(9), clog)
        assert res.visible
        assert not res.deleter_concurrent

    def test_lock_only_xmax_does_not_delete(self, clog):
        # SELECT FOR UPDATE stores the locker in xmax without deleting.
        clog.set_committed([5])
        snap = Snapshot(xmin=6, xmax=10, xip=frozenset({7}))
        res = tuple_visibility(make_tuple(5, xmax=7, lock_only=True),
                               snap, view(9), clog)
        assert res.visible
        assert not res.deleter_concurrent

    def test_own_delete_earlier_command_invisible(self, clog):
        clog.set_committed([5])
        snap = Snapshot(xmin=6, xmax=10, xip=frozenset({9}))
        res = tuple_visibility(make_tuple(5, xmax=9, cmax=0), snap,
                               view(9, cid=1), clog)
        assert not res.visible

    def test_own_delete_current_command_still_visible(self, clog):
        clog.set_committed([5])
        snap = Snapshot(xmin=6, xmax=10, xip=frozenset({9}))
        res = tuple_visibility(make_tuple(5, xmax=9, cmax=1), snap,
                               view(9, cid=1), clog)
        assert res.visible


class TestDeadness:
    def test_aborted_creator_is_dead(self, clog):
        clog.set_aborted([5])
        assert tuple_is_dead(make_tuple(5), horizon_xmin=3, clog=clog)

    def test_live_tuple_not_dead(self, clog):
        clog.set_committed([5])
        assert not tuple_is_dead(make_tuple(5), horizon_xmin=100, clog=clog)

    def test_deleted_before_horizon_dead(self, clog):
        clog.set_committed([5, 6])
        assert tuple_is_dead(make_tuple(5, xmax=6), horizon_xmin=7, clog=clog)

    def test_deleted_after_horizon_not_dead(self, clog):
        clog.set_committed([5, 6])
        assert not tuple_is_dead(make_tuple(5, xmax=6), horizon_xmin=6,
                                 clog=clog)

    def test_lock_only_xmax_not_dead(self, clog):
        clog.set_committed([5, 6])
        assert not tuple_is_dead(make_tuple(5, xmax=6, lock_only=True),
                                 horizon_xmin=10, clog=clog)


class TestPageVisibility:
    """page_visibility must agree with tuple_visibility called per
    tuple: same visible set, same flagged slots and results, same hint
    bits afterwards, same hint-hit count."""

    OWN = 14
    SNAP = Snapshot(xmin=5, xmax=15, xip=frozenset({8, 9, 11, 13}))

    @pytest.fixture
    def clog(self):
        log = CommitLog()
        for xid in range(3, 30):
            log.register(xid)
        log.set_committed([5, 6, 10, 13, 20])
        log.set_aborted([7, 16])
        return log  # 8, 9, 11 and our own 14 are in progress

    @staticmethod
    def page():
        """One page holding every case, in slot order."""
        def tup(xmin, cmin=0, xmax=0, lock_only=False, **hints):
            t = make_tuple(xmin, cmin=cmin, xmax=xmax, lock_only=lock_only)
            for name, value in hints.items():
                setattr(t, name, value)
            return t
        tuples = [
            tup(5, xmin_committed=True),               # hinted committed
            tup(6),                                    # unhinted committed
            tup(7),                                    # aborted creator
            tup(8),                                    # in-progress creator
            tup(13),                                   # committed after snapshot
            tup(13, xmin_committed=True),              # ... hinted
            tup(20, xmin_committed=True),              # committed past xmax
            tup(5, xmax=9, xmin_committed=True),       # concurrent deleter
            tup(5, xmax=10, xmin_committed=True),      # committed deleter
            tup(5, xmax=13, xmin_committed=True,
                xmax_committed=True),                  # deleter hinted, after snapshot
            tup(6, xmax=16),                           # aborted deleter
            tup(5, xmax=11, lock_only=True,
                xmin_committed=True),                  # lock-only xmax
            tup(14, cmin=1),                           # own insert, current command
            tup(14, cmin=0),                           # own insert, earlier command
        ]
        for slot, t in enumerate(tuples):
            t.tid = TID(0, slot)
        return tuples

    @staticmethod
    def hints(tuples):
        return [(t.xmin_committed, t.xmin_aborted, t.xmax_committed,
                 t.xmax_aborted) for t in tuples]

    @pytest.mark.parametrize("use_hints", [True, False])
    def test_matches_per_tuple_visibility(self, clog, use_hints):
        v = view(self.OWN, cid=1)
        paged, per_tuple = self.page(), self.page()
        paged_hits, tuple_hits = Counter("paged"), Counter("per_tuple")
        # Twice: the second pass runs over the hint bits the first set.
        for _ in range(2):
            visible, flagged = page_visibility(
                paged, self.SNAP, v, clog, use_hints, paged_hits)
            want_visible, want_flagged = [], []
            for slot, t in enumerate(per_tuple):
                res = tuple_visibility(t, self.SNAP, v, clog, use_hints,
                                       tuple_hits)
                if res.visible:
                    want_visible.append(t.tid)
                if not res.visible or res.deleter_concurrent:
                    want_flagged.append((slot, t.tid, res))
            assert [t.tid for t in visible] == want_visible
            assert ([(slot, t.tid, res) for slot, t, res in flagged]
                    == want_flagged)
            assert all(paged[slot] is t for slot, t, _ in flagged)
            assert self.hints(paged) == self.hints(per_tuple)
            assert paged_hits.value == tuple_hits.value
        # The page's answers, pinned so a change to the cases shows.
        assert [tid.slot for tid in want_visible] == [0, 1, 7, 9, 10, 11, 13]
        assert ([slot for slot, _, _ in want_flagged]
                == [2, 3, 4, 5, 6, 7, 8, 9, 12])
        if use_hints:
            assert paged_hits.value > 0
