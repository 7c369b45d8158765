"""Differential test: :class:`BackupConnectionIndex` vs brute force.

The index is allowed to *over*-approximate internally (stale ack-queue
entries, satisfied retx markers) but must be exact whenever it is read.
Hypothesis drives random event interleavings over fake states and checks
every view against the O(all-connections) scans the index replaced.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sttcp.indexes import BackupConnectionIndex

#: SyncTime for the ack-schedule checks; sim time advances in integer
#: steps so the due-threshold comparison is exact.
SYNC_TIME = 100.0


class FakeTCB:
    __slots__ = ("is_synchronized",)

    def __init__(self) -> None:
        self.is_synchronized = True


class FakeState:
    __slots__ = (
        "key",
        "closed",
        "converged",
        "last_ack_time",
        "pending_retx",
        "tcb",
    )

    def __init__(self, key, now) -> None:
        self.key = key
        self.closed = False
        self.converged = False
        self.last_ack_time = now
        self.pending_retx = None
        self.tcb = FakeTCB()


OPS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 15), st.integers(1, 60)),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
# A due-but-unsynchronized state requeued by the sync tick must surface
# again on the very next tick (requeue_unready once hid it behind newer
# queue entries).
@example(ops=[(0, 0, 1), (0, 0, 2), (6, 0, 38), (7, 0, 60), (7, 0, 1)])
def test_index_views_match_brute_force_scans(ops):
    index = BackupConnectionIndex()
    live = {}  # key -> FakeState, the engine's _connections mirror
    rebased = set()
    now = 0.0
    serial = 0

    for opcode, pick, amount in ops:
        now += float(amount)  # strictly monotone, integral
        if opcode == 0 or not live:
            serial += 1
            state = FakeState((serial, 1), now)
            live[state.key] = state
            index.add(state)
        else:
            state = list(live.values())[pick % len(live)]
            if opcode == 1:  # shadow reaped
                state.closed = True
                del live[state.key]
                rebased.discard(state.key)
                index.discard(state)
            elif opcode == 2:  # backup ack sent
                state.last_ack_time = now
                index.note_acked(state)
            elif opcode == 3:  # recovery request issued
                state.pending_retx = ("request", now)
                index.note_retx_pending(state)
            elif opcode == 4:  # recovery satisfied out-of-band
                state.pending_retx = None  # index must self-purge on read
            elif opcode == 5 and state.key not in rebased:  # ISN rebase completed
                rebased.add(state.key)
                index.note_rebased(state)
            elif opcode == 6:  # toggle handshake convergence
                state.tcb.is_synchronized = not state.tcb.is_synchronized
            elif opcode == 7:  # sync tick: the §4.3 ack schedule
                due = index.ack_due(now, SYNC_TIME)
                expected = {
                    s.key
                    for s in live.values()
                    if now - s.last_ack_time >= SYNC_TIME
                }
                assert {s.key for s in due} == expected
                for s in due:  # caller contract: ack or requeue each
                    if s.tcb.is_synchronized:
                        s.last_ack_time = now
                        index.note_acked(s)
                    else:
                        index.requeue_unready(s)

        # Read-time exactness of every view, after every event.
        assert {s.key for s in index.retx_pending_states()} == {
            s.key for s in live.values() if s.pending_retx is not None
        }
        assert index.pending_rebase_count() == len(live.keys() - rebased)
        assert index.sizes()["pending_rebase"] == index.pending_rebase_count()

