"""Incrementally maintained indexes over the backup's shadow set.

With a handful of connections the backup could afford to walk its whole
``_connections`` dict on every sync tick and convergence check.  At
thousands of simultaneous shadows those walks dominate: a sync tick
touching 2,000 idle connections to ack the 3 that progressed is O(all)
work for O(changed) information.

:class:`BackupConnectionIndex` keeps two views and a count current as
events arrive, each O(1) amortised per update:

* **ack schedule** — a time-ordered queue of (last-ack time, state)
  entries, so a sync tick pops exactly the connections whose SyncTime
  expired instead of scanning everything (§4.3).  Entries are lazily
  invalidated: a state acked again before its entry surfaces simply
  leaves a stale entry behind that is dropped on pop.
* **retx-pending set** — the connections with an outstanding §4.2
  recovery request, so re-issue checks touch only those.
* **pending-rebase count** — shadows whose send sequence space has not
  yet been re-anchored on the primary's ISN (§4.1): the convergence lag,
  which is all anyone reads of them.

The takeover needs no view: it walks every shadow once anyway, and reads
each one's holes and ISN there (§3.2).

Every view entry is validated against ground truth (the state's fields)
when read, so the views can only *over*-approximate; the hypothesis
test in ``tests/sttcp/test_scale_indexes.py`` drives random event
sequences against a brute-force oracle to prove the approximation is
exact at read time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

ConnKey = Tuple[int, int]


class BackupConnectionIndex:
    """O(changed) bookkeeping for the backup-side shadow set.

    ``state`` objects are the backup's per-connection records; the index
    only relies on ``state.key``, ``state.closed``,
    ``state.last_ack_time``, ``state.pending_retx`` and
    ``state.converged`` — duck-typed so tests can drive it with fakes.
    ``converged`` is the index's to set, in :meth:`note_rebased`.
    """

    __slots__ = ("_ack_queue", "_retx_pending", "_pending_rebase")

    def __init__(self) -> None:
        #: (last_ack_time when enqueued, state); sorted by construction
        #: because sim time is monotone and every append uses "now".
        self._ack_queue: Deque[Tuple[float, Any]] = deque()
        self._retx_pending: Dict[ConnKey, Any] = {}
        self._pending_rebase = 0

    # -- lifecycle -------------------------------------------------------------
    def add(self, state: Any) -> None:
        """Register a freshly attached shadow (not yet rebased/acked)."""
        self._pending_rebase += 1
        self._ack_queue.append((state.last_ack_time, state))

    def discard(self, state: Any) -> None:
        """Drop a reaped shadow from every view.  Ack-queue entries are
        invalidated lazily via ``state.closed`` rather than searched."""
        self._retx_pending.pop(state.key, None)
        if not state.converged:
            self._pending_rebase -= 1

    # -- ack schedule (§4.3) ---------------------------------------------------
    def note_acked(self, state: Any) -> None:
        """Record that ``state`` was just acked at ``state.last_ack_time``
        (a fresh queue entry; any older entry turns stale)."""
        self._ack_queue.append((state.last_ack_time, state))

    def requeue_unready(self, state: Any) -> None:
        """Put a due-but-unsynchronized state back so the next tick
        re-examines it (its last-ack time is unchanged).

        Front, not back: the entry's timestamp predates everything else
        in the queue (it was just popped as due), and appending it at the
        tail would hide it behind newer, not-yet-due entries — the pop
        loop stops at the first not-due head."""
        self._ack_queue.appendleft((state.last_ack_time, state))

    def ack_due(self, now: float, sync_time: float) -> List[Any]:
        """Pop and return the states whose SyncTime has expired.

        Stale entries (superseded by a later ack) and closed states are
        dropped in passing.  The caller must either ack each returned
        state (which re-enqueues it via :meth:`note_acked`) or hand it
        back through :meth:`requeue_unready` — dropping one on the floor
        would silence its SyncTime forever.
        """
        due: List[Any] = []
        seen: set = set()
        queue = self._ack_queue
        threshold = now - sync_time
        while queue and queue[0][0] <= threshold:
            enqueued_at, state = queue.popleft()
            if state.closed or enqueued_at != state.last_ack_time:
                continue  # reaped, or re-acked since this entry was queued
            key = state.key
            if key in seen:
                continue
            seen.add(key)
            due.append(state)
        return due

    # -- outstanding recovery requests (§4.2) ----------------------------------
    def note_retx_pending(self, state: Any) -> None:
        self._retx_pending[state.key] = state

    def clear_retx_pending(self, state: Any) -> None:
        self._retx_pending.pop(state.key, None)

    def retx_pending_states(self) -> List[Any]:
        """States that had a recovery request outstanding, validated
        against ground truth (``pending_retx`` may have been satisfied)."""
        stale = [k for k, s in self._retx_pending.items() if s.closed or s.pending_retx is None]
        for key in stale:
            del self._retx_pending[key]
        return list(self._retx_pending.values())

    # -- ISN-rebase / convergence (§4.1) ---------------------------------------
    def note_rebased(self, state: Any) -> None:
        """``state`` converged: rebased and synchronized.  Once per state."""
        state.converged = True
        self._pending_rebase -= 1

    def pending_rebase_count(self) -> int:
        return self._pending_rebase

    # -- sizes (gauges / tests) ------------------------------------------------
    def sizes(self) -> Dict[str, int]:
        return {
            "ack_queue": len(self._ack_queue),
            "retx_pending": len(self._retx_pending),
            "pending_rebase": self._pending_rebase,
        }

