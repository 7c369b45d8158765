"""Pooled zero-copy segment payloads for the batch datapath.

The object arm carries every payload as a fresh :class:`RealBytes`,
which copies on ingest *and* on every ``slice`` — one copy per MSS
chunk on transmit, again on every retransmission, again whenever the
backup's tap re-examines a delivered segment.  At millions of segments
those copies dominate the datapath.

:class:`SegmentPool` replaces them with a struct-of-arrays free list of
large ``bytearray`` slabs:

* **ingest** copies the application bytes into the current slab exactly
  once and hands back a :class:`PooledBytes` span — a ``memoryview``
  slice over the slab;
* **slice** returns a sub-``memoryview`` sharing the same slab — no
  bytes move while a segment is segmented, retransmitted, fanned out by
  the hub, or tapped by the backup;
* **release** is refcount-driven: every span over a slab shares one
  :class:`_SlabLease`, and when the last span dies the lease's
  ``__del__`` returns the slab to the pool's free list, so delivery
  (dropping the last reference) *is* the return path.

Ownership rule: a slab is reused only after its lease has died, i.e.
after no live span can observe it.  The hypothesis suite in
``tests/net/test_segment_pool.py`` drives random interleavings of
ingest/slice/release against the fresh-bytes oracle to prove reuse
never aliases a live payload.

The pool is invisible to every consumer: :class:`PooledBytes` is an
ordinary :class:`~repro.util.bytespan.ByteSpan` whose content compares
equal to the :class:`~repro.util.bytespan.RealBytes` the object arm
would have produced, so store hashes and drill reports are identical
under both ``REPRO_DATAPATH`` arms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.util.bytespan import EMPTY, ByteSpan, _check_bounds

#: Default slab size: large enough that a slab amortises ~45 MSS-sized
#: payloads, small enough that a retained span pins little memory.
SLAB_SIZE = 64 * 1024

#: Free slabs kept for reuse; beyond this, released slabs are dropped to
#: the allocator (bounds pool memory under a burst-then-idle workload).
MAX_FREE_SLABS = 64


class _SlabLease:
    """Shared ownership token for one slab.

    Every :class:`PooledBytes` over the slab holds a strong reference to
    the lease; the pool holds one more while the slab is still being
    filled.  When the last reference dies, CPython's refcounting runs
    ``__del__`` promptly and the slab rejoins the free list.
    """

    __slots__ = ("slab", "pool")

    def __init__(self, slab: bytearray, pool: "SegmentPool") -> None:
        self.slab = slab
        self.pool = pool

    def __del__(self) -> None:
        try:
            self.pool._release(self.slab)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class PooledBytes(ByteSpan):
    """A payload span backed by a ``memoryview`` slice of a pooled slab.

    Immutable by convention (the pool never rewrites a slab region while
    a lease is alive); slicing shares the slab with no copy and the
    bytes materialise only at :meth:`to_bytes` (wire serialisation,
    content checks).
    """

    __slots__ = ("view", "_lease", "length")

    def __init__(self, view: memoryview, lease: _SlabLease) -> None:
        self.view = view
        self._lease = lease
        self.length = len(view)

    def slice(self, start: int, stop: int) -> ByteSpan:
        if not 0 <= start <= stop <= self.length:
            _check_bounds(start, stop, self.length)
        return PooledBytes(self.view[start:stop], self._lease)

    def to_bytes(self) -> bytes:
        return bytes(self.view)


class SegmentPool:
    """Struct-of-arrays slab allocator for segment payloads.

    ``ingest`` packs payloads back to back into the current slab; a slab
    retires when the next payload no longer fits and is reused once all
    spans over it have been delivered and dropped (see
    :class:`_SlabLease`).  Counters:

    * ``segments_pooled`` — payloads served from a slab;
    * ``pool_misses`` — a fresh slab had to be allocated (the free list
      was empty, or the payload exceeded the slab size class);
    * ``slabs_reused`` — slab acquisitions served from the free list.
    """

    __slots__ = (
        "slab_size",
        "max_free",
        "_free",
        "_lease",
        "_pos",
        "segments_pooled",
        "pool_misses",
        "slabs_reused",
    )

    def __init__(self, slab_size: int = SLAB_SIZE, max_free: int = MAX_FREE_SLABS) -> None:
        if slab_size <= 0:
            raise ValueError(f"slab size must be positive, got {slab_size}")
        self.slab_size = slab_size
        self.max_free = max_free
        self._free: List[bytearray] = []
        self._lease: Optional[_SlabLease] = None
        self._pos = 0
        self.segments_pooled = 0
        self.pool_misses = 0
        self.slabs_reused = 0

    # -- allocation ----------------------------------------------------------
    def ingest(self, data: Union[bytes, bytearray, memoryview]) -> ByteSpan:
        """Copy ``data`` into pooled storage (the one and only copy) and
        return the span carrying it through the datapath."""
        length = len(data)
        if length == 0:
            return EMPTY
        if length > self.slab_size:
            # Oversized payload: dedicated slab, never returned to the
            # free list (its size doesn't match the class).
            self.pool_misses += 1
            self.segments_pooled += 1
            slab = bytearray(data)
            lease = _SlabLease(slab, _NULL_POOL)
            return PooledBytes(memoryview(slab), lease)
        lease = self._lease
        if lease is None or self._pos + length > self.slab_size:
            lease = self._acquire_slab()
        pos = self._pos
        end = pos + length
        lease.slab[pos:end] = data
        self._pos = end
        self.segments_pooled += 1
        return PooledBytes(memoryview(lease.slab)[pos:end], lease)

    def _acquire_slab(self) -> _SlabLease:
        """Retire the current slab (spans keep it alive until delivered)
        and open a fresh one, preferring the free list."""
        if self._free:
            slab = self._free.pop()
            self.slabs_reused += 1
        else:
            slab = bytearray(self.slab_size)
            self.pool_misses += 1
        lease = _SlabLease(slab, self)
        self._lease = lease
        self._pos = 0
        return lease

    # -- release (refcount-driven, via _SlabLease.__del__) -------------------
    def _release(self, slab: bytearray) -> None:
        if len(slab) == self.slab_size and len(self._free) < self.max_free:
            self._free.append(slab)

    # -- introspection -------------------------------------------------------
    def free_slabs(self) -> int:
        return len(self._free)

    def stats(self) -> Dict[str, int]:
        return {
            "segments_pooled": self.segments_pooled,
            "pool_misses": self.pool_misses,
            "slabs_reused": self.slabs_reused,
            "free_slabs": len(self._free),
        }

    def reset_counters(self) -> None:
        self.segments_pooled = 0
        self.pool_misses = 0
        self.slabs_reused = 0


class _NullPool(SegmentPool):
    """Sink for oversized dedicated slabs: release drops them."""

    def _release(self, slab: bytearray) -> None:  # noqa: ARG002
        return None


_NULL_POOL = _NullPool(slab_size=1, max_free=0)

#: Process-wide pool all send buffers share (one free list keeps slab
#: reuse high across thousands of simulated connections).
_default_pool = SegmentPool()


def default_pool() -> SegmentPool:
    return _default_pool


def reset_default_pool() -> SegmentPool:
    """Replace the process-wide pool (tests; counter isolation)."""
    global _default_pool
    _default_pool = SegmentPool()
    return _default_pool
