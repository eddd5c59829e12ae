"""Message coalescing (paper Sec. IV: "coalescing greatly improves
performance when large amounts of messages are sent").

The coalescing layer keeps, per (source rank, destination rank), a buffer
of logical payloads.  When a buffer reaches ``buffer_size`` it is shipped
as a *single physical envelope* whose delivery runs the base handler once
per buffered payload.  Statistics record both logical sends and physical
flushes, so benchmarks can report the physical-message reduction factor —
the quantity AM++'s coalescing is designed to improve.

Buffers count as pending work for termination detection: an epoch cannot
end while a buffer is non-empty, and the transport flushes buffers when
mailboxes run dry (mirroring AM++'s end-of-epoch flush).
"""

from __future__ import annotations

from typing import Callable, Optional

from .layers import Emit, Layer


class CoalescingLayer(Layer):
    """Buffer per (src, dest); flush when full or on demand.

    Parameters
    ----------
    buffer_size:
        Number of logical payloads per physical envelope.  1 disables
        batching in effect (every send flushes immediately).
    """

    def __init__(self, buffer_size: int = 64) -> None:
        super().__init__()
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.buffer_size = buffer_size
        # _buffers[src][dest] -> list of payload tuples
        self._buffers: dict[int, dict[int, list]] = {}

    def attach(self, machine, mtype) -> None:
        super().attach(machine, mtype)
        self._buffers = {r: {} for r in range(machine.n_ranks)}

    # -- layer interface ---------------------------------------------------
    def send(self, src: int, dest: int, payload: tuple, emit: Emit) -> None:
        key = src if src >= 0 else dest  # driver-injected sends buffer at dest
        buf = self._buffers[key].setdefault(dest, [])
        buf.append(payload)
        if len(buf) >= self.buffer_size:
            self._flush_one(key, dest)

    def send_rows(self, src: int, dest: int, rows: list) -> None:
        """Bulk-append pre-admitted payload rows for one destination.

        Used by the fused fast tier for rank-remote fan-out rows.  The
        buffer fills and flushes at exactly the boundaries a sequence of
        :meth:`send` calls would produce, so logical send counts, flush
        counts and envelope contents are identical to the per-row path —
        only the per-payload layer-walk overhead disappears.
        """
        key = src if src >= 0 else dest
        buf = self._buffers[key].setdefault(dest, [])
        n = len(rows)
        i = 0
        size = self.buffer_size
        while i < n:
            take = min(size - len(buf), n - i)
            buf.extend(rows[i : i + take])
            i += take
            if len(buf) >= size:
                self._flush_one(key, dest)

    def _flush_one(self, src: int, dest: int) -> int:
        buf = self._buffers[src].get(dest)
        if not buf:
            return 0
        # Freeze at flush time: both the envelope body and every payload in
        # it become immutable tuples.  A chaos-duplicated envelope shares
        # the payload objects between deliveries — if a handler mutated a
        # list-shaped payload in its first delivery, the duplicate would
        # observe the mutation.  Tuples make that impossible.
        items = tuple(p if isinstance(p, tuple) else tuple(p) for p in buf)
        buf.clear()
        self.machine.stats.count_flush(self.mtype.name, len(items))
        # Bypass upper layers: a flush is a physical transfer of already-
        # admitted payloads.  run through *lower* layers? Coalescing is
        # conventionally the innermost layer, so ship directly.
        self.machine.transport.wire_batch(self.mtype, src, dest, items)
        return len(items)

    def flush(self, src: int, emit: Emit) -> int:
        flushed = 0
        for dest in list(self._buffers.get(src, ())):
            flushed += self._flush_one(src, dest)
        return flushed

    def pending(self) -> int:
        return sum(
            len(buf) for per_src in self._buffers.values() for buf in per_src.values()
        )

    def reset(self) -> None:
        for per_src in self._buffers.values():
            per_src.clear()
