"""Epochs: the paper's coarse-grained synchronization construct.

An epoch is a scoping construct (Sec. III-D).  Code inside the scope
invokes actions (directly or through strategies); leaving the scope blocks
until *all* invoked actions and all work transitively produced by their
dependencies have finished everywhere — established by a termination
detector.  Two in-epoch primitives are provided, exactly as in the paper:

* :meth:`Epoch.flush` (``epoch_flush``) — perform as much pending work as
  possible, then return control to the caller, keeping the epoch open.
* :meth:`Epoch.try_finish` — attempt to prove global quiescence; returns
  ``True`` (and the epoch may be exited) only if no work is pending
  anywhere.  Used by work-stealing-style strategies such as distributed
  Delta-stepping with thread-local buckets.

Usage::

    with machine.epoch() as ep:
        for v in vertices:
            action.invoke(ep, v)
        ep.flush()          # optional: interleave draining with seeding
    # <- here every action and every dependent work item has completed
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine
    from .stats import EpochStats


class Epoch:
    """One epoch on a machine.  Create via :meth:`Machine.epoch`."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.finished = False
        self.result_stats: "EpochStats | None" = None

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "Epoch":
        if self.machine._active_epoch is not None:
            raise RuntimeError("epochs do not nest")
        ckpts = self.machine.checkpoints
        if ckpts is not None:
            # Pending restores win over any driver-side re-initialization
            # performed between restore() and this epoch boundary (a
            # recovery re-run calling its init code again).
            ckpts.apply_pending()
            # A full baseline before the first epoch: without it, a rank
            # crash in epoch 0 would have nothing to roll back to.  Must
            # run before _active_epoch is set (capture refuses mid-epoch).
            ckpts.ensure_initial()
            # If the graph mutated since the last capture, re-baseline now:
            # a crash inside this epoch must never roll back across the
            # mutation boundary (restore refuses version mismatches).
            ckpts.ensure_graph_current()
        self.machine._active_epoch = self
        self.machine.stats.begin_epoch()
        self.machine.telemetry.epoch_begin()
        self.machine.flight.record(
            "epoch_enter", epoch=len(self.machine.stats.epochs)
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The epoch stays "active" through the terminal drain below: the
        # stall watchdog only arms inside an active epoch, and the drain
        # is exactly where a distributed run can wedge.  Checkpoint
        # capture/restore and mutation application (which refuse to run
        # mid-epoch) all happen after the flag clears.
        if exc_type is not None:
            self.machine._active_epoch = None
            self.machine.telemetry.epoch_end()
            self._record_abort(exc_type, exc)
            return  # propagate; don't try to finish a failed epoch
        try:
            self.machine.transport.finish_epoch(self.machine.detector)
        except BaseException as err:
            # finish_epoch can raise (e.g. a rank crash while draining);
            # close the telemetry epoch phase so spans stay balanced for
            # the recovery path (restore refuses mid-epoch, so clear the
            # flag before the coordinator sees the exception).
            self.machine._active_epoch = None
            self.machine.telemetry.epoch_end()
            self._record_abort(type(err), err)
            raise
        self.machine._active_epoch = None
        self.machine.telemetry.epoch_end()
        self._account_control()
        self.result_stats = self.machine.stats.end_epoch()
        self.finished = True
        self.machine.flight.record(
            "epoch_exit",
            epoch=self.result_stats.epoch_index,
            sent=self.result_stats.sent_total,
            handled=self.result_stats.handler_calls,
            wall=round(self.result_stats.wall_seconds, 6),
        )
        self.machine.health.on_epoch_end(self.result_stats)
        ckpts = self.machine.checkpoints
        if ckpts is not None:
            ckpts.maybe_capture()
        # Queued graph mutations apply at this (now provably quiescent)
        # boundary — after capture, so the checkpoint records the pending
        # queue together with the pre-mutation state.
        if self.machine._pending_mutations:
            self.machine._apply_pending_mutations()

    def _record_abort(self, exc_type, exc) -> None:
        """Black-box the failed epoch: record the abort and auto-dump the
        flight recorder so the last N events survive even if the process
        dies before the recovery coordinator regains control."""
        flight = self.machine.flight
        flight.record(
            "epoch_abort",
            epoch=len(self.machine.stats.epochs),
            error=exc_type.__name__ if exc_type is not None else "unknown",
            detail=str(exc)[:200] if exc is not None else "",
        )
        # A chaos rank crash already dumped (the path rides on the
        # exception); dump here only for every *other* unwinding error.
        if getattr(exc, "flight_dump", None) is None:
            flight.auto_dump("epoch_abort")

    # -- primitives -----------------------------------------------------------
    def flush(self, budget: Optional[int] = None) -> int:
        """``epoch_flush``: drain pending work, return handlers run.

        With ``budget`` the drain is best-effort (at most that many handler
        invocations); without it, all currently reachable work is done —
        "a good enough effort" in the paper's words.
        """
        t = self.machine.transport
        if budget is not None and hasattr(t, "drain_some"):
            return t.drain_some(budget)
        return t.drain()

    def try_finish(self) -> bool:
        """Attempt epoch termination; ``True`` iff globally quiescent.

        Unlike :meth:`flush`, this performs *no* work: it only runs the
        termination-detection protocol.  A strategy that receives ``False``
        should go back to its local work sources (the paper's distributed
        Delta-stepping does exactly this with its thread-local buckets).
        """
        # Control-message cost is folded into epoch stats at epoch exit
        # (see _account_control), so a probe here is not double-counted.
        tel = self.machine.telemetry
        if not tel.enabled:
            proven = self.machine.detector.probe()
        else:
            with tel.phase("probe"):
                proven = self.machine.detector.probe()
        self.machine.flight.record("probe", result=proven)
        return proven

    def _account_control(self) -> None:
        det = self.machine.detector
        produced = getattr(det, "control_messages", 0)
        already = getattr(det, "_accounted", 0)
        if produced > already:
            self.machine.stats.count_control(produced - already)
        det._accounted = produced

    # -- convenience ---------------------------------------------------------
    def invoke(self, mtype, payload, dest: Optional[int] = None) -> None:
        """Inject a message from the driver (counts as a local post)."""
        self.machine.inject(mtype, payload, dest)
