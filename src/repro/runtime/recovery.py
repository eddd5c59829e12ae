"""Rank-crash recovery: roll back to the last checkpoint and resume.

The ``crash`` fault kind (:mod:`repro.runtime.chaos`) kills a rank
mid-epoch by raising :class:`RankCrashed` out of the transport loop.
The :class:`RecoveryCoordinator` catches it, rolls every surviving rank
back to the last epoch-aligned checkpoint, "respawns" the dead rank
(its local property storage is reset before restore — the crashed
rank's memory is gone, everything it knew is rebuilt from blobs), and
re-runs the user's strategy function.  Loop-state adoption
(:meth:`CheckpointManager.adopt_state`) lets the re-run resume
mid-``fixed_point`` / mid-``delta`` instead of starting over.

Because the checkpoint also captures transport sequence numbers, RNG
streams, chaos decision counters, reliable-delivery windows, detector
balances, and the stats registry, the replayed suffix of the run is —
on the deterministic sim transport — bit-identical to the prefix the
crash destroyed, including logical message accounting.  The
differential suite asserts exactly that.
"""

from __future__ import annotations

from typing import Any, Callable


class RankCrashed(RuntimeError):
    """A rank died mid-epoch (the ``crash`` chaos fault fired)."""

    def __init__(self, rank: int, tick: int, epoch: int):
        super().__init__(
            f"rank {rank} crashed at tick {tick} (epoch {epoch})"
        )
        self.rank = rank
        self.tick = tick
        self.epoch = epoch
        #: JSONL path of the flight-recorder black box dumped when this
        #: crash fired (set by the chaos transport; None when disabled).
        self.flight_dump = None


class RecoveryError(RuntimeError):
    """Recovery is impossible (no checkpointing, or too many restarts)."""


class RecoveryCoordinator:
    """Catches :class:`RankCrashed` and restores the machine.

    ``run(fn)`` executes ``fn`` (the strategy loop), and on a crash:

    1. resets the dead rank's local storage in every registered map
       (its memory did not survive),
    2. restores the latest checkpoint across *all* ranks — surviving
       ranks roll back too, since their post-checkpoint state may
       causally depend on messages from the dead rank,
    3. revives the rank in the chaos transport, and
    4. re-runs ``fn``; strategy state objects re-adopt the rolled-back
       loop position so the run resumes mid-strategy.
    """

    def __init__(self, machine, *, max_restarts: int = 8):
        if getattr(machine, "checkpoints", None) is None:
            raise RecoveryError(
                "recovery requires checkpointing: construct the Machine "
                "with checkpoint=True / CheckpointConfig(...) or call "
                "machine.enable_checkpoints()"
            )
        self.machine = machine
        self.max_restarts = max_restarts
        self.recoveries = 0
        #: One dict per recovery performed, newest last; each carries the
        #: crash coordinates and the flight-recorder dump path (the black
        #: box of the last N runtime events before the crash).
        self.reports: list[dict] = []

    def recover(self, crash: RankCrashed) -> None:
        """Roll back to the latest checkpoint after ``crash``."""
        m = self.machine
        mgr = m.checkpoints
        ckpt = mgr.latest()
        if ckpt is None:
            raise RecoveryError(
                f"rank {crash.rank} crashed before any checkpoint was "
                "captured; nothing to roll back to"
            ) from crash
        # the dead rank's memory is gone: reset its slice of every map
        # so restore provably rebuilds it from blobs alone
        for pm in mgr.maps().values():
            pm.reset_rank(crash.rank)
        lost = max(0, crash.epoch - ckpt.epoch)
        mgr.restore(ckpt)
        m.stats.count_checkpoint("rollback_epochs", lost)
        chaos = getattr(m, "chaos", None)
        if chaos is not None:
            chaos.revive(crash.rank)
        flight = getattr(m, "flight", None)
        dump = crash.flight_dump
        if flight is not None:
            if dump is None:
                dump = flight.last_dump
            flight.record(
                "recovery",
                rank=crash.rank,
                tick=crash.tick,
                rolled_back_to_epoch=ckpt.epoch,
                lost_epochs=lost,
            )
        self.reports.append(
            {
                "rank": crash.rank,
                "tick": crash.tick,
                "epoch": crash.epoch,
                "rolled_back_to_epoch": ckpt.epoch,
                "lost_epochs": lost,
                "flight_dump": dump,
            }
        )
        self.recoveries += 1

    def run(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn``, recovering from rank crashes as they happen."""
        while True:
            try:
                return fn()
            except RankCrashed as crash:
                if self.recoveries >= self.max_restarts:
                    raise RecoveryError(
                        f"giving up after {self.recoveries} restarts "
                        f"(last: rank {crash.rank} at tick {crash.tick})"
                    ) from crash
                self.recover(crash)


def run_with_recovery(machine, fn: Callable[[], Any], *, max_restarts: int = 8):
    """Convenience wrapper: ``RecoveryCoordinator(machine).run(fn)``."""
    return RecoveryCoordinator(machine, max_restarts=max_restarts).run(fn)


__all__ = [
    "RankCrashed",
    "RecoveryCoordinator",
    "RecoveryError",
    "run_with_recovery",
]
