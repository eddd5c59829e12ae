"""Transport abstraction: moving active messages between ranks.

Two transports implement this interface:

* :class:`~repro.runtime.sim.SimTransport` — N simulated ranks in one
  process with deterministic, seeded scheduling.  This is the default and
  the one benchmarks use, because the paper's cost model is message counts,
  which the simulation reproduces exactly and reproducibly.
* :class:`~repro.runtime.threads.ThreadTransport` — one OS thread per rank
  (optionally several worker threads per rank) with real queues; exercises
  the lock-map synchronization story under true interleavings.

Handlers receive a :class:`HandlerContext` bound to the executing rank;
sending from a handler attributes the message to that rank, so local
deliveries (``src == dest``) are distinguished from remote hops — the
quantity the paper counts in Figs. 5-6.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional, Union

from .message import Envelope, MessageType

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine


class HandlerContext:
    """Execution context passed to message handlers.

    One context per rank exists per transport; it is reused across handler
    invocations on that rank (handlers on a rank are serialized unless the
    thread transport is configured with multiple workers per rank, in which
    case property-map access must go through a lock map, Sec. IV-B).
    """

    __slots__ = ("machine", "rank", "worker")

    def __init__(self, machine: "Machine", rank: int, worker: int = 0) -> None:
        self.machine = machine
        self.rank = rank
        self.worker = worker

    # -- sending -------------------------------------------------------------
    def send(
        self,
        mtype: Union[MessageType, str],
        payload: tuple,
        dest: Optional[int] = None,
    ) -> None:
        """Send an active message from this rank (handlers may send freely)."""
        self.machine.transport.send(self.rank, mtype, payload, dest)

    # -- introspection ---------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return self.machine.n_ranks

    @property
    def stats(self):
        return self.machine.stats

    def owner(self, vertex: int) -> int:
        return self.machine.resolver.owner(vertex)

    def is_local(self, vertex: int) -> bool:
        return self.owner(vertex) == self.rank


class Transport:
    """Base class for transports.

    Concrete transports implement queueing, the progress engine, and
    quiescence.  The shared ``send`` path below resolves the destination,
    walks the message type's layer stack (caching -> reduction -> coalescing,
    in whatever order they were installed), updates statistics, and finally
    enqueues an envelope.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.n_ranks = machine.n_ranks

    # -- public send ---------------------------------------------------------
    def send(
        self,
        src: int,
        mtype: Union[MessageType, str],
        payload: tuple,
        dest: Optional[int] = None,
    ) -> None:
        if isinstance(mtype, str):
            mtype = self.machine.registry.by_name(mtype)
        resolved = self.machine.resolver.resolve(mtype, payload, dest)
        tel = self.machine.telemetry
        if tel.spans_on:
            # One logical message = one span; context survives the layer
            # stack via the pending-payload table until wire time.
            tel.on_send(mtype, src, resolved, payload)
        self._send_through(mtype, 0, src, resolved, payload)

    def _send_through(
        self, mtype: MessageType, layer_index: int, src: int, dest: int, payload: tuple
    ) -> None:
        """Pass ``payload`` through layer ``layer_index`` and below."""
        layers = mtype.layers
        if layer_index < len(layers):
            layer = layers[layer_index]

            def emit(p: tuple, d: int = dest) -> None:
                self._send_through(mtype, layer_index + 1, src, d, p)

            layer.send(src, dest, payload, emit)
        else:
            self._wire(mtype, src, dest, payload)

    def _wire(
        self, mtype: MessageType, src: int, dest: int, payload: tuple, batch: bool = False
    ) -> None:
        """Final enqueue onto the destination mailbox, with statistics."""
        remote = src != dest and src >= 0
        if batch:
            # One physical transfer carrying many logical payloads.
            slots = sum(len(p) for p in payload)
        else:
            slots = len(payload)
        self.machine.stats.count_send(mtype.name, remote, slots)
        # Driver-injected sends (src == -1) are attributed to the destination
        # rank so termination balances stay consistent (sum == in-flight).
        self.machine.detector.on_send(src if src >= 0 else dest)
        tel = self.machine.telemetry
        if tel.wire_obs:
            tel.notify_wire(mtype, src, dest, payload, batch)
        trace = None
        if tel.spans_on:
            if batch:
                trace = tuple(tel.wire_context(p) for p in payload)
            else:
                trace = tel.wire_context(payload)
        env = Envelope(
            dest=dest, type_id=mtype.type_id, payload=payload, src=src, trace=trace
        )
        self._enqueue(env, batch=batch)

    def wire_batch(self, mtype: MessageType, src: int, dest: int, payloads: tuple) -> None:
        """Used by the coalescing layer: ship many payloads as one envelope."""
        self._wire(mtype, src, dest, payloads, batch=True)

    # -- to implement ------------------------------------------------------------
    def _enqueue(self, env: Envelope, batch: bool = False) -> None:
        raise NotImplementedError

    def flush_layers(self, mtype_filter=None) -> int:
        """Flush all buffering layers on all types; returns items flushed."""
        tel = self.machine.telemetry
        if not tel.enabled:
            return self._flush_layers(mtype_filter)
        with tel.phase("flush"):
            return self._flush_layers(mtype_filter)

    def _flush_layers(self, mtype_filter=None) -> int:
        flushed = 0
        for mtype in self.machine.registry:
            if mtype_filter is not None and mtype is not mtype_filter:
                continue
            for i, layer in enumerate(mtype.layers):
                for src in range(self.n_ranks):

                    def emit(p: tuple, d: int | None = None, _i=i, _m=mtype, _s=src) -> None:
                        if d is None:  # pragma: no cover - defensive
                            raise ValueError("flush emit requires explicit destination")
                        self._send_through(_m, _i + 1, _s, d, p)

                    flushed += layer.flush(src, emit)
        return flushed

    def pending_layer_items(self) -> int:
        return sum(
            layer.pending() for mtype in self.machine.registry for layer in mtype.layers
        )

    def run_handler(self, env: Envelope, batch: bool) -> None:
        """Dispatch one envelope at its destination rank.

        Coalesced envelopes (``batch=True``) carry a tuple of payload tuples.
        When the message type has a :attr:`MessageType.batch_handler`
        installed (the pattern executor does this for vectorizable plans),
        the whole batch is handed over in one call so it can be executed as
        array kernels; otherwise the scalar handler runs once per payload.
        Either way, handler-call counts reflect the number of *logical*
        payloads so the paper's message-cost model is unchanged.
        """
        machine = self.machine
        mtype = machine.registry.by_id(env.type_id)
        ctx = self.context_for(env.dest)
        stats = machine.stats
        machine.detector.on_receive(env.dest)
        t0 = perf_counter()
        if batch:
            n = len(env.payload)
            bh = mtype.batch_handler
            stats.count_handler(mtype.name, n)
            stats.count_batch_delivery(mtype.name, n, vectorized=bh is not None)
        else:
            n = 1
            stats.count_handler(mtype.name)
        tel = machine.telemetry
        if tel.spans_on:
            # Same handler calls, inside handle/batch spans.
            tel.invoke(mtype, ctx, env, batch)
        elif not batch:
            mtype.handler(ctx, env.payload)
        elif bh is not None:
            bh(ctx, env.payload)
        else:
            handler = mtype.handler
            for item in env.payload:
                handler(ctx, item)
        dt = perf_counter() - t0
        stats.add_handler_time(mtype.name, dt)
        health = machine.health
        if health.enabled:
            health.note_delivery(env.dest, n, dt)

    def context_for(self, rank: int) -> HandlerContext:
        raise NotImplementedError

    # -- progress / quiescence -------------------------------------------------
    def drain(self) -> int:
        """Run handlers until global quiescence; returns handlers run."""
        raise NotImplementedError

    def pending_messages(self) -> int:
        raise NotImplementedError

    def quiescent(self) -> bool:
        return self.pending_messages() == 0 and self.pending_layer_items() == 0

    def resize(self, n_ranks: int) -> None:
        """Adapt the transport to a new rank count (``Machine.rebalance``).

        Only legal at quiescence: per-rank mailboxes are rebuilt, so any
        in-flight message would be lost.  Subclasses extend this to
        rebuild their per-rank structures.
        """
        if not self.quiescent():
            raise RuntimeError(
                "transport resize requires quiescence (messages in flight "
                "or layer buffers non-empty)"
            )
        if n_ranks < 1:
            raise ValueError("resize needs at least one rank")
        self.n_ranks = n_ranks

    def finish_epoch(self, detector) -> None:
        """Drain and run the termination protocol until quiescence is proven."""
        tel = self.machine.telemetry
        flight = self.machine.flight
        while True:
            self.drain()
            if not tel.enabled:
                proven = detector.probe()
            else:
                with tel.phase("probe"):
                    proven = detector.probe()
            flight.record("probe", result=proven)
            if proven:
                return

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        """Release transport resources (threads, queues)."""
