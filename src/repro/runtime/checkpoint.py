"""Epoch-consistent checkpointing: snapshots of the whole algorithm state.

The paper's epoch model gives natural global-consistency points: between
epochs no gather/evaluate message is in flight, so the union of every
registered property map, the enclosing strategy's loop state, the
reliable-delivery windows, and the termination-detector counters *is*
the algorithm state.  This module captures exactly that union:

* a **deterministic binary encoder** (:func:`stable_dumps` /
  :func:`stable_loads`) — *not* pickle, whose memoization and interning
  make byte-identity across equal states unreliable.  Equal values
  always encode to equal bytes, which is what lets the test suite
  assert "incremental checkpoints match full checkpoints byte-for-byte";
* a **content-addressed blob store** (:class:`BlobStore`) keyed by
  sha256, deduplicating identical chunks across checkpoints;
* **dirty-chunk tracking** (:class:`DirtyTracker`) driven by the
  property-map write hooks (``set`` / ``fill`` / ``from_array`` /
  ``scatter_extremum`` — including both fast paths, which funnel
  through ``scatter_extremum``), so an incremental capture only
  re-encodes chunks that changed since the previous one;
* the :class:`CheckpointManager` orchestrating capture/restore over
  registered maps, strategy state objects (``checkpoint_state()`` /
  ``restore_state()`` / ``checkpoint_name`` protocol), and the runtime
  system components (transport, chaos, reliable delivery, detector,
  stats).

Capture is only legal at a quiescent epoch boundary; the manager
refuses otherwise.  Restore rolls every registered component back in
place, clears transport mailboxes and message-layer buffers, and leaves
the machine ready to re-enter the strategy loop exactly where the
checkpointed run stood.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


class CheckpointError(RuntimeError):
    """Raised for invalid checkpoint configuration, capture, or restore."""


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------
#
# Tag bytes (one ascii char each), every variable-length payload preceded
# by a little-endian u64 length:
#
#   N           None
#   T / F       True / False
#   G           numpy scalar: dtype.str then raw bytes (exact dtype kept)
#   I           python int: ascii decimal repr
#   D           python float: IEEE-754 double, little-endian
#   S           str: utf-8
#   B           bytes
#   A           ndarray: dtype.str, ndim, dims, C-contiguous raw bytes
#   U / L / Q   tuple / list / deque: count then encoded elements
#   E / R       set / frozenset: elements encoded then sorted by bytes
#   M           dict: entries sorted by encoded-key bytes
#
# Sorting containers by their *encoded* bytes makes sets and dicts
# order-independent — two equal dicts built in different insertion orders
# encode identically, which the incremental-vs-full guarantee needs.

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _enc(obj: Any, out: List[bytes]) -> None:
    # np.generic before int/float: np.float64 is an instance of float and
    # np.bool_ would otherwise lose its dtype.  Exact-dtype round-trips
    # are what the serialization satellite's "dtype drift" tests check.
    if obj is None:
        out.append(b"N")
    elif isinstance(obj, np.generic):
        raw = obj.tobytes()
        ds = obj.dtype.str.encode()
        out.append(b"G" + _U64.pack(len(ds)) + ds + _U64.pack(len(raw)) + raw)
    elif isinstance(obj, bool):
        out.append(b"T" if obj else b"F")
    elif isinstance(obj, int):
        raw = repr(obj).encode()
        out.append(b"I" + _U64.pack(len(raw)) + raw)
    elif isinstance(obj, float):
        out.append(b"D" + _F64.pack(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(b"S" + _U64.pack(len(raw)) + raw)
    elif isinstance(obj, bytes):
        out.append(b"B" + _U64.pack(len(obj)) + obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            raise CheckpointError(
                "object-dtype arrays are not checkpointable; serialize "
                "their elements explicitly"
            )
        arr = np.ascontiguousarray(obj)
        ds = arr.dtype.str.encode()
        raw = arr.tobytes()
        head = [b"A", _U64.pack(len(ds)), ds, _U64.pack(arr.ndim)]
        head.extend(_U64.pack(d) for d in arr.shape)
        head.append(_U64.pack(len(raw)))
        head.append(raw)
        out.append(b"".join(head))
    elif isinstance(obj, tuple):
        out.append(b"U" + _U64.pack(len(obj)))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, list):
        out.append(b"L" + _U64.pack(len(obj)))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, deque):
        out.append(b"Q" + _U64.pack(len(obj)))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, (set, frozenset)):
        encoded = []
        for item in obj:
            sub: List[bytes] = []
            _enc(item, sub)
            encoded.append(b"".join(sub))
        encoded.sort()
        tag = b"R" if isinstance(obj, frozenset) else b"E"
        out.append(tag + _U64.pack(len(encoded)) + b"".join(encoded))
    elif isinstance(obj, dict):
        entries = []
        for k, v in obj.items():
            ksub: List[bytes] = []
            _enc(k, ksub)
            vsub: List[bytes] = []
            _enc(v, vsub)
            entries.append((b"".join(ksub), b"".join(vsub)))
        entries.sort(key=lambda kv: kv[0])
        out.append(b"M" + _U64.pack(len(entries)))
        for kb, vb in entries:
            out.append(kb)
            out.append(vb)
    else:
        raise CheckpointError(
            f"cannot deterministically serialize {type(obj).__name__!s}"
        )


def stable_dumps(obj: Any) -> bytes:
    """Encode ``obj`` deterministically: equal values -> equal bytes."""
    out: List[bytes] = []
    _enc(obj, out)
    return b"".join(out)


def _read_u64(buf: bytes, pos: int) -> tuple[int, int]:
    return _U64.unpack_from(buf, pos)[0], pos + 8


def _dec(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"G":
        n, pos = _read_u64(buf, pos)
        ds = buf[pos : pos + n].decode()
        pos += n
        n, pos = _read_u64(buf, pos)
        val = np.frombuffer(buf[pos : pos + n], dtype=np.dtype(ds))[0]
        return val, pos + n
    if tag == b"I":
        n, pos = _read_u64(buf, pos)
        return int(buf[pos : pos + n].decode()), pos + n
    if tag == b"D":
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == b"S":
        n, pos = _read_u64(buf, pos)
        return buf[pos : pos + n].decode("utf-8"), pos + n
    if tag == b"B":
        n, pos = _read_u64(buf, pos)
        return buf[pos : pos + n], pos + n
    if tag == b"A":
        n, pos = _read_u64(buf, pos)
        ds = buf[pos : pos + n].decode()
        pos += n
        ndim, pos = _read_u64(buf, pos)
        shape = []
        for _ in range(ndim):
            d, pos = _read_u64(buf, pos)
            shape.append(d)
        n, pos = _read_u64(buf, pos)
        arr = np.frombuffer(buf[pos : pos + n], dtype=np.dtype(ds)).reshape(
            shape
        )
        return arr.copy(), pos + n  # writable copy
    if tag in (b"U", b"L", b"Q"):
        count, pos = _read_u64(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _dec(buf, pos)
            items.append(item)
        if tag == b"U":
            return tuple(items), pos
        if tag == b"Q":
            return deque(items), pos
        return items, pos
    if tag in (b"E", b"R"):
        count, pos = _read_u64(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _dec(buf, pos)
            items.append(item)
        return (frozenset(items) if tag == b"R" else set(items)), pos
    if tag == b"M":
        count, pos = _read_u64(buf, pos)
        d: Dict[Any, Any] = {}
        for _ in range(count):
            k, pos = _dec(buf, pos)
            v, pos = _dec(buf, pos)
            d[k] = v
        return d, pos
    raise CheckpointError(f"bad tag {tag!r} at offset {pos - 1}")


def stable_loads(buf: bytes) -> Any:
    """Decode bytes produced by :func:`stable_dumps`."""
    obj, pos = _dec(buf, 0)
    if pos != len(buf):
        raise CheckpointError(f"trailing bytes after offset {pos}")
    return obj


# ---------------------------------------------------------------------------
# content-addressed blob store
# ---------------------------------------------------------------------------


class BlobStore:
    """sha256-addressed blob storage, in-memory with optional disk spill.

    ``put`` returns ``(digest, is_new)`` — identical content is stored
    once, which is what makes incremental checkpoints cheap: a clean
    chunk re-encodes to the same bytes, hashes to the same digest, and
    costs nothing.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._blobs: Dict[str, bytes] = {}
        if path:
            os.makedirs(os.path.join(path, "blobs"), exist_ok=True)

    def put(self, data: bytes) -> tuple[str, bool]:
        digest = hashlib.sha256(data).hexdigest()
        is_new = digest not in self._blobs
        if is_new:
            self._blobs[digest] = data
            if self.path:
                fn = os.path.join(self.path, "blobs", digest)
                if not os.path.exists(fn):
                    with open(fn, "wb") as f:
                        f.write(data)
        return digest, is_new

    def get(self, digest: str) -> bytes:
        blob = self._blobs.get(digest)
        if blob is not None:
            return blob
        if self.path:
            fn = os.path.join(self.path, "blobs", digest)
            if os.path.exists(fn):
                with open(fn, "rb") as f:
                    blob = f.read()
                self._blobs[digest] = blob
                return blob
        raise CheckpointError(f"unknown blob {digest[:12]}...")

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs or (
            self.path is not None
            and os.path.exists(os.path.join(self.path, "blobs", digest))
        )

    def __len__(self) -> int:
        return len(self._blobs)


# ---------------------------------------------------------------------------
# dirty-chunk tracking
# ---------------------------------------------------------------------------


class DirtyTracker:
    """Per-rank chunked dirty bits over a property map's local slots.

    Installed on a map as ``pm.dirty`` so the write paths (``set``,
    ``fill``, ``from_array``, ``scatter_extremum`` — hence both compiled
    and vector fast paths) mark the chunks they touch.  Starts
    **all-dirty**: a freshly registered map has never been captured.
    """

    def __init__(self, sizes: List[int], chunk_slots: int) -> None:
        self.chunk_slots = chunk_slots
        self.sizes = list(sizes)
        self._bits: List[np.ndarray] = [
            np.ones(max(1, -(-n // chunk_slots)), dtype=bool) for n in sizes
        ]

    def n_chunks(self, rank: int) -> int:
        return len(self._bits[rank])

    def mark(self, rank: int, local: int) -> None:
        self._bits[rank][local // self.chunk_slots] = True

    def mark_array(self, rank: int, idx: np.ndarray) -> None:
        if len(idx):
            self._bits[rank][np.asarray(idx) // self.chunk_slots] = True

    def mark_all(self, rank: Optional[int] = None) -> None:
        if rank is None:
            for bits in self._bits:
                bits[:] = True
        else:
            self._bits[rank][:] = True

    def clear(self) -> None:
        for bits in self._bits:
            bits[:] = False

    def dirty_chunks(self, rank: int) -> np.ndarray:
        return np.flatnonzero(self._bits[rank])

    def dirty_fraction(self) -> float:
        total = sum(len(b) for b in self._bits)
        if not total:
            return 0.0
        return sum(int(b.sum()) for b in self._bits) / total


# ---------------------------------------------------------------------------
# configuration + checkpoint record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing policy.

    * ``every`` — capture a snapshot every N finished epochs.
    * ``chunk_slots`` — property-map slots per content-addressed chunk.
    * ``incremental`` — reuse clean chunks' digests from the previous
      manifest (``False`` re-encodes everything each capture).
    * ``keep`` — retain at most this many checkpoints in memory.
    * ``path`` — optional directory for on-disk persistence.
    """

    every: int = 1
    chunk_slots: int = 256
    incremental: bool = True
    keep: int = 4
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(
                f"checkpoint every={self.every}: must be >= 1 epoch"
            )
        if self.chunk_slots < 1:
            raise ValueError(
                f"checkpoint chunk_slots={self.chunk_slots}: must be >= 1"
            )
        if self.keep < 1:
            raise ValueError(f"checkpoint keep={self.keep}: must be >= 1")


@dataclass
class Checkpoint:
    """One epoch-aligned snapshot: manifests of blob digests, not data."""

    index: int
    epoch: int
    full: bool
    # name -> {"kind","dtype","sizes","chunks": [[digest,...] per rank]}
    maps: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # checkpoint_name -> blob digest of stable_dumps(checkpoint_state())
    states: Dict[str, str] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        """Content digest of the whole checkpoint (manifests + states)."""
        payload = stable_dumps(
            {"maps": self.maps, "states": self.states, "epoch": self.epoch}
        )
        return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------

_SYS_PREFIX = "sys:"


class CheckpointManager:
    """Captures and restores epoch-consistent snapshots of a machine.

    Components:

    * **maps** — every :class:`VertexPropertyMap` / ``EdgePropertyMap``
      registered (pattern binding auto-registers its maps);
    * **states** — strategy loop state objects implementing
      ``checkpoint_name`` / ``checkpoint_state()`` / ``restore_state()``;
    * **system components** — transport, chaos transport, reliable
      delivery, termination detector, stats registry; all implement the
      same protocol and are registered automatically.
    """

    def __init__(self, machine, config: Optional[CheckpointConfig] = None):
        self.machine = machine
        self.config = config or CheckpointConfig()
        self.store = BlobStore(self.config.path)
        self.checkpoints: List[Checkpoint] = []
        self._maps: Dict[str, Any] = {}
        self._trackers: Dict[str, DirtyTracker] = {}
        self._last_manifest: Dict[str, Dict[str, Any]] = {}
        self._states: Dict[str, Any] = {}
        self._pending_state_restores: Dict[str, Any] = {}
        # map name -> manifest of the last restored checkpoint; applied
        # (and re-applied) until the first epoch boundary after a restore
        # so driver-side re-initialization (a recovery re-run calling its
        # init code again) cannot clobber restored content.
        self._pending_map_restores: Dict[str, Dict[str, Any]] = {}
        # Graph version the pending manifests were captured at.  A
        # recovery re-run replays the driver from scratch, so the graph
        # passes through *older* versions (pre-mutation topology) before
        # apply_mutations catches it up; manifests whose shapes reflect
        # the mutated graph stay parked until versions line up again.
        self._pending_graph_version: Optional[int] = None
        self._next_index = 0
        self._epochs_at_last_capture = -1
        self._sys: Dict[str, Any] = {}
        self._register_system()

    # -- registration -------------------------------------------------

    def _register_system(self) -> None:
        m = self.machine
        self._sys["sys:transport"] = m.transport
        self._sys["sys:detector"] = m.detector
        self._sys["sys:stats"] = m.stats
        if getattr(m, "chaos", None) is not None:
            self._sys["sys:chaos"] = m.chaos
        if getattr(m, "reliable", None) is not None:
            self._sys["sys:reliable"] = m.reliable

    def register_map(self, pm) -> None:
        """Register a property map; installs its dirty tracker.

        Re-registering a name replaces the old map (a pattern re-bound
        on the same machine) and drops its stale manifest so the next
        capture re-encodes it fully.  If a restore is pending for this
        name (recovery re-ran the driver, which re-bound the pattern and
        built a fresh map), the checkpointed content is applied to the
        new map immediately — and again at the next epoch boundary, in
        case driver init code overwrites it in between.
        """
        name = pm.name
        sizes = [
            len(pm.local_slice(r)) for r in range(pm.graph.n_ranks)
        ]
        tracker = DirtyTracker(sizes, self.config.chunk_slots)
        self._maps[name] = pm
        self._trackers[name] = tracker
        pm.dirty = tracker
        self._last_manifest.pop(name, None)
        pending = self._pending_map_restores.get(name)
        if pending is not None and self._pending_applicable():
            self._restore_map(name, pending)

    def register_state(self, obj) -> None:
        """Register a strategy-state object for capture."""
        name = obj.checkpoint_name
        self._states[name] = obj

    def adopt_state(self, obj) -> None:
        """Register ``obj``, inheriting any prior state under its name.

        Recovery re-runs the user's strategy function, which builds a
        *fresh* loop-state object.  ``adopt_state`` bridges it to the
        rolled-back state: a pending restore (from :meth:`restore`)
        wins; otherwise state is copied from a previously registered
        object of the same name, so a re-entered ``delta_stepping``
        resumes mid-loop instead of starting over.
        """
        name = obj.checkpoint_name
        pending = self._pending_state_restores.pop(name, None)
        if pending is not None:
            obj.restore_state(pending)
        else:
            old = self._states.get(name)
            if old is not None and old is not obj:
                obj.restore_state(old.checkpoint_state())
        self._states[name] = obj
        # The strategy adopting its state is the moment the driver's
        # re-initialisation (e.g. ``_init_dist``) is over: re-apply any
        # pending map restores now, so a resume whose restored loop state
        # is already *converged* (zero epochs left to run) still reads
        # checkpoint content rather than freshly initialised maps.
        self.apply_pending()

    def drop_state(self, name: str) -> None:
        """Forget a strategy state (its loop finished cleanly)."""
        self._states.pop(name, None)
        self._pending_state_restores.pop(name, None)

    def maps(self) -> Dict[str, Any]:
        return dict(self._maps)

    # -- capture ------------------------------------------------------

    def _check_quiescent(self) -> None:
        m = self.machine
        if m._active_epoch is not None:
            raise CheckpointError(
                "cannot capture inside an active epoch: checkpoints are "
                "epoch-boundary-aligned"
            )
        if m.transport.pending_messages() or m.transport.pending_layer_items():
            raise CheckpointError(
                "cannot capture with messages in flight: the epoch "
                "boundary is not quiescent"
            )

    def _encode_chunk(self, pm, rank: int, chunk: int) -> bytes:
        cs = self.config.chunk_slots
        lo = chunk * cs
        storage = pm.local_slice(rank)
        hi = min(lo + cs, len(storage))
        if isinstance(storage, np.ndarray):
            return stable_dumps(np.ascontiguousarray(storage[lo:hi]))
        # object storage (e.g. SET-valued maps): list of python values
        return stable_dumps(list(storage[lo:hi]))

    def _capture_map(self, name: str, pm, full: bool, stats) -> Dict[str, Any]:
        tracker = self._trackers[name]
        prev = self._last_manifest.get(name)
        storage0 = pm.local_slice(0) if pm.graph.n_ranks else None
        is_np = isinstance(storage0, np.ndarray)
        manifest: Dict[str, Any] = {
            "kind": type(pm).__name__,
            "dtype": (str(storage0.dtype) if is_np else "object"),
            "sizes": list(tracker.sizes),
            "chunks": [],
        }
        for rank in range(pm.graph.n_ranks):
            n_chunks = tracker.n_chunks(rank)
            # Object storage (e.g. SET-valued predecessor maps) is mutated
            # in place (`container.add(...)`) without going through the
            # map's write paths, so dirty bits cannot be trusted: always
            # re-encode.  Content addressing still dedups unchanged
            # chunks, so only the encode+hash cost is paid.
            dirty = (
                set(range(n_chunks))
                if full or prev is None or not is_np
                else set(tracker.dirty_chunks(rank).tolist())
            )
            digests: List[str] = []
            for chunk in range(n_chunks):
                if chunk not in dirty and prev is not None:
                    digest = prev["chunks"][rank][chunk]
                    if stats is not None:
                        stats.count_checkpoint("chunks_reused")
                else:
                    blob = self._encode_chunk(pm, rank, chunk)
                    digest, is_new = self.store.put(blob)
                    if stats is not None:
                        stats.count_checkpoint("chunks_written")
                        if is_new:
                            stats.count_checkpoint("bytes_written", len(blob))
                digests.append(digest)
            manifest["chunks"].append(digests)
        tracker.clear()
        return manifest

    def capture(self, full: bool = False) -> Checkpoint:
        """Capture a checkpoint at the current (quiescent) boundary."""
        self._check_quiescent()
        m = self.machine
        tel = m.telemetry
        ctx = tel.phase("snapshot") if tel.enabled else None
        if ctx is not None:
            ctx.__enter__()
        try:
            full = full or not self.checkpoints or not self.config.incremental
            ckpt = Checkpoint(
                index=self._next_index,
                epoch=len(m.stats.epochs),
                full=full,
                meta={
                    "n_ranks": m.n_ranks,
                    "graph_version": (
                        getattr(m.graph, "version", 0)
                        if m.graph is not None
                        else 0
                    ),
                },
            )
            stats = m.stats
            for name, pm in sorted(self._maps.items()):
                manifest = self._capture_map(name, pm, full, stats)
                ckpt.maps[name] = manifest
                self._last_manifest[name] = manifest
            for name, obj in sorted(
                list(self._states.items()) + list(self._sys.items())
            ):
                blob = stable_dumps(obj.checkpoint_state())
                digest, is_new = self.store.put(blob)
                if is_new:
                    stats.count_checkpoint("bytes_written", len(blob))
                ckpt.states[name] = digest
            self._next_index += 1
            self._epochs_at_last_capture = ckpt.epoch
            self.checkpoints.append(ckpt)
            if len(self.checkpoints) > self.config.keep:
                del self.checkpoints[: -self.config.keep]
            stats.count_checkpoint("snapshots")
            if full:
                stats.count_checkpoint("full_snapshots")
            if self.config.path:
                self.save(self.config.path)
            m.flight.record(
                "checkpoint", index=ckpt.index, epoch=ckpt.epoch, full=full
            )
            return ckpt
        finally:
            if ctx is not None:
                ctx.__exit__(None, None, None)

    def maybe_capture(self) -> Optional[Checkpoint]:
        """Capture if ``config.every`` epochs elapsed since the last one."""
        if self._pending_map_restores:
            # Mid-recovery replay: map content is transient driver re-init
            # output, not state worth snapshotting (and, before a replayed
            # apply_mutations, it reflects the wrong graph version).
            return None
        done = len(self.machine.stats.epochs)
        if done - max(0, self._epochs_at_last_capture) >= self.config.every:
            return self.capture()
        return None

    def ensure_initial(self) -> Optional[Checkpoint]:
        """Capture a full baseline before the first epoch, if possible.

        Called on epoch entry: without a baseline, a crash in the very
        first epoch would have nothing to roll back to.  Silently skips
        when the boundary is not quiescent (mid-recovery re-entry).
        """
        if self.checkpoints:
            return None
        m = self.machine
        if m._active_epoch is not None:
            return None
        if m.transport.pending_messages() or m.transport.pending_layer_items():
            return None
        return self.capture(full=True)

    def ensure_graph_current(self) -> Optional[Checkpoint]:
        """Capture a fresh full baseline after a graph mutation.

        Called on epoch entry: a checkpoint taken before a mutation can
        never be restored onto the mutated graph (storage shapes and edge
        ids changed, and rollback must not silently un-mutate results), so
        the first epoch after ``apply_mutations`` re-baselines.  Skips
        when no checkpoint exists yet (:meth:`ensure_initial` handles
        that) or the boundary is not quiescent.
        """
        m = self.machine
        g = m.graph
        if g is None or not self.checkpoints:
            return None
        if self._pending_map_restores:
            # Mid-recovery: the re-run is replaying the driver, so the
            # graph passing through older versions is expected — a fresh
            # baseline here would snapshot freshly initialised maps and
            # shadow the checkpoint we are restoring toward.
            return None
        version = getattr(g, "version", 0)
        if self.checkpoints[-1].meta.get("graph_version", version) == version:
            return None
        if m._active_epoch is not None:
            return None
        if m.transport.pending_messages() or m.transport.pending_layer_items():
            return None
        return self.capture(full=True)

    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def apply_pending(self) -> None:
        """Apply (and clear) pending map restores to registered maps.

        Called at epoch entry: this is the last write before message
        traffic resumes, so any driver-side re-initialization performed
        by a recovery re-run between :meth:`restore` and its first epoch
        is overwritten by the checkpointed content.

        While the graph is at an older version than the restored
        checkpoint (a recovery re-run replaying the driver has not yet
        re-applied its mutations), manifests stay parked: their shapes
        describe the mutated graph.
        """
        if not self._pending_map_restores:
            return
        if not self._pending_applicable():
            return
        for name in list(self._pending_map_restores):
            if name in self._maps:
                self._restore_map(name, self._pending_map_restores[name])
                del self._pending_map_restores[name]
        if not self._pending_map_restores:
            self._pending_graph_version = None

    def _pending_applicable(self) -> bool:
        """Pending manifests may only touch the graph version they froze."""
        want = self._pending_graph_version
        if want is None:
            return True
        g = self.machine.graph
        return g is not None and getattr(g, "version", 0) == want

    # -- restore ------------------------------------------------------

    def _restore_map(self, name: str, manifest: Dict[str, Any]) -> None:
        pm = self._maps.get(name)
        if pm is None:
            raise CheckpointError(
                f"checkpoint contains map {name!r} which is not registered"
            )
        if type(pm).__name__ != manifest["kind"]:
            raise CheckpointError(
                f"map {name!r}: checkpointed as {manifest['kind']}, "
                f"registered as {type(pm).__name__}"
            )
        cs = self.config.chunk_slots
        for rank, digests in enumerate(manifest["chunks"]):
            storage = pm.local_slice(rank)
            if len(storage) != manifest["sizes"][rank]:
                raise CheckpointError(
                    f"map {name!r} rank {rank}: checkpointed "
                    f"{manifest['sizes'][rank]} slots, map has {len(storage)}"
                )
            for chunk, digest in enumerate(digests):
                data = stable_loads(self.store.get(digest))
                lo = chunk * cs
                hi = min(lo + cs, len(storage))
                if isinstance(storage, np.ndarray):
                    if str(data.dtype) != str(storage.dtype):
                        raise CheckpointError(
                            f"map {name!r}: dtype drift "
                            f"({data.dtype} vs {storage.dtype})"
                        )
                    storage[lo:hi] = data
                else:
                    storage[lo:hi] = data
        tracker = self._trackers[name]
        tracker.clear()
        self._last_manifest[name] = manifest

    def restore(self, ckpt: Optional[Checkpoint] = None) -> Checkpoint:
        """Roll the machine back to ``ckpt`` (default: latest)."""
        if ckpt is None:
            ckpt = self.latest()
        if ckpt is None:
            raise CheckpointError("no checkpoint to restore from")
        m = self.machine
        want = ckpt.meta.get("graph_version")
        have = getattr(m.graph, "version", 0) if m.graph is not None else 0
        if want is not None and want < have:
            raise CheckpointError(
                f"checkpoint {ckpt.index} was captured at graph version "
                f"{want} but the graph is now at version {have}: rollback "
                "across a mutation is not supported (apply_mutations "
                "re-baselines at the next epoch entry; restore from a "
                "post-mutation checkpoint instead)"
            )
        tel = m.telemetry
        ctx = tel.phase("restore") if tel.enabled else None
        if ctx is not None:
            ctx.__enter__()
        try:
            self._pending_graph_version = want
            applicable = self._pending_applicable()
            for name, manifest in sorted(ckpt.maps.items()):
                if name in self._maps and applicable:
                    self._restore_map(name, manifest)
                # keep pending until the first epoch boundary: a recovery
                # re-run may re-bind (fresh map objects) and re-init maps
                # before entering its first epoch — and, after a crash
                # mid-delta-restart, must first replay apply_mutations to
                # bring the rebuilt graph back to the manifest's version.
                self._pending_map_restores[name] = manifest
            for name, digest in sorted(ckpt.states.items()):
                state = stable_loads(self.store.get(digest))
                if name.startswith(_SYS_PREFIX):
                    obj = self._sys.get(name)
                    if obj is not None:
                        obj.restore_state(state)
                    continue
                obj = self._states.get(name)
                if obj is not None:
                    obj.restore_state(state)
                else:
                    self._pending_state_restores[name] = state
            # message layers buffer per-epoch aggregation state that the
            # rolled-back epochs will rebuild from scratch
            for mtype in m.registry:
                for layer in mtype.layers:
                    layer.reset()
            with tel._lock:
                tel._pending.clear()
            self._epochs_at_last_capture = ckpt.epoch
            m.stats.count_checkpoint("restores")
            m.flight.record("restore", index=ckpt.index, epoch=ckpt.epoch)
            return ckpt
        finally:
            if ctx is not None:
                ctx.__exit__(None, None, None)

    # -- persistence --------------------------------------------------

    def save(self, path: str) -> None:
        """Persist manifests + referenced blobs under ``path``."""
        os.makedirs(os.path.join(path, "blobs"), exist_ok=True)
        payload = {
            "version": 1,
            "checkpoints": [
                {
                    "index": c.index,
                    "epoch": c.epoch,
                    "full": c.full,
                    "maps": c.maps,
                    "states": c.states,
                    "meta": c.meta,
                }
                for c in self.checkpoints
            ],
        }
        for ckpt in self.checkpoints:
            digests = set(ckpt.states.values())
            for manifest in ckpt.maps.values():
                for rank_digests in manifest["chunks"]:
                    digests.update(rank_digests)
            for digest in digests:
                fn = os.path.join(path, "blobs", digest)
                if not os.path.exists(fn):
                    with open(fn, "wb") as f:
                        f.write(self.store.get(digest))
        tmp = os.path.join(path, "checkpoints.json.tmp")
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
        os.replace(tmp, os.path.join(path, "checkpoints.json"))

    def load(self, path: str) -> None:
        """Load persisted checkpoints; blobs are read lazily from disk."""
        fn = os.path.join(path, "checkpoints.json")
        if not os.path.exists(fn):
            raise CheckpointError(f"no checkpoints.json under {path!r}")
        with open(fn) as f:
            payload = json.load(f)
        if payload.get("version") != 1:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        self.store.path = path
        self.checkpoints = [
            Checkpoint(
                index=c["index"],
                epoch=c["epoch"],
                full=c["full"],
                maps=c["maps"],
                states=c["states"],
                meta=c.get("meta", {}),
            )
            for c in payload["checkpoints"]
        ]
        if self.checkpoints:
            self._next_index = self.checkpoints[-1].index + 1


def describe_checkpoint_dir(path: str) -> Dict[str, Any]:
    """Summarize a persisted checkpoint directory (for ``repro checkpoint``)."""
    fn = os.path.join(path, "checkpoints.json")
    if not os.path.exists(fn):
        raise CheckpointError(f"no checkpoints.json under {path!r}")
    with open(fn) as f:
        payload = json.load(f)
    blob_dir = os.path.join(path, "blobs")
    blobs = os.listdir(blob_dir) if os.path.isdir(blob_dir) else []
    blob_bytes = sum(
        os.path.getsize(os.path.join(blob_dir, b)) for b in blobs
    )
    rows = []
    for c in payload.get("checkpoints", []):
        chunk_total = sum(
            len(rd) for m in c["maps"].values() for rd in m["chunks"]
        )
        rows.append(
            {
                "index": c["index"],
                "epoch": c["epoch"],
                "full": c["full"],
                "maps": sorted(c["maps"]),
                "states": sorted(c["states"]),
                "chunks": chunk_total,
            }
        )
    return {
        "path": path,
        "checkpoints": rows,
        "blobs": len(blobs),
        "blob_bytes": blob_bytes,
    }


__all__ = [
    "BlobStore",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointError",
    "CheckpointManager",
    "DirtyTracker",
    "describe_checkpoint_dir",
    "stable_dumps",
    "stable_loads",
]
