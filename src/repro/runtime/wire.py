"""Binary wire codec for the process transport.

The process backend carries every inter-rank hop as one contiguous binary
frame instead of a pickled Python object graph.  The codec is schema-driven:
when a :class:`~repro.runtime.message.MessageType` is registered with the
codec we create a (initially empty) slot schema for its ``type_id``; the
concrete column layout is *inferred* from the first coalesced envelope we
see for that type and recorded so subsequent envelopes of the same shape
encode without re-probing.

Frame layout (little-endian)::

    header   <BBBBiii>   magic, kind, flags, ncols, type_id, src, dest
    [rel]    <iiq>       channel[0], channel[1], seq      (FLAG_REL only)
    kind-specific body

Body by kind:

* ``KIND_BATCH`` — ``<i>`` n_rows, then ``ncols`` column descriptors.  Each
  column is 1 tag byte followed by either an 8-byte constant
  (``COL_CONST_I``/``COL_CONST_F`` — constant-elision: a column whose value
  is identical in every row costs 9 bytes total regardless of n_rows) or a
  packed vector (``COL_I32``/``COL_I64``/``COL_F64``).  Decoding yields a
  :class:`WireBatch` whose columns are zero-copy ``np.frombuffer`` views
  over the frame — the vector fast path consumes them directly without ever
  materialising per-row tuples.
* ``KIND_DATA`` — a single scalar payload: 1 tag + 8 bytes per slot.
* ``KIND_ACK`` — reliable-delivery ack; the ``rel`` tail *is* the body.
* ``KIND_PICKLE`` — fallback for ragged / non-numeric / trace-carrying
  envelopes: ``pickle.dumps((env, batch))``.  Correct for everything,
  just not fast; the hot path (uniform numeric coalesced envelopes) never
  takes it.
* ``KIND_CTRL`` — out-of-band control objects (SYNC/STOP/ERROR...), pickled.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .message import Envelope
from .reliable import AckEnvelope, ReliableEnvelope

MAGIC = 0xA9

KIND_DATA = 1
KIND_BATCH = 2
KIND_ACK = 3
KIND_PICKLE = 4
KIND_CTRL = 5

FLAG_REL = 1

_HDR = struct.Struct("<BBBBiii")    # magic, kind, flags, ncols, type_id, src, dest
_REL = struct.Struct("<iiq")        # channel[0], channel[1], seq
_NROWS = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

# Column tag codes.
COL_CONST_I = 0   # all rows share one int value    -> 8 bytes total
COL_CONST_F = 1   # all rows share one float value  -> 8 bytes total
COL_I32 = 2       # int32 vector
COL_I64 = 3       # int64 vector
COL_F64 = 4       # float64 vector

_I32_MIN = -(2**31)
_I32_MAX = 2**31 - 1


def _is_int(v: Any) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_float(v: Any) -> bool:
    return isinstance(v, (float, np.floating))


class WireBatch:
    """Columnar view over one decoded coalesced envelope.

    Behaves like the tuple-of-tuples payload the runtime already ships
    (``len``, iteration, indexing all yield per-row tuples) but keeps the
    underlying columns as numpy views over the wire frame so the vector
    fast path can consume them without materialising rows.
    """

    __slots__ = ("_cols", "nrows", "ncols", "_rows")

    def __init__(self, cols: List[Any], nrows: int):
        # Each entry of ``cols`` is either a scalar (constant column) or a
        # 1-D ndarray of length ``nrows``.
        self._cols = cols
        self.nrows = nrows
        self.ncols = len(cols)
        self._rows: Optional[Tuple[tuple, ...]] = None

    def __len__(self) -> int:
        return self.nrows

    def col_const(self, i: int) -> Optional[Any]:
        """Return the constant value of column ``i`` or None if non-const."""
        c = self._cols[i]
        if isinstance(c, np.ndarray):
            return None
        return c

    def column(self, i: int) -> np.ndarray:
        """Column ``i`` as an ndarray (constants are broadcast)."""
        c = self._cols[i]
        if isinstance(c, np.ndarray):
            return c
        if _is_float(c):
            return np.full(self.nrows, c, dtype=np.float64)
        return np.full(self.nrows, c, dtype=np.int64)

    def columns(self, *indices: int) -> tuple:
        """Several columns at once as ndarrays (constants broadcast).

        The frame views feed the fused tier's batch kernels directly —
        per-row tuples are never materialized on this path.
        """
        return tuple(self.column(i) for i in indices)

    def _materialize(self) -> Tuple[tuple, ...]:
        if self._rows is None:
            cols = []
            for c in self._cols:
                if isinstance(c, np.ndarray):
                    cols.append(c.tolist())
                else:
                    cols.append([c] * self.nrows)
            self._rows = tuple(zip(*cols)) if cols else tuple(() for _ in range(self.nrows))
        return self._rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._materialize())

    def __getitem__(self, idx):
        return self._materialize()[idx]

    def __eq__(self, other) -> bool:  # pragma: no cover - convenience
        try:
            return tuple(self) == tuple(other)
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"WireBatch(nrows={self.nrows}, ncols={self.ncols})"


#: Additive counter fields of :class:`WireStats` (merge/snapshot iterate
#: this so a new counter can never be silently forgotten).
_WIRE_FIELDS = (
    "frames_out", "frames_in", "bytes_out", "bytes_in",
    "binary_frames", "pickle_frames", "ctrl_frames", "ctrl_bytes",
    "rows_out", "baseline_bytes",
)


@dataclass
class WireStats:
    """Serialization accounting for one codec instance.

    ``bytes_per_logical`` excludes control traffic (sync/feedback frames)
    so it measures what the codec is for: how many wire bytes one logical
    application message costs.  ``baseline_bytes`` accumulates the size a
    naive wire — one pickled tuple envelope per logical message, see
    :func:`naive_wire_bytes` — would have shipped for the same traffic
    (populated only when :attr:`WireCodec.measure_baseline` is set — it
    costs one extra ``pickle.dumps`` per frame).
    """

    frames_out: int = 0
    frames_in: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    binary_frames: int = 0
    pickle_frames: int = 0
    ctrl_frames: int = 0
    ctrl_bytes: int = 0
    rows_out: int = 0          # logical messages encoded (data frames)
    baseline_bytes: int = 0    # naive-wire size of the same logical traffic

    @property
    def data_bytes_out(self) -> int:
        return self.bytes_out - self.ctrl_bytes

    def bytes_per_logical(self) -> float:
        if self.rows_out == 0:
            return 0.0
        return self.data_bytes_out / self.rows_out

    def baseline_bytes_per_logical(self) -> float:
        if self.rows_out == 0:
            return 0.0
        return self.baseline_bytes / self.rows_out

    def snapshot(self) -> Dict[str, Any]:
        d = {name: getattr(self, name) for name in _WIRE_FIELDS}
        d["data_bytes_out"] = self.data_bytes_out
        d["bytes_per_logical"] = self.bytes_per_logical()
        d["baseline_bytes_per_logical"] = self.baseline_bytes_per_logical()
        return d

    def merge(self, other: "WireStats") -> None:
        for name in _WIRE_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def merge_dict(self, d: Dict[str, Any]) -> None:
        for name in _WIRE_FIELDS:
            setattr(self, name, getattr(self, name) + d.get(name, 0))


@dataclass
class _Schema:
    """Per-MessageType slot schema, inferred from traffic."""

    type_id: int
    name: str
    # Most recent successfully-inferred column codes; purely informational
    # (each envelope re-derives its own layout so mixed shapes still work),
    # but exposed so tests/docs can show what the codec learned.
    col_codes: Optional[Tuple[int, ...]] = None
    n_binary: int = 0
    n_pickle: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


class WireCodec:
    """Encode/decode envelopes to contiguous binary frames."""

    def __init__(self) -> None:
        self.schemas: Dict[int, _Schema] = {}
        self.stats = WireStats()
        #: When set, every data frame also pickles its envelope so
        #: ``stats.baseline_bytes`` tracks what a naive pickle wire would
        #: have cost for the same traffic.  Off by default (costs one
        #: ``pickle.dumps`` per frame); benchmarks flip it on.
        self.measure_baseline = False

    # -- registration ---------------------------------------------------

    def register(self, mtype) -> _Schema:
        """Seed a slot schema for ``mtype`` (idempotent)."""
        sch = self.schemas.get(mtype.type_id)
        if sch is None:
            sch = _Schema(type_id=mtype.type_id, name=mtype.name)
            self.schemas[mtype.type_id] = sch
        return sch

    # -- encode ---------------------------------------------------------

    def encode(self, env, batch: bool) -> bytes:
        frame = self._encode(env, batch)
        self.stats.frames_out += 1
        self.stats.bytes_out += len(frame)
        if batch:
            self.stats.rows_out += len(env.payload)
        elif not isinstance(env, AckEnvelope):
            # Acks are control traffic, not logical messages: keeping them
            # out of rows_out keeps bytes_per_logical honest under chaos.
            self.stats.rows_out += 1
        if self.measure_baseline:
            self.stats.baseline_bytes += naive_wire_bytes(env, batch)
        return frame

    def _encode(self, env, batch: bool) -> bytes:
        if isinstance(env, AckEnvelope):
            hdr = _HDR.pack(MAGIC, KIND_ACK, 0, 0, 0, env.src, env.dest)
            ch = env.channel
            self.stats.binary_frames += 1
            return hdr + _REL.pack(ch[0], ch[1], env.seq)

        flags = 0
        rel = b""
        inner = env
        if isinstance(env, ReliableEnvelope):
            flags |= FLAG_REL
            ch = env.channel
            rel = _REL.pack(ch[0], ch[1], env.seq)
            inner = env.env

        if inner.trace is not None:
            return self._pickle_frame(env, batch)

        sch = self.schemas.get(inner.type_id)

        if batch:
            body = self._encode_batch(inner.payload)
            if body is None:
                if sch is not None:
                    sch.n_pickle += 1
                return self._pickle_frame(env, batch)
            codes, payload_bytes = body
            if sch is not None:
                sch.col_codes = codes
                sch.n_binary += 1
            hdr = _HDR.pack(
                MAGIC, KIND_BATCH, flags, len(codes),
                inner.type_id, inner.src, inner.dest,
            )
            self.stats.binary_frames += 1
            return hdr + rel + payload_bytes

        body = self._encode_scalar(inner.payload)
        if body is None:
            if sch is not None:
                sch.n_pickle += 1
            return self._pickle_frame(env, batch)
        codes, payload_bytes = body
        if sch is not None:
            sch.col_codes = codes
            sch.n_binary += 1
        hdr = _HDR.pack(
            MAGIC, KIND_DATA, flags, len(codes),
            inner.type_id, inner.src, inner.dest,
        )
        self.stats.binary_frames += 1
        return hdr + rel + payload_bytes

    def _pickle_frame(self, env, batch: bool) -> bytes:
        body = pickle.dumps((env, batch), protocol=pickle.HIGHEST_PROTOCOL)
        hdr = _HDR.pack(MAGIC, KIND_PICKLE, 0, 0, 0, 0, 0)
        self.stats.pickle_frames += 1
        return hdr + body

    @staticmethod
    def _encode_scalar(payload) -> Optional[Tuple[Tuple[int, ...], bytes]]:
        if not isinstance(payload, tuple) or len(payload) > 255:
            return None
        codes: List[int] = []
        parts: List[bytes] = []
        for v in payload:
            if _is_int(v):
                try:
                    parts.append(bytes([COL_CONST_I]) + _I64.pack(int(v)))
                except (struct.error, OverflowError):
                    return None
                codes.append(COL_CONST_I)
            elif _is_float(v):
                parts.append(bytes([COL_CONST_F]) + _F64.pack(float(v)))
                codes.append(COL_CONST_F)
            else:
                return None
        return tuple(codes), b"".join(parts)

    @staticmethod
    def _encode_batch(payloads) -> Optional[Tuple[Tuple[int, ...], bytes]]:
        n = len(payloads)
        if n == 0:
            return None
        first = payloads[0]
        if not isinstance(first, tuple):
            return None
        ncols = len(first)
        if ncols == 0 or ncols > 255:
            return None
        for p in payloads:
            if not isinstance(p, tuple) or len(p) != ncols:
                return None  # ragged -> pickle fallback

        codes: List[int] = []
        parts: List[bytes] = [_NROWS.pack(n)]
        cols = zip(*payloads)
        for col in cols:
            v0 = col[0]
            if _is_int(v0):
                if not all(_is_int(v) for v in col):
                    return None
                try:
                    arr = np.fromiter(col, dtype=np.int64, count=n)
                except (OverflowError, ValueError):
                    return None
                if n > 1 and bool((arr == arr[0]).all()):
                    codes.append(COL_CONST_I)
                    parts.append(bytes([COL_CONST_I]) + _I64.pack(int(arr[0])))
                elif _I32_MIN <= int(arr.min()) and int(arr.max()) <= _I32_MAX:
                    codes.append(COL_I32)
                    parts.append(bytes([COL_I32]) + arr.astype(np.int32).tobytes())
                else:
                    codes.append(COL_I64)
                    parts.append(bytes([COL_I64]) + arr.tobytes())
            elif _is_float(v0):
                if not all(_is_float(v) for v in col):
                    return None
                arr = np.fromiter(col, dtype=np.float64, count=n)
                if n > 1 and bool((arr == arr[0]).all()) and not np.isnan(arr[0]):
                    codes.append(COL_CONST_F)
                    parts.append(bytes([COL_CONST_F]) + _F64.pack(float(arr[0])))
                else:
                    codes.append(COL_F64)
                    parts.append(bytes([COL_F64]) + arr.tobytes())
            else:
                return None
        return tuple(codes), b"".join(parts)

    # -- control frames -------------------------------------------------

    def encode_ctrl(self, obj: Any) -> bytes:
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        hdr = _HDR.pack(MAGIC, KIND_CTRL, 0, 0, 0, 0, 0)
        frame = hdr + body
        self.stats.frames_out += 1
        self.stats.bytes_out += len(frame)
        self.stats.ctrl_frames += 1
        self.stats.ctrl_bytes += len(frame)
        return frame

    # -- decode ---------------------------------------------------------

    def decode(self, frame: bytes):
        """Decode one frame.

        Returns one of::

            ("ctrl", obj)
            ("msg", envelope, batch)

        where ``envelope`` may be an :class:`Envelope` (payload is a tuple
        or a :class:`WireBatch`), a :class:`ReliableEnvelope` wrapping one,
        or an :class:`AckEnvelope`.
        """
        self.stats.frames_in += 1
        self.stats.bytes_in += len(frame)
        magic, kind, flags, ncols, type_id, src, dest = _HDR.unpack_from(frame, 0)
        if magic != MAGIC:
            raise ValueError(f"bad wire frame magic: 0x{magic:02x}")
        off = _HDR.size

        if kind == KIND_CTRL:
            return ("ctrl", pickle.loads(frame[off:]))
        if kind == KIND_PICKLE:
            env, batch = pickle.loads(frame[off:])
            return ("msg", env, batch)
        if kind == KIND_ACK:
            ch0, ch1, seq = _REL.unpack_from(frame, off)
            return ("msg", AckEnvelope(dest=dest, src=src, channel=(ch0, ch1), seq=seq), False)

        channel = None
        seq = 0
        if flags & FLAG_REL:
            ch0, ch1, seq = _REL.unpack_from(frame, off)
            channel = (ch0, ch1)
            off += _REL.size

        if kind == KIND_DATA:
            payload = []
            for _ in range(ncols):
                tag = frame[off]
                off += 1
                if tag == COL_CONST_I:
                    payload.append(_I64.unpack_from(frame, off)[0])
                elif tag == COL_CONST_F:
                    payload.append(_F64.unpack_from(frame, off)[0])
                else:
                    raise ValueError(f"bad scalar column tag {tag}")
                off += 8
            env = Envelope(dest=dest, type_id=type_id, payload=tuple(payload), src=src)
            if channel is not None:
                env = ReliableEnvelope(env, channel, seq)
            return ("msg", env, False)

        if kind == KIND_BATCH:
            (nrows,) = _NROWS.unpack_from(frame, off)
            off += _NROWS.size
            cols: List[Any] = []
            for _ in range(ncols):
                tag = frame[off]
                off += 1
                if tag == COL_CONST_I:
                    cols.append(_I64.unpack_from(frame, off)[0])
                    off += 8
                elif tag == COL_CONST_F:
                    cols.append(_F64.unpack_from(frame, off)[0])
                    off += 8
                elif tag == COL_I32:
                    arr = np.frombuffer(frame, dtype=np.int32, count=nrows, offset=off)
                    cols.append(arr.astype(np.int64))
                    off += 4 * nrows
                elif tag == COL_I64:
                    cols.append(np.frombuffer(frame, dtype=np.int64, count=nrows, offset=off))
                    off += 8 * nrows
                elif tag == COL_F64:
                    cols.append(np.frombuffer(frame, dtype=np.float64, count=nrows, offset=off))
                    off += 8 * nrows
                else:
                    raise ValueError(f"bad batch column tag {tag}")
            wb = WireBatch(cols, nrows)
            env = Envelope(dest=dest, type_id=type_id, payload=wb, src=src)
            if channel is not None:
                env = ReliableEnvelope(env, channel, seq)
            return ("msg", env, True)

        raise ValueError(f"unknown wire frame kind {kind}")


def pickled_envelope_bytes(env, batch: bool) -> int:
    """Size of the pickled representation of one envelope as shipped."""
    return len(pickle.dumps((env, batch), protocol=pickle.HIGHEST_PROTOCOL))


def naive_wire_bytes(env, batch: bool) -> int:
    """Per-hop cost of the naive wire: one pickled tuple envelope per
    *logical* message.

    This is the baseline for ``bytes_per_logical`` comparisons — what a
    queue transport that pickles each :class:`Envelope` individually
    (no binary framing, no columnar batching) would ship for the same
    traffic.  For a coalesced envelope every payload row is priced as its
    own scalar envelope; the per-row size is probed once from the first
    row (numeric tuple pickles are near-constant size, so this is exact
    to within a few bytes per million messages).
    """
    if not batch:
        return pickled_envelope_bytes(env, batch)
    payload = env.payload
    n = len(payload)
    inner = env.env if isinstance(env, ReliableEnvelope) else env
    try:
        probe = Envelope(
            dest=inner.dest,
            type_id=inner.type_id,
            payload=tuple(payload[0]),
            src=inner.src,
        )
    except (IndexError, TypeError):
        return pickled_envelope_bytes(env, batch)
    return n * pickled_envelope_bytes(probe, False)
