"""Layer spans recorded from outside the library.

A :class:`Tracer` replaces selected public methods of ``repro.patterns``,
``repro.runtime`` and ``repro.service`` classes with timing wrappers.
Each call becomes one span: name, start, end, parent span and request
id.  Spans live in per-thread column arrays, are aggregated with numpy
when the run ends and written out once.

The wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.restore`; ``restore`` checks that every wrapped attribute
is the library's own function again, so untraced runs execute
unmodified code.  Forked rank processes restore the originals right
after the fork: worker-side time is not visible from here, only the
parent's waits are.
"""

from __future__ import annotations

import importlib
import os
import threading
from array import array
from time import perf_counter

import numpy as np

#: (module, class, attribute, span name).  One span name may cover
#: several methods (e.g. every detector's ``probe``).
TARGETS = (
    ("repro.patterns.executor", "BoundPattern", "__init__", "patterns.bind"),
    ("repro.patterns.executor", "BoundAction", "invoke", "patterns.invoke"),
    ("repro.runtime.transport", "Transport", "run_handler", "patterns.handler"),
    ("repro.runtime.transport", "Transport", "send", "transport.send"),
    ("repro.runtime.sim", "SimTransport", "drain", "transport.drain"),
    ("repro.runtime.sim", "SimTransport", "drain_some", "transport.drain"),
    ("repro.runtime.addressing", "AddressResolver", "resolve", "addressing.resolve"),
    ("repro.runtime.reductions", "ReductionLayer", "send", "reductions.send"),
    ("repro.runtime.reductions", "ReductionLayer", "flush", "reductions.flush"),
    ("repro.runtime.coalescing", "CoalescingLayer", "send", "coalescing.send"),
    ("repro.runtime.coalescing", "CoalescingLayer", "send_rows", "coalescing.send"),
    ("repro.runtime.coalescing", "CoalescingLayer", "flush", "coalescing.flush"),
    ("repro.runtime.epoch", "Epoch", "__enter__", "epoch.enter"),
    ("repro.runtime.epoch", "Epoch", "__exit__", "epoch.exit"),
    ("repro.runtime.epoch", "Epoch", "flush", "epoch.flush"),
    ("repro.runtime.termination", "OracleDetector", "probe", "termination.probe"),
    ("repro.runtime.termination", "SafraDetector", "probe", "termination.probe"),
    ("repro.runtime.termination", "FourCounterDetector", "probe", "termination.probe"),
    ("repro.runtime.process", "ProcessTransport", "drain", "process.drain"),
    ("repro.runtime.process", "ProcessTransport", "finish_epoch", "process.finish_epoch"),
    ("repro.runtime.wire", "WireCodec", "encode", "wire.encode"),
    ("repro.runtime.wire", "WireCodec", "decode", "wire.decode"),
    ("repro.runtime.machine", "Machine", "apply_mutations", "runtime.mutate"),
    ("repro.service.engine", "GraphEngine", "submit", "service.submit"),
    ("repro.service.batching", "BatchingScheduler", "execute", "service.execute"),
    ("repro.service.cache", "ResultCache", "get", "service.cache"),
    ("repro.service.cache", "ResultCache", "put", "service.cache"),
)

#: Span name the benchmark itself opens around one timed solve.
REQUEST = "request"


class _Store:
    """One thread's spans as parallel columns (no per-span objects)."""

    __slots__ = ("name", "t0", "t1", "parent", "req", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.stack: list[int] = []


class Tracer:
    """Span recorder plus the install/restore of the timing wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = sorted({t[3] for t in TARGETS} | {REQUEST})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._local = threading.local()
        self._stores: list[_Store] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[type, str, object]] = []
        self.request_id = -1  # request of spans opened on the main thread
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- recording -----------------------------------------------------------
    def _store(self) -> _Store:
        st = getattr(self._local, "store", None)
        if st is None:
            st = _Store()
            self._local.store = st
            self._local.req = None
            with self._lock:
                self._stores.append(st)
        return st

    def open(self, name: str) -> int:
        st = self._store()
        idx = len(st.name)
        st.name.append(self._ids[name])
        st.parent.append(st.stack[-1] if st.stack else -1)
        req = self._local.req
        st.req.append(self.request_id if req is None else req)
        st.t1.append(0.0)
        st.stack.append(idx)
        st.t0.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        st = self._local.store
        st.t1[idx] = t
        st.stack.pop()

    def set_thread_request(self, req: int | None) -> None:
        """Tag spans of the calling thread (service worker) with ``req``."""
        self._store()
        self._local.req = req

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "service.execute":
            # The fused run is the service's unit of work: its spans are
            # tagged with the first job's sequence number.
            def wrapper(self_, machine, graph, weight, jobs, *a, **k):
                tracer.set_thread_request(int(jobs[0].job_id.split("-")[1]))
                idx = tracer.open(name)
                try:
                    return fn(self_, machine, graph, weight, jobs, *a, **k)
                finally:
                    tracer.close(idx)
                    tracer.set_thread_request(None)

        else:

            def wrapper(*a, **k):
                idx = tracer.open(name)
                try:
                    return fn(*a, **k)
                finally:
                    tracer.close(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / restore ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, cls_name, attr, name in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def restore(self) -> None:
        """Put every original back and verify that it is back."""
        saved, self._saved = self._saved, []
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
        for cls, attr, original in saved:
            if cls.__dict__[attr] is not original:
                raise RuntimeError(f"{cls.__name__}.{attr} was not restored")

    def _after_fork_in_child(self) -> None:
        for cls, attr, original in self._saved:
            setattr(cls, attr, original)
        self._saved = []

    # -- results ---------------------------------------------------------------
    def spans(self) -> dict:
        """All spans as numpy columns (parents re-indexed globally)."""
        cols = {k: [] for k in ("name", "t0", "t1", "parent", "req")}
        offset = 0
        for st in self._stores:
            n = len(st.name)
            if n == 0:
                continue
            parent = np.frombuffer(st.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            cols["name"].append(np.frombuffer(st.name, dtype=np.int32))
            cols["t0"].append(np.frombuffer(st.t0, dtype=np.float64))
            cols["t1"].append(np.frombuffer(st.t1, dtype=np.float64))
            cols["parent"].append(parent)
            cols["req"].append(np.frombuffer(st.req, dtype=np.int64))
            offset += n
        dtypes = {"name": np.int32, "parent": np.int64, "req": np.int64}
        return {
            k: np.concatenate(v) if v else np.zeros(0, dtype=dtypes.get(k, np.float64))
            for k, v in cols.items()
        }

    def summary(self, requests) -> dict:
        """Per span name: calls, inclusive and self seconds, restricted to
        spans tagged with one of ``requests`` (``None``: every span)."""
        sp = self.spans()
        n = len(sp["name"])
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        if n == 0:
            return out
        dur = sp["t1"] - sp["t0"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        self_t = dur - child
        keep = (
            np.ones(n, dtype=bool)
            if requests is None
            else np.isin(sp["req"], np.asarray(list(requests), dtype=np.int64))
        )
        for i, name in enumerate(self.names):
            sel = keep & (sp["name"] == i)
            out[name] = {
                "calls": int(sel.sum()),
                "incl_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        """Write every span once, as compressed columns plus the name table."""
        sp = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **sp)
