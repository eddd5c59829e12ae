"""Causal telemetry: levels, span trees, phases, sampling, ring buffer."""

import pytest

from repro import Machine
from repro.algorithms.sssp import sssp_fixed_point
from repro.analysis import to_chrome_trace
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.runtime import (
    ChaosConfig,
    CheckpointConfig,
    LEVELS,
    Span,
    TelemetryConfig,
)
from repro.runtime.caching import CachingLayer
from repro.runtime.reductions import ReductionLayer, min_payload
from repro.runtime.telemetry import PHASES, make_telemetry


def chain_machine(n=4, depth=6, **mkw):
    """A machine whose handler forwards a token ``depth`` hops."""
    m = Machine(n_ranks=n, **mkw)

    def hop(ctx, p):
        k = p[0]
        if k < depth:
            ctx.send(fwd, (k + 1,))

    fwd = m.register("fwd", hop, dest_rank_of=lambda p: p[0] % n)
    return m, fwd


def run_chain(m, fwd):
    with m.epoch() as ep:
        ep.invoke(fwd, (0,))


class TestLevels:
    def test_default_is_off(self):
        m = Machine(2)
        assert m.telemetry.level == "off"
        assert not m.telemetry.enabled
        assert not m.telemetry.spans_on

    def test_counters_level_records_no_spans(self):
        m, fwd = chain_machine(telemetry="counters")
        run_chain(m, fwd)
        assert m.telemetry.enabled and not m.telemetry.spans_on
        assert not m.telemetry.snapshot_spans()
        phases = {k[0] for k in m.telemetry.counters_snapshot()}
        assert {"epoch", "inject", "drain", "probe"} <= phases

    def test_spans_level_records_spans(self):
        m, fwd = chain_machine(telemetry="spans")
        run_chain(m, fwd)
        kinds = {sp.kind for sp in m.telemetry.snapshot_spans()}
        assert {"msg", "handle", "phase"} <= kinds

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="telemetry"):
            Machine(2, telemetry="verbose")
        with pytest.raises(TypeError):
            make_telemetry(None, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(capacity=0)
        with pytest.raises(ValueError):
            TelemetryConfig(sample=1.5)
        assert set(LEVELS) == {"off", "counters", "spans"}


class TestSpanTrees:
    def test_chain_parentage(self):
        """A k-hop forwarding chain records msg->handle->msg->... lineage."""
        m, fwd = chain_machine(depth=5, telemetry="spans")
        run_chain(m, fwd)
        spans = m.telemetry.snapshot_spans()
        msgs = [sp for sp in spans if sp.kind == "msg"]
        handles = [sp for sp in spans if sp.kind == "handle"]
        assert len(msgs) == 6 and len(handles) == 6
        by_sid = {sp.sid: sp for sp in spans}
        # every handle's parent is a msg; every non-root msg's parent a handle
        for h in handles:
            assert by_sid[h.parent].kind == "msg"
        roots = 0
        for msg in msgs:
            parent = by_sid.get(msg.parent)
            if parent is None or parent.kind == "phase":
                roots += 1
            else:
                assert parent.kind == "handle"
        assert roots == 1
        # single trace id spans the whole causal tree
        assert len({sp.trace for sp in msgs + handles}) == 1

    def test_all_spans_closed_after_epoch(self):
        m, fwd = chain_machine(telemetry="spans")
        run_chain(m, fwd)
        assert all(sp.t1 is not None for sp in m.telemetry.snapshot_spans())
        assert m.telemetry.pending_contexts() == 0

    def test_layers_preserve_context(self):
        """Reduction combines + caching drops keep the pending table clean
        and annotate the losing spans."""
        m = Machine(4, telemetry="spans")
        got = []
        mt = m.register(
            "acc",
            lambda ctx, p: got.append(p),
            dest_rank_of=lambda p: p[0] % 4,
            cache=CachingLayer(),
            reduction=ReductionLayer(key=lambda p: p[0], combine=min_payload(1)),
            coalescing=4,
        )
        with m.epoch() as ep:
            for i in range(12):
                ep.invoke(mt, (i % 3, float(i)))
        assert m.telemetry.pending_contexts() == 0
        spans = m.telemetry.snapshot_spans()
        suppressed = [
            sp for sp in spans
            if sp.kind == "msg" and sp.args and (
                "suppressed" in sp.args or "combined_into" in sp.args)
        ]
        assert suppressed, "expected cache/reduction-suppressed msg spans"
        # suppressed spans are closed, not leaked
        assert all(sp.t1 is not None for sp in suppressed)

    def test_annotate_and_current(self):
        m = Machine(2, telemetry="spans")
        seen = []

        def h(ctx, p):
            cur = m.telemetry.current()
            seen.append(cur.kind if cur else None)
            m.telemetry.annotate(marker=p[0])

        mt = m.register("h", h, dest_rank_of=lambda p: p[0] % 2)
        with m.epoch() as ep:
            ep.invoke(mt, (1,))
        assert seen == ["handle"]
        handle = [sp for sp in m.telemetry.snapshot_spans() if sp.kind == "handle"][0]
        assert handle.args["marker"] == 1

    def test_events_recorded(self):
        # Point events live in the flight ring (armed by span telemetry
        # even with observe off) and export as Chrome-trace instants.
        m = Machine(4, telemetry="spans", observe=False)
        m.flight.record("fault", rank=2, fault="drop")
        (ev,) = m.flight.events()
        assert ev["kind"] == "fault" and ev["fault"] == "drop"
        assert not [sp for sp in m.telemetry.snapshot_spans()
                    if sp.kind not in ("msg", "handle", "batch", "phase")]
        (inst,) = [e for e in to_chrome_trace(m)["traceEvents"]
                   if e["ph"] == "i"]
        assert inst["name"] == "fault" and inst["pid"] == 2
        assert inst["args"]["fault"] == "drop" and inst["ts"] >= 0


class TestSamplingAndCapacity:
    def test_sample_zero_drops_whole_traces(self):
        cfg = TelemetryConfig(level="spans", sample=0.0)
        m, fwd = chain_machine(telemetry=cfg)
        run_chain(m, fwd)
        spans = m.telemetry.snapshot_spans()
        assert not [sp for sp in spans if sp.kind in ("msg", "handle")]
        assert m.telemetry.sampled_out >= 1
        assert m.telemetry.pending_contexts() == 0

    def test_sampling_does_not_change_results(self):
        outs = []
        for sample in (1.0, 0.5, 0.0):
            m = Machine(4, telemetry=TelemetryConfig(level="spans", sample=sample))
            got = []
            mt = m.register(
                "acc", lambda ctx, p, got=got: got.append(p[0]),
                dest_rank_of=lambda p: p[0] % 4,
            )
            with m.epoch() as ep:
                for i in range(20):
                    ep.invoke(mt, (i,))
            outs.append((sorted(got), m.stats.total.sent_local
                         + m.stats.total.sent_remote))
        assert outs[0] == outs[1] == outs[2]

    def test_ring_buffer_bounds_memory(self):
        cfg = TelemetryConfig(level="spans", capacity=16)
        m, fwd = chain_machine(depth=40, telemetry=cfg)
        run_chain(m, fwd)
        assert len(m.telemetry.snapshot_spans()) == 16
        assert m.telemetry.evicted > 0

    def test_clear(self):
        m, fwd = chain_machine(telemetry="spans")
        run_chain(m, fwd)
        m.telemetry.clear()
        assert not m.telemetry.snapshot_spans()
        assert m.telemetry.counters_snapshot() == {}
        assert m.telemetry.pending_contexts() == 0


class TestBitIdentical:
    """Tracing must never change results or message accounting."""

    def _run(self, telemetry, **mkw):
        m = Machine(4, telemetry=telemetry, **mkw)
        got = {}

        def h(ctx, p):
            v, d = p
            if d < got.get(v, 1e18):
                got[v] = d
                if v + 1 < 30:
                    ctx.send(relax, (v + 1, d + 1.0))

        relax = m.register(
            "relax", h, dest_rank_of=lambda p: p[0] % 4,
            reduction=ReductionLayer(key=lambda p: p[0], combine=min_payload(1)),
            coalescing=4,
        )
        with m.epoch() as ep:
            ep.invoke(relax, (0, 0.0))
        summary = m.stats.summary()
        # Wall-time entries (handler_seconds, epoch_wall_seconds) are
        # inherently noisy; only logical counters must agree.
        summary = {k: v for k, v in summary.items() if "seconds" not in k}
        return got, summary

    @pytest.mark.parametrize("schedule", ["round_robin", "lifo"])
    def test_levels_agree(self, schedule):
        base = self._run("off", schedule=schedule)
        for level in ("counters", "spans"):
            assert self._run(level, schedule=schedule) == base

    def test_levels_agree_under_chaos(self):
        chaos = ChaosConfig(seed=7, drop=0.1, duplicate=0.1)
        base = self._run("off", chaos=chaos)
        assert self._run("spans", chaos=chaos) == base


class TestPhaseCounts:
    """Each phase scope counts once per entry: runtime events are flight
    records, never zero-second phase counts."""

    def test_snapshot_and_restore_counted_once(self):
        n, k = 40, 120
        s, t = erdos_renyi(n, k, seed=3)
        g, wbg = build_graph(n, list(zip(s, t)), n_ranks=2,
                             weights=uniform_weights(k, seed=4))
        m = Machine(2, telemetry="counters",
                    checkpoint=CheckpointConfig(every=1))
        sssp_fixed_point(m, g, wbg, 0)
        st = m.stats.checkpoint
        assert st.snapshots >= 2
        counts = m.telemetry.counters_snapshot()
        assert counts[("snapshot", -1)][0] == st.snapshots
        m.checkpoints.restore(m.checkpoints.latest())
        counts = m.telemetry.counters_snapshot()
        assert st.restores == 1
        assert counts[("restore", -1)][0] == st.restores
        assert "retry" not in PHASES
        assert {k[0] for k in counts} <= set(PHASES)


class TestThreadsTransport:
    def test_spans_on_real_threads(self):
        m, fwd = chain_machine(n=3, depth=8, transport="threads",
                               telemetry="spans")
        with m:
            run_chain(m, fwd)
            spans = m.telemetry.snapshot_spans()
            by_sid = {sp.sid: sp for sp in spans}
            handles = [sp for sp in spans if sp.kind == "handle"]
            assert len(handles) == 9
            for h in handles:
                assert by_sid[h.parent].kind == "msg"
            assert m.telemetry.pending_contexts() == 0

    def test_counters_on_real_threads(self):
        m, fwd = chain_machine(n=2, transport="threads", telemetry="counters")
        with m:
            run_chain(m, fwd)
            phases = {k[0] for k in m.telemetry.counters_snapshot()}
            assert "drain" in phases and "epoch" in phases
