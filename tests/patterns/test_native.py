"""The fused fast tier: fusion legality, tier reporting, fused fan-out.

Gather -> evaluate fusion was introduced by the retired ``native`` fast
path and now runs in the fused tier of the default vector fast path.  When the
planner proves the pair fusable, rank-local edges are applied inline by
the multi-source fan-out and dominated remote candidates are dropped
before the wire.  Differential correctness against the interpreted oracle
lives in ``test_fastpath_differential.py``; this file tests the
machinery itself.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.algorithms.sssp import bind_sssp
from repro.graph import build_graph, erdos_renyi, path, uniform_weights
from repro.patterns import Pattern, bind, compile_action, trg
from repro.patterns.fastpath import recognize_vector_shape
from repro.patterns.locality import fusion_report
from repro.props.property_map import weight_map_from_array
from repro.runtime.machine import DEFAULT_FAST_PATH, FAST_PATHS, Machine

from .conftest import make_jump_pattern, make_sssp_pattern

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def small_instance(n=40, m=160, seed=3, n_ranks=2):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 10.0, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


def run_sssp(machine, g, wbg, source=0, layers=None):
    """Fixed-point SSSP; returns (bound pattern, dist, dependent set)."""
    bp = bind_sssp(machine, g, wbg, layers=layers)
    dist = bp.map("dist")
    dist.fill(math.inf)
    dist[source] = 0.0
    relax = bp["relax"]
    deps: set = set()

    def hook(ctx, w):
        deps.add(int(w))
        relax.invoke_from(ctx, w)

    relax.work = hook
    with machine.epoch() as ep:
        relax.invoke(ep, source)
    return bp, dist.to_array(), deps


# ---------------------------------------------------------------------------
# fusion legality (locality.py) and the planner's fused message count
# ---------------------------------------------------------------------------


class TestFusionReport:
    def test_sssp_relax_is_fusable(self):
        plan = compile_action(make_sssp_pattern().actions["relax"])
        rep = fusion_report(plan)
        assert rep.fusable and bool(rep)
        assert "source-local" in rep.reason

    def test_jump_is_not_fusable(self):
        plan = compile_action(make_jump_pattern().actions["jump"])
        rep = fusion_report(plan)
        assert not rep.fusable and not bool(rep)

    def test_target_dependent_candidate_blocks_fusion(self):
        """A candidate that reads the *target* vertex is not computable
        at the source, so the round cannot fuse."""
        p = Pattern("NF")
        dist = p.vertex_prop("dist", float, default=math.inf)
        pen = p.vertex_prop("pen", float, default=0.0)
        weight = p.edge_prop("weight", float)
        relax = p.action("relax")
        v = relax.input
        e = relax.out_edges()
        cand = relax.let("cand", dist[v] + weight[e] + pen[trg(e)])
        with relax.when(cand < dist[trg(e)]):
            relax.set(dist[trg(e)], cand)
        rep = fusion_report(compile_action(p.actions["relax"]))
        assert not rep.fusable

    def test_planner_fused_message_count(self):
        relax = compile_action(make_sssp_pattern().actions["relax"])
        assert relax.static_message_count() == 1
        assert relax.static_message_count(fused=True) == 0
        jump = compile_action(make_jump_pattern().actions["jump"])
        # not fusable: the fused count equals the unfused count
        assert jump.static_message_count(fused=True) == jump.static_message_count()


# ---------------------------------------------------------------------------
# the batch kernels' contracts (formerly checked on generated kernels)
# ---------------------------------------------------------------------------


class TestCodegen:
    """The generated kernels are gone; the hand-written ones that replace
    them keep each contract: extremum scatter, wire-row layout, and the
    dependent set."""

    def sssp_bound(self, n_ranks=1):
        g, wbg = small_instance(n=12, m=30, n_ranks=n_ranks)
        m = Machine(n_ranks)
        return m, bind_sssp(m, g, wbg)

    def test_scatter_kernel_is_extremum_update(self):
        m, bp = self.sssp_bound()
        dist = bp.map("dist")
        dist.fill(0.0)
        for v, x in ((0, 5.0), (1, 2.0), (2, 9.0)):
            dist[v] = x
        changed = dist.scatter_extremum(
            0, np.array([0, 0, 2]), np.array([3.0, 4.0, 11.0]), minimize=True
        )
        assert dist.to_array()[:3].tolist() == [3.0, 2.0, 9.0]  # 11 rejected
        # mask: target ended below this row's pre-round read (rows 0 and 1
        # both observe vertex 0 improve; the dependent set is their union)
        assert changed.tolist() == [True, True, False]

    def test_pack_rows_match_scalar_payload_layout(self):
        _, bp = self.sssp_bound()
        relax = bp["relax"]
        vp = relax.vector_plan
        rows = relax._pack_rows(np.array([7, 9]), [np.array([1.5, 2.5])])
        (slot,) = vp.slot_sig
        assert rows == [(7, 0, vp.eval_si, slot, 1.5), (9, 0, vp.eval_si, slot, 2.5)]
        # ... the walk's own packing of the same eval-step payload
        eval_step = relax.plan.cond_plans[0].steps[vp.eval_si]
        env = {vp.cand_key: 1.5}
        assert rows[0] == relax._pack(7, 0, vp.eval_si, env, eval_step._carry)

    def test_collect_is_unique_changed_dests(self):
        from repro.runtime.transport import HandlerContext

        m, bp = self.sssp_bound()
        dist = bp.map("dist")
        dist.fill(10.0)
        relax = bp["relax"]
        fired: list = []
        relax.work = lambda ctx, w: fired.append(w)
        relax._vector_apply(
            HandlerContext(m, 0), [4, 4, 2, 9], np.array([3.0, 1.0, 2.0, 11.0])
        )
        assert fired == [2, 4]  # unique changed destinations, once each
        assert dist[4] == 1.0 and dist[9] == 10.0


# ---------------------------------------------------------------------------
# fast-path flag and the resolved tier of every bound action
# ---------------------------------------------------------------------------


class TestTierReporting:
    def test_fast_paths_are_oracle_and_vector(self):
        assert FAST_PATHS == ("off", "vector")
        assert DEFAULT_FAST_PATH == "vector"
        assert Machine(2).fast_path == "vector"

    @pytest.mark.parametrize("retired", ["compiled", "native"])
    def test_retired_fast_paths_name_vector(self, retired):
        with pytest.raises(ValueError, match="'vector'"):
            Machine(2, fast_path=retired)

    def test_sssp_relax_reports_fused(self):
        g, wbg = small_instance()
        m = Machine(2)
        bp = bind_sssp(m, g, wbg)
        relax = bp["relax"]
        assert relax.tier == "fused"
        assert relax.tier_reason == fusion_report(relax.plan).reason
        assert "tier: fused (source-local" in bp.describe()
        assert m.action_tiers[relax.mtype.name]["tier"] == "fused"
        assert m.stats.fusion.actions_fused == 1

    def test_unvectorisable_pattern_reports_walk_with_reason(self):
        m = Machine(2)
        g, _ = build_graph(12, [(0, 1)], n_ranks=2)
        jump = bind(make_jump_pattern(), m, g)["jump"]
        assert jump.tier == "walk"
        assert jump.tier_reason  # why the vector shape was rejected
        assert recognize_vector_shape(jump) == jump.tier_reason
        assert f"tier: walk ({jump.tier_reason})" in jump.describe()
        assert m.action_tiers[jump.mtype.name] == {
            "tier": "walk",
            "reason": jump.tier_reason,
        }
        assert m.stats.fusion.actions_walk == 1

    @pytest.mark.parametrize("fast_path, tier", [("off", "walk"), ("vector", "fused")])
    def test_tier_follows_fast_path(self, fast_path, tier):
        g, wbg = small_instance()
        m = Machine(2, fast_path=fast_path)
        relax = bind_sssp(m, g, wbg)["relax"]
        assert relax.tier == tier and relax.tier_reason
        assert (relax.vector_plan is not None) == (tier != "walk")
        # the oracle's walk is a choice, not a fallback
        assert m.stats.fusion.fallbacks == 0

    def test_status_route_reports_tiers(self):
        from repro.analysis.serve import scrape

        g, wbg = small_instance()
        m = Machine(2, observe=True)
        try:
            bind_sssp(m, g, wbg)
            status, body = scrape(m.observer.url + "/status")
        finally:
            m.shutdown()
        doc = json.loads(body)
        assert status == 200 and doc["fast_path"] == "vector"
        assert [t["tier"] for t in doc["tiers"].values()] == ["fused"]


# ---------------------------------------------------------------------------
# executor integration: fusion fires, fallback stays correct
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_fused_rounds_and_counters(self):
        g, wbg = small_instance()
        m = Machine(2)
        bp, dist, deps = run_sssp(m, g, wbg)
        assert bp["relax"].tier == "fused"
        st = m.stats.fusion
        assert st.fused_rounds > 0
        assert st.fused_edges > 0  # rank-local edges applied with 0 messages
        assert st.remote_rows > 0  # cross-rank rows still travel the wire
        assert st.fallbacks == 0
        _, d0, deps0 = run_sssp(Machine(2, fast_path="off"), g, wbg)
        assert np.array_equal(dist, d0)
        assert deps == deps0

    def test_single_rank_fused_sends_nothing_remote(self):
        n = 30
        s, t = path(n)
        g, wbg = build_graph(
            n, list(zip(s.tolist(), t.tolist())),
            weights=uniform_weights(n - 1, 1, 5, seed=3), n_ranks=1,
        )
        m = Machine(1)
        _, dist, _ = run_sssp(m, g, wbg)
        assert m.stats.fusion.remote_rows == 0
        assert np.isfinite(dist).all()

    def test_unrecognized_shape_counts_fallback(self):
        m = Machine(2)
        g, _ = build_graph(12, [(0, 1)], n_ranks=2)
        bp = bind(make_jump_pattern(), m, g)
        assert bp["jump"].vector_plan is None
        assert m.stats.fusion.fallbacks == 1
        # still runs correctly on the compiled walk
        pm = bp.map("prnt")
        for v in range(12):
            pm[v] = max(v - 1, 0)
        jump = bp["jump"]
        for _ in range(6):
            with m.epoch() as ep:
                for v in range(12):
                    jump.invoke(ep, v)
        assert pm.to_array().tolist() == [0] * 12

    def test_native_report_section(self):
        m = Machine(2)
        g, wbg = small_instance()
        run_sssp(m, g, wbg)
        rep = m.stats.report()
        assert "fast tiers" in rep and "fused rounds" in rep


class TestDominatedRowDedup:
    """Of several remote candidates fanned out to one vertex in a round,
    only the best is shipped; maps and dependent sets stay identical."""

    def multigraph(self):
        # block partition over 2 ranks: 0-3 on rank 0, 4-7 on rank 1
        edges = [(0, 5), (0, 5), (0, 5), (0, 6), (0, 6), (0, 1), (1, 6)]
        w = np.array([5.0, 2.0, 7.0, 1.0, 4.0, 1.0, 0.5])
        return build_graph(8, edges, weights=w, n_ranks=2, partition="block")

    @pytest.mark.parametrize("layers", [None, {"relax": {"coalescing": 4}}])
    def test_dedup_bit_identical(self, layers):
        g, wbg = self.multigraph()
        m = Machine(2)
        _, dist, deps = run_sssp(m, g, wbg, layers=layers)
        _, d0, deps0 = run_sssp(Machine(2, fast_path="off"), g, wbg, layers=layers)
        assert np.array_equal(dist, d0)
        assert deps == deps0
        # start 0 fans 5 remote rows out to two vertices: 2 survive;
        # then vertex 1's single remote row to 6
        assert m.stats.fusion.remote_rows == 3
        assert dist[5] == 2.0 and dist[6] == 1.0

    def test_maximize_keeps_the_largest(self):
        p = Pattern("WIDEST")
        cap = p.vertex_prop("cap", float, default=0.0)
        weight = p.edge_prop("weight", float)
        relax = p.action("relax")
        v = relax.input
        e = relax.out_edges()
        cand = relax.let("cand", cap[v] - weight[e])
        with relax.when(cand > cap[trg(e)]):
            relax.set(cap[trg(e)], cand)
        g, wbg = self.multigraph()
        out = {}
        for fp in FAST_PATHS:
            m = Machine(2, fast_path=fp)
            bp = bind(p, m, g, props={"weight": weight_map_from_array(g, wbg)})
            bp.map("cap")[0] = 100.0
            out[fp] = (bp, m)
            with m.epoch() as ep:
                bp["relax"].invoke(ep, 0)
        (bp_v, m_v), (bp_o, _) = out["vector"], out["off"]
        assert bp_v["relax"].tier == "fused"
        assert np.array_equal(bp_v.map("cap").to_array(), bp_o.map("cap").to_array())
        assert bp_v.map("cap")[5] == 98.0  # the lightest parallel arc wins
        assert m_v.stats.fusion.remote_rows == 2


class TestBulkRowsAndStartFrames:
    def test_send_rows_accounting_matches_per_row_sends(self):
        """With exactly one coalescing layer and spans off, remote rows
        are appended to the coalescing buffers in bulk; with spans on the
        same rows go through ``ctx.send`` one by one.  Logical accounting
        must not tell the two apart."""
        g, wbg = small_instance(n=60, m=300, seed=8, n_ranks=4)
        layers = {"relax": {"coalescing": 8}}
        runs = {}
        for level in ("counters", "spans"):
            m = Machine(4, telemetry=level)
            bp, dist, deps = run_sssp(m, g, wbg, layers=layers)
            assert bp["relax"]._bulk_layer is not None
            ts = m.stats.by_type[bp["relax"].mtype.name]
            runs[level] = (
                dist,
                deps,
                {k: v for k, v in m.stats.summary().items() if "seconds" not in k},
                (ts.sent_local, ts.sent_remote, ts.coalesced_flushes,
                 ts.coalesced_items, ts.handler_calls),
                m.stats.fusion.remote_rows,
            )
        bulk, rows = runs["counters"], runs["spans"]
        assert np.array_equal(bulk[0], rows[0])
        assert bulk[1:] == rows[1:]
        assert bulk[4] > 0

    def test_wire_batch_start_frames_on_process(self):
        """Work-hook re-invocations cross the process wire as columnar
        start frames; each frame is one multi-source fused fan-out."""
        g, wbg = small_instance(n=80, m=400, seed=12, n_ranks=2)
        layers = {"relax": {"coalescing": 16}}
        _, d0, deps0 = run_sssp(Machine(2, fast_path="off"), g, wbg, layers=layers)
        m = Machine(2, transport="process")
        try:
            _, dist, deps = run_sssp(m, g, wbg, layers=layers)
            work_items = m.stats.total.work_items
            fused_rounds = m.stats.fusion.fused_rounds
        finally:
            m.shutdown()
        assert np.array_equal(dist, d0)
        assert deps == deps0
        # fewer fan-out calls than started vertices: starts were batched
        assert 0 < fused_rounds < work_items
