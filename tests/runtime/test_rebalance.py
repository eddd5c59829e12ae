"""Live rank elasticity: Machine.rebalance + Transport.resize.

Rebalancing is checkpoint -> repartition -> restore at a quiescent epoch
boundary; the acceptance bar is *bit-identical results to never having
rebalanced* on every transport, including grow-and-shrink round trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Machine
from repro.algorithms.sssp import bind_sssp, dijkstra_reference, sssp_fixed_point
from repro.graph import (
    DegreeAwarePartition,
    build_graph,
    erdos_renyi,
    rmat,
    uniform_weights,
)
from repro.props.property_map import weight_map_from_array
from repro.runtime import ChaosConfig
from repro.runtime.checkpoint import CheckpointConfig

from ..modes import MODES, mode_machine


def powerlaw(scale=7, edge_factor=6, seed=5, n_ranks=2, partition="block"):
    """Graph + weight *map* + oracle.  Weights ride in an edge property
    map, not a raw gid array: repartitioning renumbers gids, and the map
    is what carries each value to its arc's new home (raw gid-keyed
    arrays go stale across a rebalance — docs/PARTITION.md)."""
    s, t = rmat(scale, edge_factor=edge_factor, seed=seed, permute=False)
    w = uniform_weights(len(s), 1.0, 10.0, seed=seed + 1)
    g, wbg = build_graph(
        1 << scale,
        list(zip(s, t)),
        weights=w,
        n_ranks=n_ranks,
        partition=partition,
    )
    wm = weight_map_from_array(g, wbg)
    ref = dijkstra_reference(1 << scale, s, t, w, 0)
    return g, wm, ref


class TestValidation:
    def test_requires_graph(self):
        with pytest.raises(RuntimeError, match="attached graph"):
            Machine(2).rebalance(new_ranks=4)

    def test_rejects_active_epoch(self):
        g, wbg, _ = powerlaw()
        m = Machine(2)
        m.attach_graph(g)
        with pytest.raises(RuntimeError, match="active epoch"):
            with m.epoch():
                m.rebalance(new_ranks=4)

    def test_rejects_unknown_partitioner(self):
        g, wbg, _ = powerlaw()
        m = Machine(2)
        m.attach_graph(g)
        with pytest.raises(ValueError, match="unknown partitioner"):
            m.rebalance(partitioner="diagonal")

    def test_rejects_mismatched_instance(self):
        g, wbg, _ = powerlaw()
        m = Machine(2)
        m.attach_graph(g)
        part = DegreeAwarePartition(g.n_vertices, 4)
        with pytest.raises(ValueError, match="new_ranks"):
            m.rebalance(new_ranks=8, partitioner=part)
        with pytest.raises(ValueError, match="vertices"):
            m.rebalance(partitioner=DegreeAwarePartition(3, 2))

    def test_rejects_bad_rank_count(self):
        g, wbg, _ = powerlaw()
        m = Machine(2)
        m.attach_graph(g)
        with pytest.raises(ValueError, match="new_ranks"):
            m.rebalance(new_ranks=0)


class TestBitIdenticalSim:
    @pytest.mark.parametrize("fast_path", MODES)
    def test_grow_mid_stream(self, fast_path):
        """Query, grow 2->4 with a degree partition, query again: both
        answers match the never-rebalanced oracle bit-for-bit."""
        g, wbg, ref = powerlaw()
        m = mode_machine(fast_path, 2)
        d1 = sssp_fixed_point(m, g, wbg, 0)
        assert np.array_equal(d1, ref)
        q = m.rebalance(new_ranks=4, partitioner="degree")
        assert q.kind == "degree"
        assert m.n_ranks == 4
        assert g.n_ranks == 4
        d2 = sssp_fixed_point(m, g, wbg, 0)
        assert np.array_equal(d2, ref)

    def test_round_trip_shrink(self):
        """2 -> 4 -> 2 round trip; every leg answers identically."""
        g, wbg, ref = powerlaw()
        m = Machine(2)
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
        m.rebalance(new_ranks=4, partitioner="degree")
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
        m.rebalance(new_ranks=2, partitioner="block")
        assert m.n_ranks == 2
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)

    def test_explicit_partition_instance(self):
        g, wbg, ref = powerlaw()
        src, _ = g.edge_arrays()
        degrees = np.bincount(src, minlength=g.n_vertices)
        part = DegreeAwarePartition(g.n_vertices, 4, degrees=degrees)
        m = Machine(2)
        m.attach_graph(g)
        q = m.rebalance(partitioner=part)
        assert m.n_ranks == 4  # target inferred from the instance
        assert q.n_ranks == 4
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)

    def test_default_replaces_with_current_kind(self):
        """partitioner=None re-places under the graph's current kind."""
        g, wbg, ref = powerlaw(partition="degree")
        m = Machine(2)
        m.attach_graph(g)
        q = m.rebalance(new_ranks=4)
        assert q.kind == "degree"
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)

    def test_stats_and_quality_updated(self):
        g, wbg, _ = powerlaw()
        m = Machine(2)
        m.attach_graph(g)
        m.rebalance(new_ranks=4, partitioner="degree")
        assert m.stats.partition.rebalances == 1
        assert m.stats.partition.kind == "degree"
        assert m.stats.partition.ranks == 4
        assert m.stats.partition.max_edge_share > 0.0

    @pytest.mark.parametrize("detector", ["four_counter", "safra"])
    def test_detector_rebuilt_for_new_size(self, detector):
        """Nontrivial detectors size per-rank state at construction;
        rebalance must hand them the new rank count."""
        g, wbg, ref = powerlaw()
        m = Machine(2, detector=detector)
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
        m.rebalance(new_ranks=4, partitioner="degree")
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
        assert m.detector.control_messages > 0


class TestOtherTransports:
    def test_threads_round_trip(self):
        g, wbg, ref = powerlaw()
        m = Machine(2, transport="threads", fast_path="vector")
        try:
            assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
            m.rebalance(new_ranks=4, partitioner="degree")
            assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
            m.rebalance(new_ranks=2, partitioner="block")
            assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
        finally:
            m.shutdown()

    def test_process_round_trip(self):
        """The acceptance case: grow and shrink on real OS processes —
        workers are stopped, shm privatized, maps migrated, and the next
        send respawns the new fleet."""
        g, wbg, ref = powerlaw()
        m = Machine(2, transport="process", fast_path="vector")
        try:
            assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
            m.rebalance(new_ranks=4, partitioner="degree")
            assert len(m.transport._procs) == 0  # fleet torn down
            assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
            assert len(m.transport._procs) == 4  # respawned at new size
            m.rebalance(new_ranks=2, partitioner="block")
            assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
            assert len(m.transport._procs) == 2
        finally:
            m.shutdown()


class TestUnderChaos:
    def test_rebalance_between_chaotic_queries(self):
        """CI smoke: queries under wire faults, a 2->4 rebalance in the
        middle, results always equal to the never-rebalanced fault-free
        oracle."""
        g, wbg, ref = powerlaw()
        m = Machine(
            2,
            fast_path="vector",
            chaos=ChaosConfig(seed=3, drop=0.10, duplicate=0.08, reorder=0.10),
            reliable=True,
        )
        layers = {"relax": {"coalescing": 16}}
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0, layers=layers), ref)
        m.rebalance(new_ranks=4, partitioner="degree")
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0, layers=layers), ref)
        assert m.stats.chaos.faults_injected > 0


class TestCheckpointIntegration:
    def test_checkpointing_survives_rebalance(self):
        """Captures after a rebalance cover the re-shaped per-rank
        storage; a restore still round-trips."""
        g, wbg, ref = powerlaw()
        m = Machine(2, checkpoint=CheckpointConfig(every=1))
        assert np.array_equal(sssp_fixed_point(m, g, wbg, 0), ref)
        m.rebalance(new_ranks=4, partitioner="degree")
        # bind explicitly so we hold the live dist map (each bind makes
        # its own "dist"; restore only targets the checkpoint-registered
        # one, and g._vertex_maps is an unordered WeakSet)
        bp = bind_sssp(m, g, wbg)
        d = sssp_fixed_point(m, g, wbg, 0, bound=bp)
        assert np.array_equal(d, ref)
        dm = bp.map("dist")
        for r in range(g.n_ranks):
            dm.local_slice(r)[:] = -1.0
        m.checkpoints.restore()
        with m.epoch():
            pass  # pending map restores apply at epoch entry
        assert np.array_equal(dm.to_array(), ref)


class TestTransportResize:
    def test_sim_requires_quiescence(self):
        m = Machine(2)
        m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: 0)
        m.transport.send(-1, "n", (1,), 0)
        with pytest.raises(RuntimeError, match="quiescence"):
            m.transport.resize(4)

    def test_sim_hypercube_needs_power_of_two(self):
        m = Machine(4, routing="hypercube")
        with pytest.raises(ValueError, match="power-of-two"):
            m.transport.resize(3)
        m.transport.resize(8)
        assert m.transport.n_ranks == 8

    def test_resize_rejects_zero(self):
        m = Machine(2)
        with pytest.raises(ValueError, match="at least one"):
            m.transport.resize(0)

    def test_threads_resize_rebuilds_mailboxes(self):
        m = Machine(2, transport="threads")
        try:
            m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 2)
            with m.epoch() as ep:
                ep.invoke("n", (1,))
            m.transport.resize(4)
            assert len(m.transport._mailboxes) == 4
        finally:
            m.shutdown()

    def test_process_resize_tears_down_fleet(self):
        m = Machine(2, transport="process")
        try:
            m.register("n", lambda ctx, p: None, dest_rank_of=lambda p: p[0] % 2)
            with m.epoch() as ep:
                ep.invoke("n", (1,))
            assert m.transport._started
            m.transport.resize(4)
            assert not m.transport._started
            assert m.transport.n_ranks == 4
        finally:
            m.shutdown()


class TestServiceRebalance:
    def test_barrier_job_round_trip(self):
        """The engine's rebalance job runs at its queue position; later
        queries see the resized machine and identical answers."""
        from repro.service.engine import GraphEngine

        s, t = erdos_renyi(60, 200, seed=3)
        w = uniform_weights(200, 1.0, 5.0, seed=4)
        g, wg = build_graph(60, list(zip(s, t)), weights=w, n_ranks=2)
        ref = dijkstra_reference(60, s, t, w, 0)
        m = Machine(2)
        eng = GraphEngine(m, g, wg, owns_machine=True)
        try:
            j1 = eng.submit("sssp", {"source": 0})
            assert j1.wait(60) and j1.status == "done", j1.error
            assert np.array_equal(np.asarray(j1.result), ref)
            jr = eng.submit("rebalance", {"partitioner": "degree", "n_ranks": 4})
            assert jr.wait(60) and jr.status == "done", jr.error
            assert jr.result["kind"] == "degree"
            assert m.n_ranks == 4
            j2 = eng.submit("sssp", {"source": 0})
            assert j2.wait(60) and j2.status == "done", j2.error
            assert np.array_equal(np.asarray(j2.result), ref)
            assert not j2.cache_hit  # version bump invalidated the cache
        finally:
            eng.close()

    def test_bad_params_rejected_at_submit(self):
        from repro.service.engine import GraphEngine

        s, t = erdos_renyi(30, 80, seed=5)
        g, _ = build_graph(30, list(zip(s, t)), n_ranks=2)
        eng = GraphEngine(Machine(2), g, None)
        try:
            for bad in (
                {"partitioner": "nope"},
                {"n_ranks": 0},
                {"n_ranks": True},
                {"junk": 1},
            ):
                with pytest.raises(ValueError):
                    eng.submit("rebalance", bad)
        finally:
            eng.close()
