"""Batched execution == sequential execution, bit-identically.

Jobs are queued while the engine's condition lock is held (the lock is
re-entrant, so the test thread can submit while the worker is shut out);
on release the scheduler claims the whole compatibility group and runs
it as one fused multi-source execution.  The per-job rows must be
``np.array_equal`` to an unbatched engine's results and to the plain
single-source strategies, across transports x fast paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Machine
from repro.algorithms import sssp_fixed_point
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.service import GraphEngine
from repro.service.batching import BatchingScheduler, BatchKey, batch_key

from ..modes import mode_machine

SOURCES = (0, 5, 11, 17, 23, 29)


def instance(n=40, m=130, seed=3, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1, 10, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


def submit_as_group(eng, algorithm, sources):
    """Queue one job per source atomically, so the scheduler sees the
    whole group at once (the engine's Condition lock is re-entrant)."""
    with eng._cv:
        return [eng.submit(algorithm, {"source": s}) for s in sources]


def wait_all(jobs, timeout=60):
    for job in jobs:
        assert job.wait(timeout=timeout), f"{job.job_id} never finished"
        assert job.status == "done", (job.job_id, job.status, job.error)


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("mode", ("off", "compiled", "vector", "native"))
    @pytest.mark.parametrize("transport", ("sim", "threads"))
    def test_sssp_bit_identical(self, transport, mode):
        g, wg = instance()
        batched = GraphEngine(mode_machine(mode, 4, transport=transport), g, wg)
        sequential = GraphEngine(
            mode_machine(mode, 4, transport=transport), g, wg, batching=False
        )
        try:
            jobs_b = submit_as_group(batched, "sssp", SOURCES)
            jobs_s = submit_as_group(sequential, "sssp", SOURCES)
            wait_all(jobs_b)
            wait_all(jobs_s)
            for jb, js, src in zip(jobs_b, jobs_s, SOURCES):
                assert np.array_equal(jb.result, js.result)
                ref = sssp_fixed_point(mode_machine(mode, 4), g, wg, src)
                assert np.array_equal(jb.result, ref)
            # the batched engine actually fused; the sequential one did not
            assert batched.machine.stats.service.batches_executed == 1
            assert batched.machine.stats.service.batched_jobs == len(SOURCES)
            assert sequential.machine.stats.service.batched_jobs == 0
            assert sequential.machine.stats.service.sequential_jobs == len(SOURCES)
        finally:
            batched.close()
            sequential.close()

    @pytest.mark.parametrize("mode", ("off", "vector", "native"))
    def test_sssp_bit_identical_process(self, mode):
        g, wg = instance()
        m = mode_machine(mode, 4, transport="process")
        eng = GraphEngine(m, g, wg)
        try:
            jobs = submit_as_group(eng, "sssp", SOURCES)
            wait_all(jobs)
            for job, src in zip(jobs, SOURCES):
                ref = sssp_fixed_point(mode_machine(mode, 4), g, wg, src)
                assert np.array_equal(job.result, ref)
            assert m.stats.service.batches_executed == 1
        finally:
            eng.close()
            m.shutdown()

    def test_bfs_batch(self):
        g, _ = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, None)
        try:
            jobs = submit_as_group(eng, "bfs", SOURCES[:4])
            wait_all(jobs)
            assert {j.batch_id for j in jobs} == {1}
            assert all(j.batch_size == 4 for j in jobs)
        finally:
            eng.close()

    def test_batch_accounting_amortizes_messages(self):
        """Every member of a fused batch reports the *shared* traffic of
        the one run - K jobs, one run's worth of messages."""
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        solo = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            jobs = submit_as_group(eng, "sssp", SOURCES)
            wait_all(jobs)
            lone = solo.submit("sssp", {"source": SOURCES[0]})
            wait_all([lone])
            shared = {j.messages_sent for j in jobs}
            assert len(shared) == 1  # one fused run, one traffic figure
            per_job = shared.pop() / len(SOURCES)
            assert per_job < lone.messages_sent, (
                "fused per-job traffic should beat a solo run"
            )
            assert all(j.epoch_first is not None for j in jobs)
        finally:
            eng.close()
            solo.close()

    def test_max_batch_splits_groups(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg, max_batch=4)
        try:
            jobs = submit_as_group(eng, "sssp", SOURCES)  # 6 jobs, cap 4
            wait_all(jobs)
            sizes = sorted({j.batch_size for j in jobs})
            assert sizes == [2, 4]
            assert eng.machine.stats.service.batches_executed == 2
        finally:
            eng.close()


class TestMutationBarrier:
    def test_jobs_never_batch_across_a_mutation(self):
        g, wg = instance()
        eng = GraphEngine(Machine(4, fast_path="vector"), g, wg)
        try:
            with eng._cv:
                pre = [eng.submit("sssp", {"source": s}) for s in SOURCES[:2]]
                mut = eng.submit("mutate", {"insert": [[0, 1, 0.25]]})
                post = [eng.submit("sssp", {"source": s}) for s in SOURCES[:2]]
            wait_all(pre + [mut] + post)
            assert all(j.graph_version == 0 for j in pre)
            assert mut.result["graph_version"] == 1
            assert all(j.graph_version == 1 for j in post)
            # pre and post groups fused separately, never with each other
            assert {j.batch_id for j in pre} != {j.batch_id for j in post}
            assert eng.machine.stats.service.mutations_applied == 1
        finally:
            eng.close()

    def test_post_mutation_results_see_new_edge(self):
        # a tiny path graph where the inserted shortcut provably changes
        # the distance map
        edges = [(0, 1), (1, 2), (2, 3)]
        w = [5.0, 5.0, 5.0]
        g, wg = build_graph(4, edges, weights=w, n_ranks=2)
        eng = GraphEngine(Machine(2, fast_path="vector"), g, wg)
        try:
            before = eng.submit("sssp", {"source": 0})
            wait_all([before])
            assert before.result[3] == 15.0
            mut = eng.submit("mutate", {"insert": [[0, 3, 1.0]]})
            after = eng.submit("sssp", {"source": 0})
            wait_all([mut, after])
            assert after.result[3] == 1.0
            assert after.graph_version == 1
        finally:
            eng.close()


class TestSchedulerCollect:
    """Unit tests against a plain list standing in for the queue."""

    class J:
        def __init__(self, algorithm, status="queued"):
            self.algorithm = algorithm
            self.status = status

    def test_groups_head_family(self):
        q = [self.J("sssp"), self.J("sssp"), self.J("bfs"), self.J("sssp")]
        group = BatchingScheduler().collect(q, graph_version=0)
        assert [j.algorithm for j in group] == ["sssp"] * 3
        assert q[2] not in group  # bfs overtaken, not absorbed

    def test_stops_at_mutation(self):
        q = [self.J("sssp"), self.J("mutate"), self.J("sssp")]
        group = BatchingScheduler().collect(q, graph_version=0)
        assert group == [q[0]]

    def test_skips_cancelled(self):
        q = [self.J("bfs"), self.J("bfs", status="cancelled"), self.J("bfs")]
        group = BatchingScheduler().collect(q, graph_version=0)
        assert group == [q[0], q[2]]

    def test_respects_max_batch(self):
        q = [self.J("sssp") for _ in range(10)]
        group = BatchingScheduler(max_batch=3).collect(q, graph_version=0)
        assert len(group) == 3

    def test_non_batchable_head_runs_alone(self):
        q = [self.J("pagerank"), self.J("pagerank")]
        group = BatchingScheduler().collect(q, graph_version=0)
        assert group == [q[0]]

    def test_batch_key(self):
        assert batch_key("sssp", 2) == BatchKey("sssp", 2)
        assert batch_key("cc", 2) is None
        assert batch_key("mutate", 0) is None

    def test_bad_max_batch(self):
        with pytest.raises(ValueError):
            BatchingScheduler(max_batch=0)
