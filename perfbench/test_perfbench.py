"""Self-checks of the benchmark at a small scale.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as W  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

SMALL = 8


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(W, "SSSP_SCALE", SMALL)
    monkeypatch.setattr(W, "CC_SCALE", SMALL)
    monkeypatch.setattr(W, "SVC_SCALE", 6)


def _one_solve(wl, seed, **kw):
    return W.run_solves(wl, seed, 0.0, setups=1, min_solves=1, **kw)


@pytest.mark.parametrize(
    "make", [lambda: W.SsspWorkload("sssp-delta", "sim"), W.CcWorkload], ids=["sssp", "cc"]
)
def test_sim_counts_repeat_for_a_fixed_seed(small, make):
    first = _one_solve(make(), 3)
    second = _one_solve(make(), 3)
    assert first.failed == second.failed == 0
    assert first.counts == second.counts
    assert first.counts[0]["payloads"] > 0 and first.counts[0]["flushes"] > 0


def test_sssp_reduction_combines(small):
    rec = _one_solve(W.SsspWorkload("sssp-delta", "sim"), 3)
    assert rec.counts[0]["combines"] > 0


def test_seed_changes_the_generated_input():
    a, b, c = W.make_inputs(1, SMALL), W.make_inputs(1, SMALL), W.make_inputs(2, SMALL)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.weight, b.weight)
    assert not (np.array_equal(a.src, c.src) and np.array_equal(a.trg, c.trg))


def test_oracle_gate_counts_a_wrong_result(small):
    wl = W.SsspWorkload("sssp-delta", "sim")
    solve = wl.solve

    def off_by_one(st, i):
        dist = solve(st, i)
        dist[np.isfinite(dist) & (dist > 0)] += 1.0
        return dist

    wl.solve = off_by_one
    rec = _one_solve(wl, 3)
    assert rec.attempted == 2 and rec.failed == 2


def _originals():
    return {
        (module, cls, attr): getattr(importlib.import_module(module), cls).__dict__[attr]
        for module, cls, attr, _ in TARGETS
    }


def test_tracer_restores_every_wrapped_attribute(small):
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = _originals()
        assert all(wrapped[k] is not before[k] for k in before)
        rec = _one_solve(W.SsspWorkload("sssp-delta", "sim"), 3, tracer=tracer)
    finally:
        tracer.restore()
    assert _originals() == before
    assert rec.failed == 0
    summary = tracer.summary([0])
    for name in ("request", "patterns.handler", "addressing.resolve", "reductions.send",
                 "coalescing.send", "transport.send", "transport.drain", "termination.probe"):
        assert summary[name]["calls"] > 0, name
    req = summary["request"]
    assert 0 <= req["self_s"] <= req["incl_s"]


def test_process_twin_matches_the_oracle(small):
    rec = _one_solve(W.SsspWorkload("sssp-process", "process"), 3)
    assert rec.attempted == 2 and rec.failed == 0
    assert rec.wire["frames_out"] > 0


def test_service_jobs_match_their_version_oracle(small):
    rec = W.ServiceWorkload().run(4, 0.5, setups=1, min_jobs=2 * W.MUTATE_EVERY)
    kinds = {j.algorithm for j in rec.jobs}
    assert {"sssp", "bfs", "mutate"} <= kinds
    assert rec.failed == 0, rec.errors
