"""Fast-path bench — the interpreted oracle vs the vector fast tier.

DESIGN.md Sec. 6: the interpreted plan walk (``fast_path="off"``) is the
semantic oracle; the vector tier (the default: batch numpy kernels with
gather -> evaluate fusion) must change *nothing* about the answer while
removing interpreter overhead and rank-local messages from the hot path.

Workload: Δ-stepping SSSP over a Graph500-style R-MAT graph at scale 10
(the skewed-degree regime where coalesced envelopes get big enough for
the batch kernel to pay off).  Acceptance floor asserted here and
recorded machine-readably in ``results/BENCH_fastpath.json``: the
vector tier is ≥ 3× faster than the interpreted path, with bit-identical
distance arrays.
"""

import platform
import time

import numpy as np

from _common import rmat_weighted, write_json, write_result
from repro import Machine
from repro.algorithms import sssp_delta_stepping
from repro.analysis import format_table
from repro.runtime.machine import FAST_PATHS

SCALE = 10
EDGE_FACTOR = 8
DELTA = 3.0
COALESCING = 64
ROUNDS = 3
SPEEDUP_FLOOR = 3.0


def _run(fast_path, g, wbg):
    """Best-of-ROUNDS wall clock; returns (seconds, dist, stats summary)."""
    best, dist, summary = float("inf"), None, None
    for _ in range(ROUNDS):
        m = Machine(4, fast_path=fast_path)
        t0 = time.perf_counter()
        dist = sssp_delta_stepping(
            m, g, wbg, 0, DELTA, layers={"relax": {"coalescing": COALESCING}}
        )
        best = min(best, time.perf_counter() - t0)
        summary = m.stats.summary()
    return best, dist, summary


def test_fastpath_speedup(benchmark):
    g, wbg = rmat_weighted(scale=SCALE, edge_factor=EDGE_FACTOR, seed=7)
    benchmark.pedantic(
        lambda: _run("vector", g, wbg), rounds=1, iterations=1
    )

    times, dists, summaries = {}, {}, {}
    for fp in FAST_PATHS:
        times[fp], dists[fp], summaries[fp] = _run(fp, g, wbg)

    # correctness: every mode computes the exact same distances
    for fp in FAST_PATHS[1:]:
        assert np.array_equal(dists["off"], dists[fp]), f"off vs {fp} diverged"
    # the batch kernel actually fired
    assert summaries["vector"]["vector_items"] > 0

    speedup_vector = times["off"] / times["vector"]
    assert speedup_vector >= SPEEDUP_FLOOR, (
        f"vectorized path only {speedup_vector:.2f}x faster than interpreted "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    rows = [
        {
            "fast_path": fp,
            "seconds": round(times[fp], 4),
            "speedup_vs_off": round(times["off"] / times[fp], 2),
            "vector_items": summaries[fp].get("vector_items", 0),
            "batch_deliveries": summaries[fp].get("batch_deliveries", 0),
        }
        for fp in FAST_PATHS
    ]
    write_result(
        "BENCH_fastpath",
        f"Fast paths — Δ-stepping SSSP, R-MAT scale {SCALE} (best of {ROUNDS})",
        format_table(rows)
        + f"\nvector tier {speedup_vector:.2f}x over interpreted "
        f"(floor {SPEEDUP_FLOOR}x); identical distances",
    )
    write_json(
        "BENCH_fastpath",
        {
            "workload": {
                "algorithm": "sssp_delta_stepping",
                "graph": "rmat",
                "scale": SCALE,
                "edge_factor": EDGE_FACTOR,
                "n_vertices": int(g.n_vertices),
                "n_edges": int(g.n_edges),
                "delta": DELTA,
                "coalescing": COALESCING,
                "n_ranks": 4,
                "rounds": ROUNDS,
            },
            "seconds": {fp: times[fp] for fp in FAST_PATHS},
            "speedup_vs_interpreted": {"vector": round(speedup_vector, 3)},
            "speedup_floor": SPEEDUP_FLOOR,
            "vector_items": int(summaries["vector"]["vector_items"]),
            "identical_outputs": True,
            "python": platform.python_version(),
        },
    )
