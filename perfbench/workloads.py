"""The standing workloads and how one run of each is measured.

Every input is generated in this process from the ``--seed``; the library
only receives the generated graph and sources.  Every result is checked
against a sequential oracle.  No ``fast_path`` is passed, so the runs
measure the library default and record which tier resolved.

See README.md in this directory for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from repro import Machine, ReductionLayer
from repro.algorithms.bfs import bfs_reference
from repro.algorithms.cc import connected_components
from repro.algorithms.sssp import bind_sssp, dijkstra_reference, sssp_delta_stepping
from repro.baselines.sequential import same_partition, union_find_cc
from repro.graph import build_graph, rmat, uniform_weights
from repro.service import EngineBusy, GraphEngine

from spans import REQUEST, Tracer

EDGE_FACTOR = 8
SETUPS = 10  # set-ups per untraced run; setup_s is their median.  On the solve
# workloads half come after the timed solves, so they span the run as the
# solves do.
MIN_SOLVES = 3  # timed solves per untraced run, even past --seconds
N_SOURCES = 8  # distinct sources cycled through by one run
TOP = 32  # sources are drawn from the TOP highest out-degree vertices
TRACE_SPLIT = 0.4  # share of a traced run spent untraced (overhead baseline)
WARMUP_REQ = -2  # request id of the untimed warm-up solve

# sssp-delta / sssp-process: the AM++ stack of the C2 bench on relax.
SSSP_SCALE = 13
SSSP_RANKS = 2
DELTA = 1.0
REDUCTION_WINDOW = 256
COALESCING = 256

# cc-search: the paper's CC driver, coalescing only.
CC_SCALE = 12
CC_RANKS = 4

# service-mix: closed loop against a GraphEngine with defaults.
SVC_SCALE = 9
SVC_RANKS = 4
CLIENTS = 16
MUTATE_EVERY = 40
MUTATE_EDGES = 8
ZIPF_EXPONENT = 1.2
MIN_JOBS = 100  # at least 10 latency samples beyond p90
POLL_S = 0.002


# -- inputs --------------------------------------------------------------------


@dataclass
class Inputs:
    """One seed's generated graph, weights and candidate sources."""

    n: int
    src: np.ndarray
    trg: np.ndarray
    weight: np.ndarray
    top: np.ndarray  # highest out-degree vertices, most connected first
    leaf: int  # a vertex with the fewest (normally no) out-edges
    rng: np.random.Generator  # stream for everything drawn after the graph


def make_inputs(seed: int, scale: int) -> Inputs:
    rng = np.random.default_rng(seed)
    graph_seed, weight_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
    src, trg = rmat(scale, edge_factor=EDGE_FACTOR, seed=graph_seed)
    weight = uniform_weights(len(src), 1.0, 10.0, seed=weight_seed)
    n = 1 << scale
    degree = np.bincount(src, minlength=n)
    order = np.argsort(-degree, kind="stable")
    return Inputs(n, src, trg, weight, order[:TOP], int(order[-1]), rng)


def _relax_key(p: tuple) -> tuple:
    return p[:3]


def _min_candidate(a: tuple, b: tuple) -> tuple:
    # Relax payloads are (dest, cond, step, slot, candidate) on the
    # evaluate hop and (dest, -1, 0) for action starts: keep the smaller
    # candidate; duplicate starts collapse to one.
    if len(a) > 4 and len(b) > 4:
        return a if a[4] <= b[4] else b
    return a


def _count_snapshot(machine) -> dict:
    t = machine.stats.total
    return {
        "payloads": t.handler_calls,
        "envelopes": t.sent_local + t.sent_remote,
        "remote": t.sent_remote,
        "combines": t.reduction_combines,
        "flushes": t.coalesced_flushes,
        "epochs": len(machine.stats.epochs),
        "coalesced_items": sum(ts.coalesced_items for ts in machine.stats.by_type.values()),
    }


def _count_delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _wire_summary(machine) -> Optional[dict]:
    summary = getattr(machine.transport, "wire_summary", None)
    return None if summary is None else summary()


# -- solve workloads -------------------------------------------------------------


class SolveWorkload:
    """A workload whose unit of work is one solve from a fresh state."""

    name = ""
    ranks = 1
    transport = "sim"

    def __init__(self) -> None:
        self._oracle: dict = {}
        self.oracle_s: list[float] = []

    def setup(self, seed: int):
        """Generate, build, partition, construct the machine, bind, and
        run whatever lazy set-up the first epoch triggers."""
        raise NotImplementedError

    def before_solve(self, st) -> None:
        """Untimed preparation of one solve."""

    def solve(self, st, i: int):
        raise NotImplementedError

    def expected(self, st, i: int):
        raise NotImplementedError

    def matches(self, result, expected) -> bool:
        raise NotImplementedError

    def oracle(self, key, compute):
        if key not in self._oracle:
            t0 = perf_counter()
            self._oracle[key] = compute()
            self.oracle_s.append(perf_counter() - t0)
        return self._oracle[key]


@dataclass
class SsspState:
    inputs: Inputs
    graph: object
    weight_by_gid: np.ndarray
    machine: Machine
    bound: object
    sources: list


class SsspWorkload(SolveWorkload):
    """Δ-stepping SSSP with the C2 min-reduction + coalescing stack."""

    ranks = SSSP_RANKS

    def __init__(self, name: str, transport: str) -> None:
        super().__init__()
        self.name = name
        self.transport = transport

    def setup(self, seed: int) -> SsspState:
        inp = make_inputs(seed, SSSP_SCALE)
        graph, wg = build_graph(
            inp.n,
            list(zip(inp.src, inp.trg)),
            weights=inp.weight,
            n_ranks=self.ranks,
            partition="cyclic",
        )
        machine = Machine(self.ranks, transport=self.transport)
        layers = {
            "relax": {
                "reduction": ReductionLayer(
                    key=_relax_key, combine=_min_candidate, window=REDUCTION_WINDOW
                ),
                "coalescing": COALESCING,
            }
        }
        bound = bind_sssp(machine, graph, wg, layers=layers)
        # First touch: one epoch from a leaf pays the lazy set-up (worker
        # spawn, first-call caches) here instead of in the first solve.
        sssp_delta_stepping(machine, graph, wg, inp.leaf, DELTA, bound=bound)
        sources = [int(v) for v in inp.rng.choice(inp.top, size=N_SOURCES, replace=False)]
        return SsspState(inp, graph, wg, machine, bound, sources)

    def source(self, st: SsspState, i: int) -> int:
        return st.sources[max(i, 0) % len(st.sources)]

    def solve(self, st: SsspState, i: int):
        return sssp_delta_stepping(
            st.machine, st.graph, st.weight_by_gid, self.source(st, i), DELTA, bound=st.bound
        )

    def expected(self, st: SsspState, i: int):
        s = self.source(st, i)
        inp = st.inputs
        return self.oracle(
            s, lambda: dijkstra_reference(inp.n, inp.src, inp.trg, inp.weight, s)
        )

    def matches(self, result, expected) -> bool:
        return bool(np.array_equal(result, expected))


@dataclass
class CcState:
    inputs: Inputs
    graph: object
    machine: Machine


class CcWorkload(SolveWorkload):
    """The paper's CC driver: parallel search, pointer jumping, rewrite."""

    name = "cc-search"
    ranks = CC_RANKS

    def setup(self, seed: int) -> CcState:
        inp = make_inputs(seed, CC_SCALE)
        graph, _ = build_graph(
            inp.n,
            list(zip(inp.src, inp.trg)),
            directed=False,
            n_ranks=self.ranks,
            partition="cyclic",
        )
        return CcState(inp, graph, Machine(self.ranks))

    def before_solve(self, st: CcState) -> None:
        # connected_components binds its pattern on every call; a fresh
        # machine keeps earlier solves' message types out of this one.
        st.machine.shutdown()
        st.machine = Machine(self.ranks)

    def solve(self, st: CcState, i: int):
        layers = {"cc_search": {"coalescing": COALESCING}, "cc_jump": {"coalescing": COALESCING}}
        return connected_components(st.machine, st.graph, layers=layers)

    def expected(self, st: CcState, i: int):
        inp = st.inputs
        return self.oracle("cc", lambda: union_find_cc(inp.n, inp.src, inp.trg))

    def matches(self, result, expected) -> bool:
        return bool(same_partition(result, expected))


@dataclass
class SolveRecord:
    """What one phase of solves measured."""

    setup_s: list = field(default_factory=list)
    warmup_s: float = 0.0
    solve_s: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    tier: dict = field(default_factory=dict)
    wire: Optional[dict] = None
    wall_s: float = 0.0
    children_cpu_s: float = 0.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _time_setups(wl: SolveWorkload, seed: int, n: int, rec: SolveRecord):
    """Set up ``n`` times, shutting each machine down before the next;
    returns the last set-up (None when ``n`` is 0)."""
    st = None
    for _ in range(n):
        if st is not None:
            st.machine.shutdown()
        t0 = perf_counter()
        st = wl.setup(seed)
        rec.setup_s.append(perf_counter() - t0)
    return st


def run_solves(
    wl: SolveWorkload,
    seed: int,
    seconds: float,
    *,
    setups: int = SETUPS,
    min_solves: int = MIN_SOLVES,
    tracer: Optional[Tracer] = None,
    one_source: bool = False,
) -> SolveRecord:
    """Set up, warm up, time solves for ``seconds``, then set up again.

    Of the ``setups`` set-ups, the first half run before the solves and
    the rest after the solving machine is shut down, one machine at a
    time.

    ``one_source`` repeats the first source in every solve, so that the
    per-solve counts of a traced run are one solve's counts exactly.
    """
    rec = SolveRecord()
    cpu0, wall0 = _children_cpu(), perf_counter()
    head = (setups + 1) // 2
    st = _time_setups(wl, seed, head, rec)

    def one(i: int) -> float:
        k = 0 if one_source else i
        wl.before_solve(st)
        # Collect the previous solve's garbage now rather than inside
        # this solve's timing.
        gc.collect()
        before = _count_snapshot(st.machine)
        if tracer is not None:
            tracer.request_id = i
            span = tracer.open(REQUEST)
        rec.attempted += 1
        t0 = perf_counter()
        try:
            result = wl.solve(st, k)
        finally:
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.request_id = -1
        if not wl.matches(result, wl.expected(st, k)):
            rec.failed += 1
            rec.errors.append(f"solve {i}: result differs from the oracle")
        if i >= 0:
            rec.counts.append(_count_delta(_count_snapshot(st.machine), before))
        return dt

    try:
        try:
            rec.warmup_s = one(WARMUP_REQ)
            wire0 = _wire_summary(st.machine)
            start = perf_counter()
            estimate = rec.warmup_s
            i = 0
            while i < min_solves or perf_counter() - start + estimate <= seconds:
                rec.solve_s.append(one(i))
                estimate = statistics.median(rec.solve_s)
                i += 1
            wire1 = _wire_summary(st.machine)
            if wire1 is not None:
                rec.wire = {
                    "frames_out": wire1["frames_out"] - wire0["frames_out"],
                    "bytes_per_logical": wire1["bytes_per_logical"],
                }
        except Exception:  # a failed solve is a measured outcome
            rec.failed += 1
            rec.errors.append(traceback.format_exc())
        rec.tier = {
            "requested_fast_path": st.machine.requested_fast_path,
            "fast_path": st.machine.fast_path,
            "native_fallbacks": st.machine.stats.native.fallbacks,
        }
    finally:
        st.machine.shutdown()
    rec.wall_s = perf_counter() - wall0
    rec.children_cpu_s = _children_cpu() - cpu0
    st = None  # free the solving state, so the closing set-ups add no peak RSS
    last = _time_setups(wl, seed, setups - head, rec)
    if last is not None:
        last.machine.shutdown()
    return rec


# -- service-mix -------------------------------------------------------------------


@dataclass
class ServiceRecord:
    setup_s: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    tier: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    oracle_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    first_submit: float = 0.0
    last_finish: float = 0.0

    def completed(self) -> list:
        return [j for j in self.jobs if j.status == "done"]

    def jobs_per_s(self) -> float:
        return len(self.completed()) / (self.last_finish - self.first_submit)

    def latencies(self) -> list:
        return sorted(j.finished_at - j.submitted_at for j in self.completed())


class ServiceWorkload:
    """16 closed-loop clients submitting SSSP/BFS reads and mutations."""

    name = "service-mix"
    ranks = SVC_RANKS

    def setup(self, seed: int):
        inp = make_inputs(seed, SVC_SCALE)
        graph, wg = build_graph(
            inp.n,
            list(zip(inp.src, inp.trg)),
            weights=inp.weight,
            n_ranks=self.ranks,
            partition="cyclic",
        )
        machine = Machine(self.ranks)
        engine = GraphEngine(machine, graph, wg, owns_machine=True)
        first = engine.submit("bfs", {"source": inp.leaf})
        if not first.wait(60.0) or first.status != "done":
            raise RuntimeError(f"first-touch job ended {first.status}: {first.error}")
        return inp, machine, engine

    @staticmethod
    def requests(inp: Inputs):
        """The seed's submission sequence: Zipf-ranked hub reads, and a
        batch of edge inserts every MUTATE_EVERY-th submission."""
        rng = inp.rng
        p = 1.0 / np.arange(1, len(inp.top) + 1) ** ZIPF_EXPONENT
        p /= p.sum()
        k = 0
        while True:
            k += 1
            if k % MUTATE_EVERY == 0:
                u = rng.integers(0, inp.n, size=MUTATE_EDGES)
                v = (u + rng.integers(1, inp.n, size=MUTATE_EDGES)) % inp.n
                w = rng.uniform(1.0, 10.0, size=MUTATE_EDGES)
                yield "mutate", {
                    "insert": [[int(a), int(b), float(c)] for a, b, c in zip(u, v, w)]
                }
            else:
                alg = "sssp" if rng.random() < 0.5 else "bfs"
                yield alg, {"source": int(inp.top[rng.choice(len(p), p=p)])}

    def run(
        self,
        seed: int,
        seconds: float,
        *,
        setups: int = SETUPS,
        min_jobs: int = MIN_JOBS,
    ) -> ServiceRecord:
        rec = ServiceRecord()
        engine = None
        for _ in range(setups):
            if engine is not None:
                engine.close()
            t0 = perf_counter()
            inp, machine, engine = self.setup(seed)
            rec.setup_s.append(perf_counter() - t0)
        v0 = engine.graph.version
        try:
            reqs = self.requests(inp)
            rec.first_submit = time.time()
            start = perf_counter()
            hard_stop = start + max(4 * seconds, 60.0)

            def submit():
                alg, params = next(reqs)
                rec.attempted += 1
                try:
                    job = engine.submit(alg, params)
                except EngineBusy as exc:
                    rec.failed += 1
                    rec.errors.append(repr(exc))
                    return None
                rec.jobs.append(job)
                return job

            clients = [submit() for _ in range(CLIENTS)]
            while True:
                now = perf_counter()
                if now >= hard_stop or (
                    now - start >= seconds and len(rec.jobs) >= min_jobs
                ):
                    break
                time.sleep(POLL_S)
                for c, job in enumerate(clients):
                    if job is None or job.done.is_set():
                        clients[c] = submit()
            for job in clients:
                if job is not None and not job.wait(120.0):
                    raise TimeoutError(f"{job.job_id} did not finish")
            rec.last_finish = max(j.finished_at for j in rec.jobs)
            rec.tier = {
                "requested_fast_path": machine.requested_fast_path,
                "fast_path": machine.fast_path,
                "native_fallbacks": machine.stats.native.fallbacks,
            }
            rec.service = dict(vars(machine.stats.service))
            rec.counts = _count_snapshot(machine)
        finally:
            engine.close()
        self.check(inp, v0, rec)
        return rec

    def check(self, inp: Inputs, v0: int, rec: ServiceRecord) -> None:
        """Every job against an oracle on the graph version it ran on."""
        edges = {v0: (inp.src, inp.trg, inp.weight)}
        version = v0
        cache: dict = {}
        for job in rec.jobs:
            if job.status != "done":
                rec.failed += 1
                rec.errors.append(f"{job.job_id}: {job.status} {job.error}")
                continue
            if job.algorithm != "mutate":
                continue
            s, t, w = edges[version]
            ins = np.asarray(job.params["insert"], dtype=np.float64)
            nxt = job.result["graph_version"]
            if nxt <= version:
                rec.failed += 1
                rec.errors.append(f"{job.job_id}: version did not advance")
                continue
            edges[nxt] = (
                np.concatenate([s, ins[:, 0].astype(np.int64)]),
                np.concatenate([t, ins[:, 1].astype(np.int64)]),
                np.concatenate([w, ins[:, 2]]),
            )
            version = nxt
        for job in rec.jobs:
            if job.status != "done" or job.algorithm == "mutate":
                continue
            key = (job.graph_version, job.algorithm, job.params["source"])
            if key not in cache:
                if job.graph_version not in edges:
                    rec.failed += 1
                    rec.errors.append(f"{job.job_id}: unknown version {job.graph_version}")
                    continue
                s, t, w = edges[job.graph_version]
                t0 = perf_counter()
                if job.algorithm == "sssp":
                    cache[key] = dijkstra_reference(inp.n, s, t, w, key[2])
                else:
                    cache[key] = bfs_reference(inp.n, s, t, key[2])
                rec.oracle_s.append(perf_counter() - t0)
            if not np.array_equal(np.asarray(job.result), cache[key]):
                rec.failed += 1
                rec.errors.append(f"{job.job_id}: result differs from the oracle")


# -- provenance ----------------------------------------------------------------------


def _commit(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, tier: dict) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        nproc = os.cpu_count() or 1
    return {
        "commit": _commit(root),
        "host": platform.node(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        **tier,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
