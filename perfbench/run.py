"""Standing benchmark: one run of one workload, result as a JSON line.

    python3 perfbench/run.py --workload sssp-delta --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with unmodified library
code.  ``--trace 1`` measures part of the window untraced, then installs
the layer wrappers of ``spans.py`` and reports the per-layer metrics.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the provenance.  Details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sssp-delta", "sssp-process", "cc-search", "service-mix")


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _p90(values) -> float:
    return float(np.percentile(values, 90))


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


# -- end-to-end ----------------------------------------------------------------


def end_to_end_solves(rec, rss: float) -> dict:
    return {
        "solve_s": _m(statistics.median(rec.solve_s), "s"),
        "setup_s": _m(statistics.median(rec.setup_s), "s"),
        "peak_rss_mb": _m(rss, "MB"),
    }


def end_to_end_service(rec, rss: float) -> dict:
    """``solve_s`` on the service is one computed job's execution time."""
    lat = rec.latencies()
    exec_s = [
        j.finished_at - j.started_at
        for j in rec.completed()
        if j.algorithm != "mutate" and not j.cache_hit
    ]
    return {
        "solve_s": _m(statistics.median(exec_s), "s"),
        "setup_s": _m(statistics.median(rec.setup_s), "s"),
        "peak_rss_mb": _m(rss, "MB"),
        "jobs_per_s": _m(rec.jobs_per_s(), "1/s"),
        "job_p50_s": _m(statistics.median(lat), "s"),
        "job_p90_s": _m(_p90(lat), "s"),
    }


# -- per layer -------------------------------------------------------------------


def _layer_times(summary: dict, requests: int, other: str, bind: dict) -> dict:
    """Span-derived layer metrics, per request (solve or job)."""

    def self_s(*names):
        return _per(sum(summary[n]["self_s"] for n in names), requests)

    def incl_s(name):
        return _per(summary[name]["incl_s"], requests)

    def calls(name):
        return _per(summary[name]["calls"], requests)

    return {
        "patterns.bind_s": _m(_per(bind["incl_s"], bind["calls"]), "s"),
        "patterns.handler_self_s": _m(self_s("patterns.handler"), "s"),
        "patterns.invoke_s": _m(incl_s("patterns.invoke"), "s"),
        "patterns.invoke_calls": _m(calls("patterns.invoke"), "count"),
        "addressing.resolve_s": _m(self_s("addressing.resolve"), "s"),
        "addressing.resolve_calls": _m(calls("addressing.resolve"), "count"),
        "reductions.send_s": _m(self_s("reductions.send", "reductions.flush"), "s"),
        "coalescing.send_s": _m(self_s("coalescing.send"), "s"),
        "coalescing.flush_s": _m(self_s("coalescing.flush"), "s"),
        "transport.send_self_s": _m(self_s("transport.send"), "s"),
        "transport.drain_self_s": _m(self_s("transport.drain"), "s"),
        "epoch.flush_s": _m(incl_s("epoch.flush"), "s"),
        "epoch.flush_calls": _m(calls("epoch.flush"), "count"),
        "termination.probe_s": _m(incl_s("termination.probe"), "s"),
        "termination.probe_calls": _m(calls("termination.probe"), "count"),
        "process.drain_s": _m(incl_s("process.drain"), "s"),
        "process.finish_epoch_s": _m(self_s("process.finish_epoch"), "s"),
        "other.self_s": _m(self_s(other), "s"),
    }


def _layer_counts(counts: dict, requests: int) -> dict:
    payloads = counts["payloads"]
    combines = counts["combines"]
    return {
        "patterns.payloads": _m(_per(payloads, requests), "count"),
        "reductions.combines": _m(_per(combines, requests), "count"),
        "reductions.combine_frac": _m(_per(combines, combines + payloads), "fraction"),
        "coalescing.flushes": _m(_per(counts["flushes"], requests), "count"),
        "coalescing.items_per_flush": _m(
            _per(counts["coalesced_items"], counts["flushes"]), "count"
        ),
        "transport.envelopes": _m(_per(counts["envelopes"], requests), "count"),
        "transport.remote_frac": _m(_per(counts["remote"], counts["envelopes"]), "fraction"),
        "epoch.count": _m(_per(counts["epochs"], requests), "count"),
    }


def per_layer_solves(wl, untraced, traced, summary, bind) -> dict:
    n = len(traced.solve_s)
    counts = {k: sum(c[k] for c in traced.counts) for k in traced.counts[0]}
    wire = traced.wire or {"frames_out": 0, "bytes_per_logical": 0.0}
    busy = _per(traced.children_cpu_s, wl.ranks * traced.wall_s) if wl.transport == "process" else 0.0
    return {
        **_layer_times(summary, n, "request", bind),
        **_layer_counts(counts, n),
        "process.worker_busy_frac": _m(busy, "fraction"),
        "wire.bytes_per_logical": _m(wire["bytes_per_logical"], "B"),
        "wire.frames": _m(_per(wire["frames_out"], n), "count"),
        "trace.overhead": _m(
            statistics.median(traced.solve_s) / statistics.median(untraced.solve_s), "ratio"
        ),
        "baseline.sequential_s": _m(statistics.median(wl.oracle_s), "s"),
    }


def per_layer_service(untraced, traced, summary) -> dict:
    done = traced.completed()
    n = len(done)
    svc = traced.service
    runs = svc["batches_executed"] + svc["sequential_jobs"]
    lookups = svc["cache_hits"] + svc["cache_misses"]
    return {
        **_layer_times(summary, n, "service.execute", summary["patterns.bind"]),
        **_layer_counts(traced.counts, n),
        "service.queue_wait_s": _m(
            statistics.median(j.started_at - j.submitted_at for j in done), "s"
        ),
        "service.exec_s": _m(statistics.median(j.finished_at - j.started_at for j in done), "s"),
        "service.batch_size_mean": _m(
            _per(svc["batched_jobs"] + svc["sequential_jobs"], runs), "count"
        ),
        "service.cache_hit_frac": _m(_per(svc["cache_hits"], lookups), "fraction"),
        "service.rejected": _m(svc["jobs_rejected"], "count"),
        "trace.overhead": _m(untraced.jobs_per_s() / traced.jobs_per_s(), "ratio"),
        "baseline.sequential_s": _m(statistics.median(traced.oracle_s), "s"),
    }


# -- one run ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import workloads as W
    from spans import Tracer

    if workload == "service-mix":
        wl = W.ServiceWorkload()
        measure = lambda secs, **kw: wl.run(seed, secs, **kw)  # noqa: E731
    else:
        wl = (
            W.CcWorkload()
            if workload == "cc-search"
            else W.SsspWorkload(workload, "process" if workload == "sssp-process" else "sim")
        )
        measure = lambda secs, **kw: W.run_solves(wl, seed, secs, **kw)  # noqa: E731

    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if not trace:
        rec = measure(seconds)
        records = [rec]
        rss = W.peak_rss_mb()
        metrics = (
            end_to_end_service(rec, rss)
            if workload == "service-mix"
            else end_to_end_solves(rec, rss)
        )
    else:
        light = (
            {"setups": 1, "min_jobs": 1}
            if workload == "service-mix"
            else {"setups": 1, "min_solves": 1, "one_source": True}
        )
        untraced = measure(seconds * W.TRACE_SPLIT, **light)
        tracer = Tracer()
        tracer.install()
        try:
            if workload == "service-mix":
                traced = measure(seconds * (1 - W.TRACE_SPLIT), **light)
            else:
                traced = measure(seconds * (1 - W.TRACE_SPLIT), tracer=tracer, **light)
        finally:
            tracer.restore()
        records = [untraced, traced]
        if workload == "service-mix":
            summary = tracer.summary(None)
            metrics = per_layer_service(untraced, traced, summary)
        else:
            summary = tracer.summary(range(len(traced.solve_s)))
            bind = tracer.summary(None)["patterns.bind"]
            metrics = per_layer_solves(wl, untraced, traced, summary, bind)
        tracer.write(OUT / f"{workload}-spans.npz")
        detail["spans"] = summary
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    detail["provenance"] = W.provenance(ROOT, records[-1].tier)
    detail["errors"] = [e for r in records for e in r.errors]
    detail["failed_frac"] = failed / attempted
    detail["records"] = [
        {
            k: v
            for k, v in vars(r).items()
            if k not in ("jobs", "errors")
        }
        for r in records
    ]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def stop_helpers() -> None:
    """Stop and reap every process this run started.

    The process transport joins its rank workers on shutdown, but its
    shared-memory segments start multiprocessing's resource tracker, a
    helper that would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for p in multiprocessing.active_children():
        p.terminate()
        p.join(timeout=5.0)
        if p.is_alive():
            p.kill()
            p.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Keep the library's crash dumps and kernel cache inside the checkout.
    os.environ.setdefault("REPRO_FLIGHT_DIR", str(OUT / "flight"))
    os.environ.setdefault("REPRO_KERNEL_CACHE", str(OUT / "kernels"))
    sys.path.insert(0, str(ROOT / "src"))

    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helpers()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**detail, "result": result}, indent=1, default=str))
    print(json.dumps({"provenance": detail["provenance"], "failed_frac": detail["failed_frac"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
