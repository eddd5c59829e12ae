"""Flight recorder: ring semantics, dumps, merging, and crash black-boxes."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.algorithms.sssp import sssp_fixed_point
from repro.analysis import to_chrome_trace, validate_chrome_trace
from repro.graph import build_graph, erdos_renyi, uniform_weights
from repro.runtime import (
    ChaosConfig,
    CheckpointConfig,
    FaultEvent,
    FlightConfig,
    FlightRecorder,
    Machine,
    RankCrashed,
    RecoveryCoordinator,
    load_flight_dump,
    merge_flight_events,
    render_flight_timeline,
    run_with_recovery,
)
from repro.runtime.flight import ENV_DIR


def small_instance(n=60, m=160, seed=7, n_ranks=4):
    s, t = erdos_renyi(n, m, seed=seed)
    w = uniform_weights(m, 1.0, 10.0, seed=seed + 1)
    return build_graph(n, list(zip(s, t)), weights=w, n_ranks=n_ranks)


# ---------------------------------------------------------------------------
# unit behaviour (no machine needed)
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_events_sequence_ordered_across_ranks(self):
        fr = FlightRecorder()
        fr.record("a", rank=1)
        fr.record("b", rank=0)
        fr.record("c", rank=1, x=3)
        evs = fr.events()
        assert [e["kind"] for e in evs] == ["a", "b", "c"]
        assert [e["seq"] for e in evs] == sorted(e["seq"] for e in evs)
        assert evs[2] == {**evs[2], "x": 3, "rank": 1}
        assert len(fr) == 3
        assert fr.events(rank=1) == [evs[0], evs[2]]

    def test_ring_bounded_per_rank(self):
        fr = FlightRecorder(config=FlightConfig(capacity=4))
        for i in range(10):
            fr.record("tick", rank=0, i=i)
        fr.record("other", rank=1)
        evs = fr.events(rank=0)
        assert len(evs) == 4
        assert [e["i"] for e in evs] == [6, 7, 8, 9]  # oldest evicted
        assert len(fr) == 5

    def test_chatty_kind_never_evicts_rare_one(self):
        fr = FlightRecorder(config=FlightConfig(capacity=4))
        fr.record("crash", rank=1, tick=3)
        for i in range(10):
            fr.record("retry", rank=1, i=i)
        kinds = [e["kind"] for e in fr.events(rank=1)]
        assert kinds == ["crash"] + ["retry"] * 4

    def test_disabled_records_nothing(self):
        fr = FlightRecorder(enabled=False)
        fr.record("a")
        fr.record("probe", result=True)
        assert len(fr) == 0
        assert fr.auto_dump("crash") is None

    def test_args_never_shadow_envelope_fields(self):
        fr = FlightRecorder()
        fr.record("retry", rank=2, seq=99, t=1.0, detail="ok")
        (ev,) = fr.events()
        assert ev["kind"] == "retry" and ev["rank"] == 2
        assert ev["arg_seq"] == 99 and ev["arg_t"] == 1.0
        assert ev["detail"] == "ok"

    def test_clear_keeps_sequence_advancing(self):
        fr = FlightRecorder()
        fr.record("a")
        first = fr.events()[0]["seq"]
        fr.clear()
        assert len(fr) == 0
        fr.record("b")
        assert fr.events()[0]["seq"] > first

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightConfig(capacity=0)

    def test_reset_after_fork_namespaces_sequences(self):
        fr = FlightRecorder()
        fr.record("parent")
        fr.reset_after_fork(rank=2)
        fr.record("worker", rank=2)
        (ev,) = fr.events()
        assert ev["seq"] > 2 * 10**12  # worker events can never collide

    def test_export_merge_state_roundtrip(self):
        worker = FlightRecorder()
        worker.reset_after_fork(rank=1)
        worker.record("w", rank=1, x=1)
        parent = FlightRecorder()
        parent.record("p", rank=-1)
        parent.merge_state(worker.export_state())
        kinds = {e["kind"] for e in parent.events()}
        assert kinds == {"p", "w"}


# ---------------------------------------------------------------------------
# dumps and the merge pipeline
# ---------------------------------------------------------------------------


class TestDumps:
    def test_dump_load_roundtrip(self, tmp_path):
        fr = FlightRecorder()
        fr.record("a", rank=0, x=1)
        fr.record("b", rank=1)
        path = fr.dump(str(tmp_path / "d.jsonl"))
        assert fr.last_dump == path
        loaded = load_flight_dump(path)
        assert [e["kind"] for e in loaded] == ["a", "b"]
        # the dump event itself lands in the ring after the write
        assert fr.events()[-1]["kind"] == "dump"

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            load_flight_dump(str(bad))
        bad.write_text('{"no": "seq"}\n')
        with pytest.raises(ValueError, match="not a flight event"):
            load_flight_dump(str(bad))

    def test_merge_orders_and_dedupes(self):
        a = [
            {"seq": 2, "t": 2.0, "rank": 0, "kind": "b"},
            {"seq": 1, "t": 1.0, "rank": 0, "kind": "a"},
        ]
        b = [
            {"seq": 1, "t": 1.0, "rank": 0, "kind": "a"},  # duplicate
            {"seq": 10**12 + 1, "t": 1.5, "rank": 1, "kind": "w"},
        ]
        merged = merge_flight_events([a, b])
        assert [e["kind"] for e in merged] == ["a", "w", "b"]

    def test_render_timeline(self):
        events = [
            {"seq": 1, "t": 10.0, "rank": 0, "kind": "epoch_enter", "epoch": 0},
            {"seq": 2, "t": 10.5, "rank": 1, "kind": "crash", "tick": 40},
        ]
        text = render_flight_timeline(events)
        assert "epoch_enter" in text and "crash" in text
        assert "tick=40" in text
        assert render_flight_timeline([]) == "(no flight events)"

    def test_auto_dump_env_off(self, monkeypatch):
        monkeypatch.setenv(ENV_DIR, "off")
        fr = FlightRecorder()
        fr.record("a")
        assert fr.auto_dump("crash") is None

    def test_auto_dump_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        fr = FlightRecorder()
        fr.record("a")
        p1, p2 = fr.auto_dump("crash"), fr.auto_dump("crash")
        assert p1 != p2 and os.path.dirname(p1) == str(tmp_path)
        assert all(f.endswith(".jsonl") for f in (p1, p2))


# ---------------------------------------------------------------------------
# runtime integration: black box of a real run
# ---------------------------------------------------------------------------


class TestRuntimeEvents:
    def test_epoch_lifecycle_recorded(self):
        g, wbg = small_instance()
        m = Machine(n_ranks=4)
        sssp_fixed_point(m, g, wbg, 0)
        kinds = [e["kind"] for e in m.flight.events()]
        assert kinds[0] == "epoch_enter"
        assert "probe" in kinds and "epoch_exit" in kinds
        exits = [e for e in m.flight.events() if e["kind"] == "epoch_exit"]
        assert all(e["sent"] >= 0 and e["wall"] >= 0 for e in exits)

    def test_crash_attaches_dump_with_crash_event(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        g, wbg = small_instance(seed=9)
        m = Machine(
            n_ranks=4,
            chaos=ChaosConfig(crash_rank=1, crash_tick=30),
            checkpoint=CheckpointConfig(every=1),
        )
        with pytest.raises(RankCrashed) as exc_info:
            sssp_fixed_point(m, g, wbg, 0)
        dump = exc_info.value.flight_dump
        assert dump is not None and os.path.exists(dump)
        events = load_flight_dump(dump)
        kinds = [e["kind"] for e in events]
        assert "crash" in kinds, "dump must contain the crash event"
        # exactly one auto-dump: the abort path must not re-dump a crash
        assert len(list(tmp_path.glob("*.jsonl"))) == 1

    def test_recovery_report_carries_dump_and_timeline_merges(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        from repro.runtime import RecoveryCoordinator

        g, wbg = small_instance(seed=9)
        m = Machine(
            n_ranks=4,
            chaos=ChaosConfig(crash_rank=1, crash_tick=30),
            checkpoint=CheckpointConfig(every=1),
        )
        coord = RecoveryCoordinator(m)
        dist = coord.run(lambda: sssp_fixed_point(m, g, wbg, 0))
        assert np.isfinite(dist).any()
        assert coord.reports, "recovery must file a report"
        report = coord.reports[0]
        assert report["flight_dump"] and os.path.exists(report["flight_dump"])
        # all dumps from the run merge into one causally-ordered timeline
        dumps = [load_flight_dump(str(p)) for p in tmp_path.glob("*.jsonl")]
        merged = merge_flight_events(dumps)
        ts = [(e["t"], e["seq"]) for e in merged]
        assert ts == sorted(ts)
        assert any(e["kind"] == "crash" for e in merged)
        assert any(e["kind"] in ("checkpoint", "restore") for e in merged)

    def test_mutation_and_checkpoint_events(self, tmp_path):
        from repro.graph import MutationBatch

        g, wbg = small_instance()
        m = Machine(n_ranks=4, checkpoint=CheckpointConfig(every=1))
        sssp_fixed_point(m, g, wbg, 0)
        batch = MutationBatch()
        batch.insert_edge(0, 5)
        m.apply_mutations(batch)
        kinds = {e["kind"] for e in m.flight.events()}
        assert "checkpoint" in kinds and "mutation" in kinds

    def test_run_with_recovery_convenience_still_works(self, monkeypatch):
        monkeypatch.setenv(ENV_DIR, "off")  # no dump litter from this test
        g, wbg = small_instance(seed=9)
        m = Machine(
            n_ranks=4,
            chaos=ChaosConfig(crash_rank=1, crash_tick=30),
            checkpoint=CheckpointConfig(every=1),
        )
        oracle = Machine(n_ranks=4)
        expected = sssp_fixed_point(oracle, g, wbg, 0)
        got = run_with_recovery(m, lambda: sssp_fixed_point(m, g, wbg, 0))
        assert np.array_equal(
            np.nan_to_num(got, posinf=math.inf),
            np.nan_to_num(expected, posinf=math.inf),
        )

    def test_process_transport_ships_worker_events_home(self):
        g, wbg = small_instance()
        m = Machine(n_ranks=4, transport="process")
        try:
            sssp_fixed_point(m, g, wbg, 0)
            evs = m.flight.events()
        finally:
            m.shutdown()
        # worker recorders namespace their sequences above 10**12
        assert any(e["seq"] >= 10**12 for e in evs), (
            "no worker flight events were merged into the parent"
        )

    def test_cli_flight_merges_dump(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        g, wbg = small_instance(seed=9)
        m = Machine(
            n_ranks=4,
            chaos=ChaosConfig(crash_rank=1, crash_tick=30),
            checkpoint=CheckpointConfig(every=1),
        )
        with pytest.raises(RankCrashed):
            sssp_fixed_point(m, g, wbg, 0)
        from repro.cli import main

        dumps = [str(p) for p in tmp_path.glob("*.jsonl")]
        out_path = tmp_path / "merged.jsonl"
        assert main(["flight", *dumps, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "crash" in out
        merged = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert any(e["kind"] == "crash" for e in merged)
        # filters
        assert main(["flight", *dumps, "--kind", "crash"]) == 0
        out = capsys.readouterr().out
        assert "crash" in out and "epoch_enter" not in out
        # malformed dump -> non-zero
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["flight", str(bad)]) == 1


# ---------------------------------------------------------------------------
# one event record: every exporter reads the flight ring
# ---------------------------------------------------------------------------


class TestOneEventRecord:
    """Checkpoint, crash, restore and recovery are each recorded once, in
    the flight ring; the Chrome trace and the JSONL dump both read it."""

    RUNTIME_KINDS = {"checkpoint", "crash", "restore", "recovery"}

    def crashed_run(self, tmp_path, monkeypatch, **mkw):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        g, wbg = small_instance(seed=9)
        m = Machine(
            n_ranks=4,
            telemetry="spans",
            checkpoint=CheckpointConfig(every=1),
            chaos=ChaosConfig(script=(FaultEvent(30, "crash", 1),)),
            **mkw,
        )
        coord = RecoveryCoordinator(m)
        coord.run(lambda: sssp_fixed_point(m, g, wbg, 0))
        assert coord.reports, "the scripted crash must fire"
        return m

    @pytest.mark.parametrize("observe", [None, False],
                             ids=["observe", "observe_off"])
    def test_chrome_trace_instants(self, tmp_path, monkeypatch, observe):
        m = self.crashed_run(tmp_path, monkeypatch, observe=observe)
        obj = to_chrome_trace(m)
        instants = [e for e in obj["traceEvents"] if e["ph"] == "i"]
        assert self.RUNTIME_KINDS <= {e["name"] for e in instants}
        assert validate_chrome_trace(obj) == []
        (crash,) = [e for e in instants if e["name"] == "crash"]
        assert crash["pid"] == 1 and crash["args"]["tick"] >= 30
        # instants sit on the span timeline
        spans = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        last = max(e["ts"] + e["dur"] for e in spans)
        assert all(0 <= e["ts"] <= last + 1e6 for e in instants)

    def test_dump_round_trips_and_merges(self, tmp_path, monkeypatch):
        m = self.crashed_run(tmp_path, monkeypatch)
        recorded = json.loads(json.dumps(m.flight.events()))
        path = m.flight.dump(str(tmp_path / "run.jsonl"))
        loaded = load_flight_dump(path)
        assert loaded == recorded
        crash_dumps = [load_flight_dump(str(p))
                       for p in tmp_path.glob("flight-*.jsonl")]
        assert crash_dumps, "the crash must auto-dump"
        assert merge_flight_events([loaded, loaded]) == loaded
        merged = merge_flight_events([loaded, *crash_dumps])
        # the crash dump adds only what the live ring evicted since
        assert all(ev in merged for ev in loaded)
        keys = [(e["t"], e["seq"]) for e in merged]
        assert keys == sorted(set(keys))
        assert self.RUNTIME_KINDS <= {e["kind"] for e in merged}
