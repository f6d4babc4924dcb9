"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from perfbench import checks, drive, micro, report, spec
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SIM = spec.workload("sim_uniform")


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return str(tmp_path)


def test_stream_is_a_pure_function_of_seed():
    for wl in spec.WORKLOADS:
        assert drive.stream_for(wl, 7, 3) == drive.stream_for(wl, 7, 3)
        assert drive.stream_for(wl, 7, 3) != drive.stream_for(wl, 8, 3)
        assert drive.stream_for(wl, 7, 3) != drive.stream_for(wl, 7, 4)
        assert len(drive.stream_for(wl, 7, 3)) == wl.count


def test_sim_counts_repeat_exactly(scratch):
    runs = [drive.run_iteration(SIM, 5, 0, scratch, count=96) for _ in range(2)]
    first, second = runs
    assert first.ok and second.ok, first.failures + second.failures
    assert first.decided == 96
    assert (first.slots, first.empty_slots, first.kinds, first.events, first.msgs) == (
        second.slots, second.empty_slots, second.kinds, second.events, second.msgs
    )
    tracer = Tracer("test")
    fracs = [report.per_layer(SIM, [r], [], tracer, {})[0] for r in runs]
    for name in ("dex.one_step_frac", "dex.two_step_frac", "dex.underlying_frac"):
        assert fracs[0][name] == fracs[1][name] is not None


def test_manifest_matches_registry():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.manifest()
    assert [w["name"] for w in on_disk["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert max(m["bound"] for m in on_disk["end_to_end"]) == next(
        m["bound"] for m in on_disk["end_to_end"] if m["name"] == "setup_s"
    )


def test_emitted_names_equal_declared(scratch):
    observations = [drive.run_iteration(SIM, 2, i, scratch, count=64) for i in range(2)]
    e2e, _ = report.end_to_end(observations)
    assert list(e2e) == [m.name for m in spec.END_TO_END]
    assert all(value is not None and value > 0 for value in e2e.values())
    tracer = Tracer("test")
    micro_metrics, notes = micro.run(2, scratch)
    layers, reasons = report.per_layer(SIM, observations, observations, tracer, micro_metrics)
    assert list(layers) == [m.name for m in spec.PER_LAYER]
    assert all(name in reasons for name, value in layers.items() if value is None)
    assert notes["wal_filesystem"]


def test_cli_prints_declared_end_to_end_metrics():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_uniform",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m.name: m.unit for m in spec.END_TO_END
    }


def test_checker_rejects_tampered_digest():
    commands = [("set", f"k{i}", i) for i in range(6)]
    digest = ((0, (tuple(commands[:3]),)), (1, (tuple(commands[3:]), ())))
    assert checks.check_digest(digest, commands) == []
    dropped = ((0, (tuple(commands[:2]),)), (1, (tuple(commands[3:]), ())))
    assert checks.check_digest(dropped, commands)
    duplicated = ((0, (tuple(commands[:3]),)), (1, (tuple(commands[3:]), (commands[0],))))
    assert checks.check_digest(duplicated, commands)
    foreign = ((0, (tuple(commands[:3]),)), (1, (tuple(commands[3:]), (("set", "x", 9),))))
    assert checks.check_digest(foreign, commands)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_reply_check_wants_one_reply_per_decided_command():
    from repro.frontend.socket import ClientRejected, ClientReply

    commands = [("set", "a", 1), ("set", "b", 2), ("set", "c", 3)]
    digest = ((0, ((commands[0], commands[1]),)),)
    outcomes = {
        0: ClientReply(0, 0, 0, 1),
        1: ClientReply(1, 0, 0, 1),
        2: ClientRejected(2, "shed", 1),
    }
    assert checks.check_replies(outcomes, commands, digest) == []
    assert checks.check_replies({**outcomes, 1: ClientRejected(1, "shed", 0)}, commands, digest)
    assert checks.check_replies({**outcomes, 1: ClientReply(1, 0, 5, 1)}, commands, digest)
    assert checks.check_replies({0: outcomes[0], 1: outcomes[1]}, commands, digest)


def test_frontend_shed_share_is_fixed_by_the_seed(scratch):
    wl = spec.workload("frontend_zipf_wal")
    runs = [drive.run_iteration(wl, 4, 0, scratch, count=96) for _ in range(2)]
    assert all(r.ok for r in runs), runs[0].failures + runs[1].failures
    shed = [(r.frontend.shed, r.frontend.dropped, r.decided) for r in runs]
    assert shed[0] == shed[1]
    assert shed[0][0] > 0 and shed[0][2] == 96 - shed[0][0] - shed[0][1]


def test_replica_state_check_reads_what_the_replica_kept(tmp_path):
    from repro.durable.recovery import DurabilityConfig

    config = DurabilityConfig(root=str(tmp_path / "wal"), snapshot_every=2)
    batches = [(("set", "a", 1),), (), (("set", "b", 2), ("set", "a", 3))]
    node = config.node(0)
    applied: list = []
    for slot, batch in enumerate(batches):
        node.commit(0, slot, batch, "one-step")
        applied.append(batch)
        node.maybe_snapshot({0: slot + 1}, {0: applied}, checks.replay([(0, applied)]))
    node.close()
    digest = ((0, tuple(batches)),)
    assert checks.check_replica_state(config, [0], 1, digest) == []
    dropped = ((0, tuple(batches[:2])),)
    assert checks.check_replica_state(config, [0], 1, dropped)
    altered = ((0, ((("set", "a", 9),), (), batches[2])),)
    assert checks.check_replica_state(config, [0], 1, altered)
    assert checks.check_replica_state(config, [1], 1, digest)
    from repro.durable.snapshot import ShardSnapshot

    node = config.node(0)
    node.snapshots.save(
        ShardSnapshot(slots={0: 3}, applied={0: tuple(batches)}, kv={0: {"a": 1}}, seq=99)
    )
    node.close()
    assert any("snapshot" in f for f in checks.check_replica_state(config, [0], 1, digest))


def test_warmup_check_failure_fails_the_run(scratch, monkeypatch):
    from perfbench import run

    real = drive.run_iteration

    def failing_warmup(wl, seed, index, scratch, count=None):
        obs = real(wl, seed, index, scratch, count=count)
        if index == run.WARMUP_INDEX:
            obs.failures.append("tampered")
        return obs

    monkeypatch.setattr(drive, "run_iteration", failing_warmup)
    doc = run.measure("sim_uniform", 1, 0.0, False)
    assert not doc["result"]["correct"]
    assert doc["result"]["failed"] == run.WARMUP_COMMANDS
    assert any("tampered" in line for line in doc["lines"])


def test_traced_run_reports_a_number_for_every_layer(scratch):
    from perfbench import run

    (Path(scratch) / run.SCRATCH).mkdir()
    doc = run.measure("sim_uniform", 3, 0.0, True)
    result = doc["result"]
    assert result["correct"], doc["lines"]
    assert list(result["metrics"]) == [m.name for m in spec.PER_LAYER]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    hub = next(line for line in doc["lines"] if "net.hub_cpu_ms_per_cmd" in line)
    assert "from one frontend_zipf_wal iteration" in hub
