"""What the benchmark measures: workloads and metrics, declared once.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --all`` rewrites it), and the benchmark's own
tests check that the file and this registry agree, so a name can never be
printed that is not declared, or declared and never printed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Cluster shape shared by every workload (n=7, t=1: the frequency pair).
N, T = 7, 1
SHARDS = 4
MAX_BATCH = 4
CONTENTION = 0.3
KEYSPACE = 32
#: Per-shard admission-queue depth of the frontend workload.
QUEUE_BOUND = 16
#: Seconds one benchmark call measures (the manifest's ``run_seconds``).
RUN_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name: the ``--workload`` argument.
        why: one line on what the workload isolates (goes to the manifest).
        engine: ``"sim"`` (one process, virtual time) or ``"net"`` (forked
            replicas behind a socket hub).
        skew: key skew of the generated stream (``uniform`` / ``zipf``).
        count: commands per iteration.
        hubs: mesh hub groups (1 = the star topology).
        frontend: drive the service through ``SocketClient`` ->
            ``FrontendServer`` instead of calling it directly.
        wal: give every replica an fsynced write-ahead log.
        silent: replica ids that never send (the actual fault count f).
    """

    name: str
    why: str
    engine: str
    skew: str
    count: int
    hubs: int = 1
    frontend: bool = False
    wal: bool = False
    silent: tuple[int, ...] = ()


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "sim_uniform",
        "whole protocol stack in one process, no sockets, codec or disk: the "
        "zero-transport control that transport, codec and WAL changes must not move",
        engine="sim",
        skew="uniform",
        count=256,
    ),
    Workload(
        "net_uniform",
        "forked replicas behind one socket hub, binary codec, no WAL: hub CPU "
        "(codec, routing, event emission) bounds throughput",
        engine="net",
        skew="uniform",
        count=384,
    ),
    Workload(
        "frontend_zipf_wal",
        "socket client to frontend to 2-hub mesh with fsynced WAL, zipf keys and "
        "one silent replica: the north-star path under the adverse mix",
        engine="net",
        skew="zipf",
        count=384,
        hubs=2,
        frontend=True,
        wal=True,
        silent=(6,),
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

#: Workloads that between them put every layer on the path: the in-process
#: replica layers (sim engine) and the hubs, mesh and frontend (the frontend
#: workload).  A traced run of any other workload takes each per-layer
#: metric its own path lacks from one untraced and one traced iteration of
#: these, in order, so every per-layer metric is a number on every workload.
LAYER_DONORS = ("sim_uniform", "frontend_zipf_wal")


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


@dataclass(frozen=True)
class Metric:
    """One reported number: ``bound`` is set for end-to-end metrics only."""

    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("throughput_cmds_s", "cmd/s", "higher", 0.25),
    Metric("commit_p50_ms", "ms", "lower", 0.25),
    Metric("commit_p90_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("decided_frac", "frac", "higher", 0.1),
    Metric("cpu_ms_per_cmd", "ms/cmd", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER: tuple[Metric, ...] = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("net.hub_cpu_ms_per_cmd", "ms/cmd", "lower"),
        ("net.hub_busy_frac", "frac", "lower"),
        ("net.event_emit_ms_per_cmd", "ms/cmd", "lower"),
        ("net.materialize_ms_per_cmd", "ms/cmd", "lower"),
        ("net.frame_parse_us", "us", "lower"),
        ("net.route_self_ms_per_cmd", "ms/cmd", "lower"),
        ("net.frames_per_cmd", "frame/cmd", "lower"),
        ("net.bytes_per_frame", "B", "lower"),
        ("net.msgs_per_cmd", "msg/cmd", "lower"),
        ("net.node_cpu_ms_per_cmd", "ms/cmd", "lower"),
        ("net.node_peak_rss_mb", "MB", "lower"),
        ("net.teardown_s", "s", "lower"),
        ("mesh.hub_frame_share.0", "frac", "lower"),
        ("mesh.hub_frame_share.1", "frac", "higher"),
        ("mesh.hub_bytes_per_cmd", "B/cmd", "lower"),
        ("mesh.peek_shard_us", "us", "lower"),
        ("codec.encode_us_per_msg", "us", "lower"),
        ("codec.decode_us_per_msg", "us", "lower"),
        ("codec.lazy_decode_us_per_msg", "us", "lower"),
        ("codec.bytes_per_msg", "B", "lower"),
        ("shard.cmds_per_slot", "cmd/slot", "higher"),
        ("shard.heartbeat_frac", "frac", "lower"),
        ("shard.slot_p50_ms", "ms", "lower"),
        ("shard.slot_p90_ms", "ms", "lower"),
        ("shard.batcher_us_per_cmd", "us", "lower"),
        ("shard.router_us_per_msg", "us", "lower"),
        ("shard.sink_us_per_event", "us", "lower"),
        ("dex.one_step_frac", "frac", "higher"),
        ("dex.two_step_frac", "frac", "higher"),
        ("dex.underlying_frac", "frac", "lower"),
        ("dex.msgs_per_slot", "msg/slot", "lower"),
        ("dex.on_message_us", "us", "lower"),
        ("uc.calls_per_slot", "call/slot", "lower"),
        ("engine.interpret_us_per_call", "us", "lower"),
        ("engine.events_per_cmd", "event/cmd", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("wal.append_us", "us", "lower"),
        ("wal.append_nofsync_us", "us", "lower"),
        ("wal.appends_per_slot", "append/slot", "lower"),
        ("snapshot.save_ms", "ms", "lower"),
        ("snapshot.load_ms", "ms", "lower"),
        ("recovery.replay_ms_per_1k_records", "ms", "lower"),
        ("frontend.submit_us", "us", "lower"),
        ("frontend.shed_frac", "frac", "lower"),
        ("frontend.queue_high_water", "count", "lower"),
        ("frontend.client_p50_slots", "slot", "lower"),
        ("frontend.client_p90_slots", "slot", "lower"),
        ("trace.overhead_s", "s", "lower"),
    )
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document, in key order."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def render_manifest() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
