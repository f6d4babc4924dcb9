"""Fold iteration observations into the declared metrics.

Every metric is either a number measured on this workload or ``None``
with a reason; nothing defaults to zero.  A traced run fills a per-layer
``None`` from a donor workload that has the layer on its path (see
:data:`perfbench.spec.LAYER_DONORS`).
"""

from __future__ import annotations

import resource
import statistics
from typing import Any, Sequence

from . import spec
from .drive import Observation
from .tracing import Tracer

HUB_EVENT_METHODS = (
    "send", "deliver", "decide", "output", "service", "log", "fault", "restart",
    "saturated",
)
BATCHER_METHODS = ("submit", "ready", "head_batch", "rival_batch", "acknowledge")


def percentile(values: Sequence[float], q: float) -> float | None:
    """Linear-interpolated ``q``-quantile (0..1), ``None`` on no samples."""
    if not values:
        return None
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ratio(num: float | None, den: float | None, scale: float = 1.0) -> float | None:
    if num is None or not den:
        return None
    return num / den * scale


def _median(values: Sequence[float | None]) -> float | None:
    kept = [v for v in values if v is not None]
    return statistics.median(kept) if kept else None


def end_to_end(observations: Sequence[Observation]) -> tuple[dict[str, Any], dict[str, str]]:
    """``(metrics, notes)``: end-to-end values plus sample counts.

    Timings are taken per iteration, scaled by that iteration's
    :attr:`~perfbench.drive.Observation.slowdown` (a rate is multiplied by
    it, a duration divided), and reported as the median over iterations.
    The notes give the unscaled medians."""
    ok = [o for o in observations if o.ok]
    submitted = sum(o.submitted for o in observations)
    decided = sum(o.decided for o in ok)
    samples = sum(len(o.commit_ms) for o in ok)
    rates = {"throughput_cmds_s": [o.throughput for o in ok]}
    durations = {
        "commit_p50_ms": [percentile(o.commit_ms, 0.50) for o in ok],
        "commit_p90_ms": [percentile(o.commit_ms, 0.90) for o in ok],
        "setup_s": [o.setup_s for o in ok],
        "cpu_ms_per_cmd": [
            _ratio(o.self_cpu_s + o.child_cpu_s, o.decided, 1e3) for o in ok
        ],
    }
    metrics: dict[str, Any] = {
        "decided_frac": _ratio(decided, submitted),
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024,
    }
    notes = {
        "decided_frac": f"{decided} of {submitted} submitted",
        "peak_rss_mb": "larger of the benchmark / hub-0 process and its largest child",
    }
    for table, scale in ((rates, 1), (durations, -1)):
        for name, values in table.items():
            metrics[name] = _median(
                [v * o.slowdown**scale for v, o in zip(values, ok) if v is not None]
            )
            unscaled = _median(values)
            notes[name] = f"median of {len(ok)} iterations; unscaled " + (
                "null" if unscaled is None else f"{unscaled:.6g}"
            )
    for name in ("commit_p50_ms", "commit_p90_ms"):
        notes[name] += f"; {samples} commands in all"
    notes["cpu_ms_per_cmd"] += "; self + reaped children"
    slowdown = _median([o.slowdown for o in ok])
    if slowdown is not None:
        notes["throughput_cmds_s"] += f"; host slowdown {slowdown:.3g}"
    return {m.name: metrics[m.name] for m in spec.END_TO_END}, notes


def per_layer(
    wl: spec.Workload,
    untraced: Sequence[Observation],
    traced: Sequence[Observation],
    tracer: Tracer,
    micro: dict[str, float],
) -> tuple[dict[str, Any], dict[str, str]]:
    """``(metrics, reasons)``: per-layer values; ``reasons`` says why a
    value is ``None`` or where an unusual one came from."""
    u = [o for o in untraced if o.ok]
    tr = [o for o in traced if o.ok]
    net = wl.engine == "net"
    sim = wl.engine == "sim"
    decided = sum(o.decided for o in u)
    traced_decided = sum(o.decided for o in tr)
    slots = sum(o.slots for o in u)
    msgs = sum(o.msgs for o in u)
    kinds: dict[str, int] = {}
    for o in u:
        for kind, k in o.kinds.items():
            kinds[kind] = kinds.get(kind, 0) + k
    decisions = sum(kinds.values())
    reasons: dict[str, str] = {}
    m: dict[str, Any] = dict.fromkeys(x.name for x in spec.PER_LAYER)
    m.update(micro)

    hub_events = tuple(f"HubEvents.{name}" for name in HUB_EVENT_METHODS)
    if net:
        frames = sum(o.frames or 0 for o in u)
        hub_cpu = sum(o.hub_steady_cpu_s or 0.0 for o in u)
        emit = tracer.cpu(*hub_events, inside=True)
        parse = tracer.cpu("FrameDecoder.feed", inside=True)
        m["net.hub_cpu_ms_per_cmd"] = _ratio(hub_cpu, decided, 1e3)
        m["net.hub_busy_frac"] = _ratio(hub_cpu, sum(o.steady_s or 0.0 for o in u))
        m["net.event_emit_ms_per_cmd"] = _ratio(emit, traced_decided, 1e3)
        m["net.materialize_ms_per_cmd"] = _ratio(
            tracer.cpu("Opaque.decode", inside=True), traced_decided, 1e3
        )
        m["net.frame_parse_us"] = _ratio(
            parse, tracer.produced("FrameDecoder.feed", inside=True), 1e6
        )
        m["net.route_self_ms_per_cmd"] = _ratio(
            sum(o.hub_call_cpu_s for o in tr) - emit - parse, traced_decided, 1e3
        )
        m["net.frames_per_cmd"] = _ratio(frames, decided)
        m["net.bytes_per_frame"] = _ratio(sum(o.frame_bytes or 0 for o in u), frames)
        m["net.node_cpu_ms_per_cmd"] = _ratio(sum(o.child_cpu_s for o in u), decided, 1e3)
        m["net.node_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        for hub in (0, 1):
            if wl.hubs > 1:
                m[f"mesh.hub_frame_share.{hub}"] = _ratio(
                    sum(o.hub_frames.get(hub, 0) for o in u), frames
                )
            else:
                reasons[f"mesh.hub_frame_share.{hub}"] = "workload runs 1 hub"
        m["mesh.hub_bytes_per_cmd"] = _ratio(
            sum(sum(o.hub_bytes.values()) for o in u), decided
        )
        reasons["net.frame_parse_us"] = "traced FrameDecoder.feed in the hub process"
    else:
        for name in (
            "net.hub_cpu_ms_per_cmd", "net.hub_busy_frac", "net.event_emit_ms_per_cmd",
            "net.materialize_ms_per_cmd", "net.route_self_ms_per_cmd",
            "net.frames_per_cmd", "net.bytes_per_frame", "net.node_cpu_ms_per_cmd",
            "net.node_peak_rss_mb", "mesh.hub_frame_share.0",
            "mesh.hub_frame_share.1", "mesh.hub_bytes_per_cmd",
        ):
            reasons[name] = "no socket hub on the sim engine"
        reasons["net.frame_parse_us"] = "microbenchmark on the captured mix (no hub)"

    m["net.msgs_per_cmd"] = _ratio(msgs, decided)
    m["net.teardown_s"] = _median([o.teardown_s for o in u])
    m["shard.cmds_per_slot"] = _ratio(decided, slots)
    m["shard.heartbeat_frac"] = _ratio(sum(o.empty_slots for o in u), slots)
    slot_ms = [ms for o in u for ms in o.slot_ms]
    m["shard.slot_p50_ms"] = percentile(slot_ms, 0.50)
    m["shard.slot_p90_ms"] = percentile(slot_ms, 0.90)
    m["shard.sink_us_per_event"] = _ratio(
        tracer.cpu("ShardStreamSink.emit"), tracer.calls("ShardStreamSink.emit"), 1e6
    )
    m["dex.one_step_frac"] = _ratio(kinds.get("one-step", 0), decisions)
    m["dex.two_step_frac"] = _ratio(kinds.get("two-step", 0), decisions)
    m["dex.underlying_frac"] = _ratio(kinds.get("underlying", 0), decisions)
    m["dex.msgs_per_slot"] = _ratio(msgs, slots)
    m["uc.calls_per_slot"] = _ratio(sum(o.service_calls for o in u), slots)
    m["engine.events_per_cmd"] = _ratio(sum(o.events for o in u), decided)

    in_process = (
        "shard.batcher_us_per_cmd", "shard.router_us_per_msg", "dex.on_message_us",
        "engine.interpret_us_per_call", "sim.events_per_s",
    )
    if sim:
        batcher = tuple(f"ShardBatcher.{name}" for name in BATCHER_METHODS)
        m["shard.batcher_us_per_cmd"] = _ratio(
            tracer.cpu(*batcher), traced_decided, 1e6
        )
        m["shard.router_us_per_msg"] = _ratio(
            tracer.self_cpu("ShardMultiplexer.on_message"),
            tracer.calls("ShardMultiplexer.on_message"),
            1e6,
        )
        m["dex.on_message_us"] = _ratio(
            tracer.cpu("DexConsensus.on_message"),
            tracer.calls("DexConsensus.on_message"),
            1e6,
        )
        m["engine.interpret_us_per_call"] = _ratio(
            tracer.self_cpu("interpret"), tracer.calls("interpret"), 1e6
        )
        m["sim.events_per_s"] = _ratio(
            sum(o.delivers for o in u), sum(o.steady_s or 0.0 for o in u)
        )
    else:
        for name in in_process:
            reasons[name] = "runs inside forked replicas"

    if wl.frontend:
        reports = [o.frontend for o in u]
        submitted = sum(r.submitted for r in reports)
        client = [lat for r in reports for lat in r.latencies]
        m["frontend.submit_us"] = _ratio(
            tracer.cpu("Frontend.submit"), tracer.calls("Frontend.submit"), 1e6
        )
        m["frontend.shed_frac"] = _ratio(
            sum(r.shed + r.dropped for r in reports), submitted
        )
        m["frontend.queue_high_water"] = max(
            (row["high_water"] for r in reports for row in r.per_shard), default=None
        )
        m["frontend.client_p50_slots"] = percentile(client, 0.50)
        m["frontend.client_p90_slots"] = percentile(client, 0.90)
    else:
        for name in m:
            if name.startswith("frontend."):
                reasons[name] = "workload calls the service directly"

    pairs = [t.wall_s - u_.wall_s for t, u_ in zip(traced, untraced) if t.ok and u_.ok]
    m["trace.overhead_s"] = _median(pairs)
    reasons.setdefault("trace.overhead_s", f"median traced - untraced wall, {len(pairs)} pairs")
    for name, value in m.items():
        if value is None:
            reasons.setdefault(name, "not measured")
    return m, reasons
