"""Run one iteration of a workload through the service's public entry points.

The benchmark generates the arrival stream from its seed
(:func:`~repro.shard.service.shard_workload`) and hands the program only
that stream: directly to ``ShardedService.run_stream``, or, for the
frontend workload, as ``ClientSubmit`` frames from a ``SocketClient`` to a
``FrontendServer``.  Wall-clock timestamps come from :class:`WallClockSink`,
attached through the service's ``event_sink`` argument; CPU comes from
``resource.getrusage``.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.durable.recovery import DurabilityConfig
from repro.engine.events import EventSink, LogEvent, ServiceEvent
from repro.engine.faults import Silent
from repro.frontend.api import Frontend
from repro.frontend.socket import FrontendServer, SocketClient
from repro.mesh.topology import MeshTopology
from repro.shard.service import ShardedService, shard_workload

from . import checks, spec

#: Per-iteration engine deadline (a run that needs longer fails its checks).
RUN_TIMEOUT_S = 60.0
#: A typical time of :func:`host_probe` on the 2.1 GHz 2-core VM the
#: benchmark was built on: the host speed end-to-end timings are scaled to.
PROBE_REFERENCE_S = 0.015


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of three).

    The loop allocates like the program does (tuples, lists, strings, dict
    inserts) and depends on nothing in ``src/``, so a change to the program
    cannot move it.  Timed around every iteration, it measures how fast the
    shared host is running at that moment: on a busy 2-core VM the same
    iteration's wall time swings by a third within a minute.  The table is
    rebuilt in small rounds so the probe does not raise the process's peak
    RSS, which ``peak_rss_mb`` reports.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(10):
            table = {}
            for i in range(3_000):
                table[(i, "k")] = [i, str(i)]
        best = min(best, time.perf_counter() - t0)
    return best


def stream_for(wl: spec.Workload, seed: int, index: int, count: int | None = None):
    """The arrival stream of iteration ``index`` under benchmark seed
    ``seed``: closed loop, every command due at slot 0."""
    return shard_workload(
        wl.count if count is None else count,
        keyspace=spec.KEYSPACE,
        skew=wl.skew,
        rate=None,
        seed=iteration_seed(seed, index),
    )


def iteration_seed(seed: int, index: int) -> int:
    """Engine, contention-coin and workload seed of one iteration."""
    return seed * 1_000 + index


class WallClockSink(EventSink):
    """Timestamps ``shard.open``/``shard.decide`` records as the hosting
    process sees them (``perf_counter``), counts engine events, and samples
    the emitting thread's CPU clock at the steady window's two ends.

    A ``(shard, slot)`` counts as committed when ``quorum`` distinct correct
    replicas have logged its ``shard.decide``.
    """

    def __init__(self, correct: set[int], quorum: int) -> None:
        self.correct = correct
        self.quorum = quorum
        self.first_open: dict[tuple[int, int], float] = {}
        self.opens: dict[tuple[int, int, int], float] = {}
        self.decides: dict[tuple[int, int, int], tuple[float, str]] = {}
        self.deciders: Counter = Counter()
        self.committed: dict[tuple[int, int], float] = {}
        self.t_first_open: float | None = None
        self.cpu_first_open = 0.0
        self.t_last_decide: float | None = None
        self.cpu_last_decide = 0.0
        self.events = 0
        self.service_calls = 0

    def emit(self, event: Any) -> None:
        kind = type(event)
        if kind is LogEvent:
            if event.pid < 0:
                return  # frontend records (pid CLIENT), not engine events
            self.events += 1
            name = event.event
            if name == "shard.open":
                now = time.perf_counter()
                data = event.data
                key = (data["shard"], data["slot"])
                self.opens.setdefault((event.pid, *key), now)
                self.first_open.setdefault(key, now)
                if self.t_first_open is None:
                    self.t_first_open = now
                    self.cpu_first_open = time.thread_time()
            elif name == "shard.decide":
                now = time.perf_counter()
                data = event.data
                key = (data["shard"], data["slot"])
                full = (event.pid, *key)
                if full in self.decides:
                    return
                self.decides[full] = (now, data["kind"])
                self.t_last_decide = now
                self.cpu_last_decide = time.thread_time()
                if event.pid in self.correct:
                    self.deciders[key] += 1
                    if self.deciders[key] == self.quorum:
                        self.committed[key] = now
            return
        self.events += 1
        if kind is ServiceEvent:
            self.service_calls += 1


class TimedService(ShardedService):
    """``ShardedService`` that keeps the stream it was handed and times the
    ``run_stream`` call (wall and calling-thread CPU)."""

    arrivals: list = ()
    t_call = t_return = 0.0
    cpu_call = cpu_return = 0.0

    def run_stream(self, arrivals, timeout: float = 30.0):
        self.arrivals = list(arrivals)
        self.t_call = time.perf_counter()
        self.cpu_call = time.thread_time()
        try:
            return super().run_stream(arrivals, timeout=timeout)
        finally:
            self.cpu_return = time.thread_time()
            self.t_return = time.perf_counter()


@dataclass
class Observation:
    """Everything one iteration measured."""

    submitted: int
    decided: int
    failures: list[str]
    wall_s: float
    setup_s: float | None
    steady_s: float | None
    teardown_s: float | None
    commit_ms: list[float] = field(default_factory=list)
    slot_ms: list[float] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    slots: int = 0
    empty_slots: int = 0
    msgs: int = 0
    frames: int | None = None
    frame_bytes: int | None = None
    hub_frames: dict[int, int] = field(default_factory=dict)
    hub_bytes: dict[int, int] = field(default_factory=dict)
    service_calls: int = 0
    events: int = 0
    delivers: int = 0
    self_cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    hub_steady_cpu_s: float | None = None
    hub_call_cpu_s: float = 0.0
    frontend: Any = None
    #: host slowdown during the iteration: mean :func:`host_probe` time
    #: right before and right after it, over :data:`PROBE_REFERENCE_S`.
    slowdown: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def throughput(self) -> float | None:
        if not self.ok or not self.steady_s:
            return None
        return self.decided / self.steady_s


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _service(wl: spec.Workload, seed: int, sink: EventSink, scratch: str) -> TimedService:
    durability = None
    if wl.wal:
        root = os.path.join(scratch, f"wal-{seed}")
        shutil.rmtree(root, ignore_errors=True)
        durability = DurabilityConfig(root=root, fsync=True)
    return TimedService(
        n=spec.N,
        t=spec.T,
        shards=spec.SHARDS,
        max_batch=spec.MAX_BATCH,
        contention=spec.CONTENTION,
        skew=wl.skew,
        keyspace=spec.KEYSPACE,
        faults={pid: Silent() for pid in wl.silent},
        seed=seed,
        engine=wl.engine,
        event_sink=sink,
        durability=durability,
        mesh=MeshTopology(hubs=wl.hubs) if wl.hubs > 1 else None,
    )


def run_iteration(
    wl: spec.Workload, seed: int, index: int, scratch: str, count: int | None = None
) -> Observation:
    """Run one iteration end to end, check its outputs, and measure it."""
    stream = stream_for(wl, seed, index, count)
    sub = iteration_seed(seed, index)
    correct = set(range(spec.N)) - set(wl.silent)
    sink = WallClockSink(correct, spec.T + 1)
    service = _service(wl, sub, sink, scratch)
    self0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outcomes = None
    frontend_report = None
    if wl.frontend:
        outcomes, frontend_report, start = _frontend_session(service, stream, scratch, sub)
        report = frontend_report.shard
    else:
        report = service.run_stream(stream, timeout=RUN_TIMEOUT_S)
        start = service.t_call
    wall = time.perf_counter() - t0
    self_cpu = _cpu(resource.RUSAGE_SELF) - self0
    child_cpu = _cpu(resource.RUSAGE_CHILDREN) - child0

    commands = [command for _, command in stream]
    accepted = [command for _, command in service.arrivals]
    digest = report.digest if report else None
    failures = checks.check_report(report, accepted, wl.silent) if report else [
        "service produced no report"
    ]
    if service.durability is not None:
        failures += checks.check_replica_state(
            service.durability, sorted(correct), spec.SHARDS, digest
        )
        shutil.rmtree(service.durability.root, ignore_errors=True)
    if wl.frontend:
        failures += checks.check_replies(outcomes, commands, digest)
    return _observe(
        wl, stream, service, sink, report, failures, wall, self_cpu, child_cpu,
        start, frontend_report,
    )


def _frontend_session(service: TimedService, stream, scratch: str, sub: int):
    """One client session: stream every submit over a UDS, half-close,
    collect replies and rejections.  Returns ``(outcomes, report, connect
    time)``."""
    path = os.path.join(scratch, f"fe-{sub}.sock")
    if os.path.exists(path):
        os.unlink(path)
    server = FrontendServer(
        lambda: Frontend(service, queue_bound=spec.QUEUE_BOUND, policy="shed"),
        path=path,
        tick_every=spec.SHARDS * spec.MAX_BATCH,
    )
    server.bind()
    errors: list[Exception] = []

    def serve() -> None:
        try:
            server.serve_once(RUN_TIMEOUT_S)
        except Exception as exc:  # re-raised in the calling thread below
            errors.append(exc)

    thread = threading.Thread(target=serve, name="perfbench-frontend")
    thread.start()
    try:
        client = SocketClient(path=path, timeout=RUN_TIMEOUT_S)
        connect = time.perf_counter()
        outcomes = client.submit_all((command[1], command[2]) for _, command in stream)
    finally:
        thread.join(RUN_TIMEOUT_S + 5)
        server.close()
        if os.path.exists(path):
            os.unlink(path)
    if errors:
        raise RuntimeError(f"frontend session failed: {errors[0]!r}") from errors[0]
    return outcomes, server.last_report, connect


def _commit_latencies(sink: WallClockSink, arrivals, placed) -> list[float]:
    """Commit latency per decided command: its ``(shard, slot)`` reached
    the decide quorum, minus the first open of its arrival slot."""
    arrival_of = {command: slot for slot, command in arrivals}
    out = []
    for command, (shard, slot) in placed.items():
        committed = sink.committed.get((shard, slot))
        opened = sink.first_open.get((shard, arrival_of.get(command, 0)))
        if committed is not None and opened is not None:
            out.append((committed - opened) * 1e3)
    return out


def _observe(
    wl, stream, service, sink, report, failures, wall, self_cpu, child_cpu, start,
    frontend_report,
) -> Observation:
    digest = report.digest if report is not None else None
    placed = checks.placements(digest)
    decided = len(placed) if not failures else 0
    slots = sum(len(batches) for _, batches in digest or ())
    empty = sum(1 for _, batches in digest or () for b in batches if not b)
    kinds: Counter = Counter(
        kind for (pid, _, _), (_, kind) in sink.decides.items() if pid in sink.correct
    )
    slot_ms = [
        (decided_at - sink.opens[key]) * 1e3
        for key, (decided_at, _) in sink.decides.items()
        if key[0] in sink.correct and key in sink.opens
    ]
    result = report.result if report is not None else None
    steady = (
        sink.t_last_decide - sink.t_first_open
        if sink.t_first_open is not None and sink.t_last_decide is not None
        else None
    )
    obs = Observation(
        submitted=len(stream),
        decided=decided,
        failures=failures,
        wall_s=wall,
        setup_s=sink.t_first_open - start if sink.t_first_open is not None else None,
        steady_s=steady,
        teardown_s=(
            service.t_return - sink.t_last_decide
            if sink.t_last_decide is not None
            else None
        ),
        commit_ms=_commit_latencies(sink, service.arrivals, placed),
        slot_ms=slot_ms,
        kinds=kinds,
        slots=slots,
        empty_slots=empty,
        msgs=result.stats.messages_sent if result is not None else 0,
        service_calls=sink.service_calls,
        events=sink.events,
        delivers=result.stats.messages_delivered if result is not None else 0,
        self_cpu_s=self_cpu,
        child_cpu_s=child_cpu,
        hub_call_cpu_s=service.cpu_return - service.cpu_call,
        # without the embedded ShardReport, so kept observations stay small
        frontend=(
            dataclasses.replace(frontend_report, shard=None) if frontend_report else None
        ),
    )
    if wl.engine == "net" and result is not None:
        obs.frames = result.hub_frames
        obs.frame_bytes = result.hub_bytes
        obs.hub_frames = dict(result.hub_frame_counts)
        obs.hub_bytes = dict(result.hub_byte_counts)
        if steady is not None:
            obs.hub_steady_cpu_s = sink.cpu_last_decide - sink.cpu_first_open
    return obs
