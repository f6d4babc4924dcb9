"""Per-layer microbenchmarks on inputs captured from a seeded run.

A sim run of ``sim_uniform``'s shape (same cluster, uniform keys) is
recorded once per traced benchmark run: every message payload a replica
sent and every write-ahead-log record a replica appended.  The codec,
frame parser, shard peek, WAL, snapshot and recovery functions are then
timed on that mix, after a warm-up pass, and each figure is the median
over several timed rounds.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import statistics
import time
from typing import Any, Callable, Sequence

from repro.codec import binary
from repro.durable.recovery import DurabilityConfig, NodeDurability
from repro.durable.snapshot import ShardSnapshot, SnapshotStore
from repro.durable.wal import WriteAheadLog
from repro.engine.events import EventSink, SendEvent
from repro.mesh.topology import peek_shard
from repro.net.wire import CODEC_BINARY, FrameDecoder, MsgSend, encode_frame_into
from repro.shard.service import ShardedService, shard_workload

from . import spec

#: Commands in the capture run, distinct payloads kept, records in the
#: fixed-length recovery log.
CAPTURE_COMMANDS = 256
MAX_PAYLOADS = 2_000
RECOVERY_RECORDS = 2_000
#: Wall budget per timed round of one operation, and rounds per operation.
ROUND_S = 0.05
ROUNDS = 5


class _PayloadSink(EventSink):
    def __init__(self) -> None:
        self.sends: list[tuple[int, int, Any, int]] = []

    def emit(self, event: Any) -> None:
        if type(event) is SendEvent and len(self.sends) < MAX_PAYLOADS:
            self.sends.append((event.pid, event.dst, event.payload, event.depth))


def capture(seed: int, scratch: str) -> dict[str, Any]:
    """Run the capture: payloads sent, WAL records appended, final state."""
    root = os.path.join(scratch, "capture-wal")
    shutil.rmtree(root, ignore_errors=True)
    sink = _PayloadSink()
    service = ShardedService(
        n=spec.N,
        t=spec.T,
        shards=spec.SHARDS,
        max_batch=spec.MAX_BATCH,
        contention=spec.CONTENTION,
        keyspace=spec.KEYSPACE,
        seed=seed,
        engine="sim",
        event_sink=sink,
        durability=DurabilityConfig(root=root),
    )
    records: list[Any] = []
    original = WriteAheadLog.append

    def recording(wal: WriteAheadLog, record: Any) -> None:
        records.append(record)
        original(wal, record)

    WriteAheadLog.append = recording
    try:
        report = service.run_stream(
            shard_workload(CAPTURE_COMMANDS, keyspace=spec.KEYSPACE, seed=seed)
        )
    finally:
        WriteAheadLog.append = original
        shutil.rmtree(root, ignore_errors=True)
    return {"sends": sink.sends, "records": records, "report": report}


def _per_op(op: Callable[[Any], Any], inputs: Sequence[Any]) -> float:
    """Median seconds per call of ``op`` over ``inputs``."""
    for item in inputs:  # warm-up pass
        op(item)
    samples = []
    for _ in range(ROUNDS):
        calls = 0
        t0 = time.perf_counter()
        while True:
            for item in inputs:
                op(item)
            calls += len(inputs)
            elapsed = time.perf_counter() - t0
            if elapsed >= ROUND_S:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def _frame_parse_s(sends) -> float:
    """Seconds per frame for ``FrameDecoder.feed`` (lazy, as the hub runs
    it) over ``MsgSend`` frames of the captured mix, fed in 64 KiB reads."""
    buf = bytearray()
    for src, dst, payload, depth in sends:
        encode_frame_into(MsgSend(src, dst, payload, depth), buf, CODEC_BINARY)
    chunks = [bytes(buf[i : i + 65536]) for i in range(0, len(buf), 65536)]

    def parse(_: Any) -> int:
        decoder = FrameDecoder(lazy=True)
        frames = 0
        for chunk in chunks:
            for _msg in decoder.feed(chunk):
                frames += 1
        return frames

    return _per_op(parse, [None]) / len(sends)


def _wal_append_s(records, directory: str, fsync: bool, count: int) -> float:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "bench-wal.log")
    sample = [records[i % len(records)] for i in range(count)]
    samples = []
    for _ in range(3):
        if os.path.exists(path):
            os.unlink(path)
        wal = WriteAheadLog(path, fsync=fsync)
        try:
            t0 = time.perf_counter()
            for record in sample:
                wal.append(record)
            samples.append((time.perf_counter() - t0) / count)
        finally:
            wal.close()
    os.unlink(path)
    return statistics.median(samples)


def _snapshot_ms(report, directory: str) -> tuple[float, float]:
    os.makedirs(directory, exist_ok=True)
    applied = {shard: tuple(batches) for shard, batches in report.digest}
    snapshot = ShardSnapshot(
        slots={shard: len(b) for shard, b in applied.items()},
        applied=applied,
        kv=report.states,
        seq=1,
    )
    store = SnapshotStore(directory, fsync=True)
    saves, loads = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        store.save(snapshot)
        saves.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        if store.load() != snapshot:
            raise RuntimeError("snapshot round trip changed the snapshot")
        loads.append(time.perf_counter() - t0)
    return statistics.median(saves) * 1e3, statistics.median(loads) * 1e3


def _recovery_ms_per_1k(records, root: str) -> float:
    """Open and recover a node whose WAL holds ``RECOVERY_RECORDS`` records."""
    config = DurabilityConfig(root=root, snapshot_every=0)
    node = NodeDurability(config, 0)
    for i in range(RECOVERY_RECORDS):
        node.wal.append(records[i % len(records)])
    node.close()
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        node = NodeDurability(config, 0)
        state = node.recover(spec.SHARDS)
        samples.append(time.perf_counter() - t0)
        node.close()
        if state is None or state.replayed_records == 0:
            raise RuntimeError("recovery replayed nothing from a non-empty log")
    return statistics.median(samples) * 1e3 * 1_000 / RECOVERY_RECORDS


#: statfs(2) magic numbers of the filesystems a checkout is likely on.
_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x794C7630: "overlayfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x65735546: "fuse",
    0x6969: "nfs",
    0x2FC12FC1: "zfs",
}


def filesystem(path: str) -> str:
    """Name of the filesystem ``path`` lives on (from ``statfs``)."""
    libc = ctypes.CDLL(None, use_errno=True)
    statfs = libc.statfs
    statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    statfs.restype = ctypes.c_int
    buf = ctypes.create_string_buffer(256)
    if statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, hex(magic))


def run(seed: int, scratch: str) -> tuple[dict[str, float], dict[str, Any]]:
    """Capture, then time every microbenchmark; returns ``(metrics, notes)``."""
    captured = capture(seed, scratch)
    sends = captured["sends"]
    records = captured["records"]
    report = captured["report"]
    if report.divergence or not sends or not records:
        raise RuntimeError("capture run failed: no agreed digest, payloads or records")
    objects = [payload for _, _, payload, _ in sends]
    encoded = [binary.encode(obj) for obj in objects]
    for obj, data in zip(objects, encoded):
        if binary.decode(data) != obj:
            raise RuntimeError("codec round trip changed a captured payload")
    directory = os.path.join(scratch, "micro")
    correct = spec.N
    metrics = {
        "codec.encode_us_per_msg": _per_op(binary.encode, objects) * 1e6,
        "codec.decode_us_per_msg": _per_op(binary.decode, encoded) * 1e6,
        "codec.lazy_decode_us_per_msg": _per_op(
            lambda d: binary.decode(d, lazy=True), encoded
        )
        * 1e6,
        "codec.bytes_per_msg": sum(map(len, encoded)) / len(encoded),
        "mesh.peek_shard_us": _per_op(lambda d: peek_shard(d, spec.SHARDS), encoded)
        * 1e6,
        "net.frame_parse_us": _frame_parse_s(sends) * 1e6,
        "wal.append_us": _wal_append_s(records, directory, True, 200) * 1e6,
        "wal.append_nofsync_us": _wal_append_s(records, directory, False, 2_000) * 1e6,
        "wal.appends_per_slot": len(records) / (report.slots * correct),
    }
    metrics["snapshot.save_ms"], metrics["snapshot.load_ms"] = _snapshot_ms(
        report, directory
    )
    metrics["recovery.replay_ms_per_1k_records"] = _recovery_ms_per_1k(
        records, os.path.join(directory, "recovery")
    )
    notes = {
        "wal_filesystem": filesystem(directory),
        "captured_payloads": len(objects),
        "captured_wal_records": len(records),
        "capture_slots": report.slots,
    }
    shutil.rmtree(directory, ignore_errors=True)
    return metrics, notes
