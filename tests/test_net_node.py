"""The node worker's transport work, over a socketpair with a stub protocol.

No forking and no hub: one end of a ``socket.socketpair()`` is the
worker's hub link, the test writes hub frames into the other end, and a
recording protocol shows what the worker delivered.  Pins the two
per-read savings of :class:`~repro.net.node.NodeWorker`:

* relayed payload spans decode once per distinct span (a bounded memo
  that never shares a pickle-escaped or unhashable value), and
* the frames one inbound read causes leave in a single ``sendall``.
"""

import socket

import pytest

from repro.codec.binary import wrap_opaque
from repro.net import node as node_mod
from repro.net.node import EXIT_OK, SPAN_MEMO_ENTRIES, NodeWorker
from repro.net.wire import (
    CODEC_BINARY,
    CODEC_PICKLE,
    FrameDecoder,
    Hello,
    MsgDeliver,
    MsgDeliverBatch,
    MsgSend,
    Stop,
    encode_frame,
)
from repro.runtime.effects import Broadcast, Envelope
from repro.runtime.protocol import Protocol
from repro.types import SystemConfig


class Box:
    """Unregistered and mutable: the binary codec pickles it."""

    def __init__(self, value):
        self.value = value


class Recorder(Protocol):
    """Records every delivered payload; broadcasts it back if asked."""

    def __init__(self, n=4, rebroadcast=False):
        super().__init__(0, SystemConfig(n, 1))
        self.rebroadcast = rebroadcast
        self.delivered = []
        self.memo_sizes = []
        self.worker = None

    def on_message(self, sender, payload):
        self.delivered.append((sender, payload))
        if self.worker is not None:
            self.memo_sizes.append(len(self.worker._memo))
        return [Broadcast(payload)] if self.rebroadcast else []


class CountingSocket:
    """A socket stand-in that records each ``sendall``."""

    def __init__(self, sock):
        self.sock = sock
        self.sendalls = []

    def sendall(self, data):
        self.sendalls.append(bytes(data))
        self.sock.sendall(data)

    def recv(self, size):
        return self.sock.recv(size)

    def settimeout(self, timeout):
        self.sock.settimeout(timeout)


@pytest.fixture
def link():
    node_end, hub_end = socket.socketpair()
    yield CountingSocket(node_end), hub_end
    node_end.close()
    hub_end.close()


def run_worker(link, protocol, frames, codec=CODEC_BINARY):
    """Queue ``frames`` then Stop on the hub end; run the worker to Stop."""
    sock, hub_end = link
    hub_end.sendall(b"".join(encode_frame(f, codec) for f in [*frames, Stop()]))
    worker = NodeWorker(0, protocol, sock, codec=codec)
    protocol.worker = worker
    assert worker.run(recv_timeout=5.0) == EXIT_OK
    return worker


def read_frames(hub_end):
    hub_end.settimeout(0.5)
    decoder, out = FrameDecoder(), []
    while True:
        try:
            data = hub_end.recv(65536)
        except TimeoutError:
            return out
        out.extend(decoder.feed(data))


@pytest.fixture
def count_decodes(monkeypatch):
    calls = []
    real = node_mod.decode_shareable

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(node_mod, "decode_shareable", counting)
    return calls


def test_identical_spans_in_a_batch_decode_once(link, count_decodes):
    payload = Envelope("idb", (3, "echo", 1))
    span = wrap_opaque(payload)
    protocol = Recorder()
    run_worker(link, protocol, [MsgDeliverBatch(tuple((s, span, 1) for s in range(7)))])
    assert len(count_decodes) == 1
    assert [sender for sender, _ in protocol.delivered] == list(range(7))
    assert all(p == payload for _, p in protocol.delivered)


@pytest.mark.parametrize("value", [Box(1), [1, 2]], ids=["pickled", "unhashable"])
def test_mutable_payloads_are_never_shared(link, count_decodes, value):
    span = wrap_opaque(value)
    protocol = Recorder()
    run_worker(link, protocol, [MsgDeliver(1, span, 1), MsgDeliver(2, span, 1)])
    (_, first), (_, second) = protocol.delivered
    assert first is not second
    assert len(count_decodes) == 2
    if isinstance(first, Box):
        first.value = 99
        assert second.value == 1
    else:
        first.append(3)
        assert second == [1, 2]


def test_memo_never_exceeds_its_bound(link, count_decodes):
    total = SPAN_MEMO_ENTRIES + 40
    entries = [(1, wrap_opaque(Envelope("idb", (i,))), 1) for i in range(total)]
    chunks = [tuple(entries[at : at + 32]) for at in range(0, total, 32)]
    protocol = Recorder()
    worker = run_worker(link, protocol, [MsgDeliverBatch(c) for c in chunks])
    assert len(protocol.delivered) == total
    assert max(protocol.memo_sizes) == SPAN_MEMO_ENTRIES
    assert len(worker._memo) == SPAN_MEMO_ENTRIES
    # Oldest first out: the first spans were evicted, the newest kept.
    assert entries[0][1].data not in worker._memo
    assert entries[-1][1].data in worker._memo
    assert len(count_decodes) == total


def test_one_delivery_broadcast_is_one_sendall(link):
    sock, hub_end = link
    payload = Envelope("dex", ("proposal", 1))
    protocol = Recorder(n=4, rebroadcast=True)
    run_worker(link, protocol, [MsgDeliver(2, wrap_opaque(payload), 0)])
    hello, *rest = sock.sendalls
    assert len(rest) == 1  # the whole 4-way broadcast in one syscall
    frames = read_frames(hub_end)
    assert frames[0] == Hello(0, CODEC_BINARY)
    assert [type(f) for f in frames[1:]] == [MsgSend] * 4
    assert [f.dst for f in frames[1:]] == [0, 1, 2, 3]
    assert all(f.payload == payload and f.depth == 1 for f in frames[1:])


def test_non_binary_payloads_pass_through(link, count_decodes):
    protocol = Recorder()
    run_worker(link, protocol, [MsgDeliver(1, {"k": 1}, 1)], codec=CODEC_PICKLE)
    assert protocol.delivered == [(1, {"k": 1})]
    assert count_decodes == []
