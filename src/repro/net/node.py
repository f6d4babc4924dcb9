"""The node worker: one sans-IO protocol behind a real socket.

A worker process hosts exactly one :class:`~repro.runtime.protocol.
Protocol` (honest or a Byzantine behavior wrapper — it cannot tell) and
connects to the orchestrator's hub socket.  The protocol is driven through
the standard path — :func:`~repro.runtime.protocol.guarded` handler calls,
:func:`~repro.engine.interpreter.interpret` effect execution — with a
:class:`NodeWorker` as the :class:`~repro.engine.interpreter.
ExecutionPorts` implementation: ``send`` appends a frame to the
socket's outgoing buffer, ``broadcast`` inherits the shared
per-destination fan-out (self-copy included; the hub routes it back with
zero jitter), ``decide`` reports to the hub once.  Because the
interpreter and the rewriters are reused unchanged, every fault that
works in-memory works over the wire.

The worker does the transport's per-message work once where it can:

* **Decode once.**  Frames decode lazily, so relayed payloads arrive as
  :class:`~repro.codec.Opaque` spans.  DEX's echo traffic hands a replica
  the same payload bytes from up to n echoers, so each distinct span is
  decoded once and its value memoized (bounded, :data:`SPAN_MEMO_ENTRIES`).
  Only values that hash and never went through the codec's pickle escape
  are shared; equal bytes always decode to equal values, so one sender
  cannot change what another sender's delivery decodes to.
* **Write once.**  Outgoing frames collect in one buffer per socket and
  :meth:`NodeWorker.flush` sends each with a single ``sendall``: after
  every inbound read has been dispatched, right after ``Hello``, and just
  before a :class:`~repro.net.faults.ProcessCrash` kill — so a node that
  dies at its Nth outgoing frame still delivers frames 0..N-1.  Frame
  order per socket is unchanged.

Workers are *forked*, not spawned: protocols routinely hold closures
(behavior factories, ``uc_factory`` lambdas) that pickle cannot move
across an exec boundary, while fork inherits them copy-on-write.  The
worker's lifecycle is defensive at every edge — connect retries with
exponential backoff, a receive timeout so a dead hub cannot wedge it, and
``os._exit`` termination so a forked child never runs the parent's
cleanup handlers.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any

from ..codec import Opaque
from ..codec.binary import decode_shareable, wrap_opaque
from ..engine.interpreter import ExecutionPorts, interpret
from ..errors import SimulationError
from ..runtime.effects import Deliver, Log, ServiceCall
from ..runtime.protocol import Protocol, guarded
from ..types import ProcessId
from .faults import NODE_ENV_MARKER, ProcessCrash
from .wire import (
    CODEC_BINARY,
    CODEC_PICKLE,
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    Hello,
    MsgDecide,
    MsgDeliver,
    MsgDeliverBatch,
    MsgLog,
    MsgOutput,
    MsgSend,
    MsgService,
    Start,
    Stop,
    encode_frame_into,
)

#: Sentinel distinct from every payload (payloads can be ``None``).
_NO_CACHED_PAYLOAD = object()

#: Bound on a worker's decoded-span memo; the oldest entry is evicted
#: first.  A replica's live echo traffic repeats well within it.
SPAN_MEMO_ENTRIES = 1024

#: Worker exit codes (collected by the cluster for post-mortems).
EXIT_OK = 0
EXIT_RECV_TIMEOUT = 3
EXIT_CONNECT_FAILED = 4
EXIT_INTERNAL_ERROR = 5


def connect_with_retry(
    family: int,
    address: Any,
    attempts: int = 30,
    base_delay: float = 0.01,
    max_delay: float = 0.5,
) -> socket.socket:
    """Connect to the hub, retrying with exponential backoff.

    Workers fork before the orchestrator finishes arming its listener's
    accept loop, so the first attempts may be refused; backoff doubles from
    ``base_delay`` up to ``max_delay`` per retry.

    Raises:
        SimulationError: every attempt failed (the last ``OSError`` is in
            the message).
    """
    delay = base_delay
    last_error: OSError | None = None
    for _ in range(attempts):
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.connect(address)
        except OSError as exc:
            sock.close()
            last_error = exc
            time.sleep(delay)
            delay = min(delay * 2, max_delay)
        else:
            if family == socket.AF_INET:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
    raise SimulationError(
        f"could not connect to hub at {address!r} after {attempts} attempts: "
        f"{last_error!r}"
    )


class NodeWorker(ExecutionPorts):
    """Execution ports whose far side is a socket to the hub.

    Args:
        pid: hosted process id.
        protocol: the protocol (or behavior wrapper) to drive.
        sock: connected hub socket.
        codec: wire codec for outgoing frames.
        max_frame: frame size cap (must match the hub's).
        crash: optional :class:`~repro.net.faults.ProcessCrash` chaos spec;
            checked before every outgoing message write.
    """

    def __init__(
        self,
        pid: ProcessId,
        protocol: Protocol,
        sock: socket.socket,
        codec: int = CODEC_PICKLE,
        max_frame: int = DEFAULT_MAX_FRAME,
        crash: ProcessCrash | None = None,
    ) -> None:
        self.pid = pid
        self.protocol = protocol
        self.config = protocol.config
        self.sock = sock
        self.codec = codec
        self.max_frame = max_frame
        self.crash = crash
        self._sent = 0
        self._hello_sent = False
        self._decided = False
        self._started = False
        # Encoded frames not yet sent, per socket (see flush()).
        self._out: dict[socket.socket, bytearray] = {}
        # Decoded relayed payloads by span bytes (see _materialize()).
        self._memo: dict[bytes, Any] = {}
        # One-slot encoded-payload cache for the binary codec: a broadcast
        # reaches send() once per destination with the *same* payload
        # object, so the payload encodes once and splices n times.  The
        # cache holds the object itself, so its id cannot be recycled.
        self._cached_payload: Any = _NO_CACHED_PAYLOAD
        self._cached_opaque: Opaque | None = None

    def _write(self, msg: Any) -> None:
        self._write_to(self.sock, msg)

    def _write_to(self, sock: socket.socket, msg: Any) -> None:
        # Chaos check on every post-handshake frame: "outgoing message" for a
        # ProcessCrash budget means anything the node tells the world — a
        # send, a service call, even its decision announcement.  The Hello
        # handshake is exempt so a budget of zero still registers the node
        # (dying unconnected is the listener-timeout path, a separate regime).
        # Parameterized over the socket because a mesh node holds one
        # connection per hub and steers data frames by shard.
        if self._hello_sent and self.crash is not None:
            self.crash.maybe_kill(self._sent, self.flush)
        buf = self._out.get(sock)
        if buf is None:
            buf = self._out[sock] = bytearray()
        encode_frame_into(msg, buf, self.codec, self.max_frame)
        self._sent += 1

    def flush(self) -> None:
        """Send every socket's buffered frames, one ``sendall`` each."""
        for sock, buf in self._out.items():
            if buf:
                sock.sendall(buf)
                buf.clear()

    def _materialize(self, payload: Any) -> Any:
        """The object behind a delivered payload, decoding each distinct
        :class:`~repro.codec.Opaque` span once.

        A value is memoized only if it hashes and decoded without the
        codec's pickle escape, so a mutable object is never shared between
        deliveries.  Payloads that are not spans (non-binary codecs) pass
        through unchanged.
        """
        if type(payload) is not Opaque:
            return payload
        data = payload.data
        memo = self._memo
        try:
            return memo[data]
        except KeyError:
            pass
        value, shareable = decode_shareable(data)
        if shareable:
            try:
                hash(value)
            except TypeError:
                return value
            if len(memo) >= SPAN_MEMO_ENTRIES:
                del memo[next(iter(memo))]
            memo[data] = value
        return value

    # -- ExecutionPorts (broadcast inherits the per-destination default) ------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        if self.codec == CODEC_BINARY:
            if payload is not self._cached_payload:
                self._cached_payload = payload
                self._cached_opaque = wrap_opaque(payload)
            payload = self._cached_opaque
        self._write(MsgSend(src, dst, payload, depth))

    def decide(self, pid: ProcessId, value: Any, kind: Any, depth: int) -> None:
        if not self._decided:
            self._decided = True
            self._write(MsgDecide(pid, value, kind, depth))

    def output(self, pid: ProcessId, effect: Deliver, depth: int) -> None:
        self._write(MsgOutput(pid, effect.tag, effect.sender, effect.value))

    def service_call(self, pid: ProcessId, call: ServiceCall, depth: int) -> None:
        self._write(MsgService(pid, call, depth))

    def log_record(self, pid: ProcessId, record: Log, depth: int) -> None:
        self._write(MsgLog(pid, record.event, record.data))

    # -- lifecycle -------------------------------------------------------------------

    def run(self, recv_timeout: float = 60.0) -> int:
        """Drive the protocol until the hub says stop; return an exit code.

        The loop is frame-driven: ``Start`` runs ``on_start``, each
        ``MsgDeliver`` runs one guarded handler call, ``Stop`` (or the hub
        closing the connection) ends the run.  ``recv_timeout`` is a
        failsafe against a hub that died without closing its sockets.
        """
        decoder = FrameDecoder(self.max_frame, lazy=True)
        self.sock.settimeout(recv_timeout)
        self._write(Hello(self.pid, self.codec))
        self.flush()
        self._hello_sent = True
        self._sent = 0
        while True:
            try:
                data = self.sock.recv(65536)
            except TimeoutError:
                return EXIT_RECV_TIMEOUT
            except OSError:
                return EXIT_OK  # hub tore the connection down: run is over
            if not data:
                return EXIT_OK
            for msg in decoder.feed(data):
                if not self._dispatch(msg):
                    self.flush()
                    return EXIT_OK
            self.flush()

    def _dispatch(self, msg: Any) -> bool:
        """Handle one inbound frame; ``False`` = Stop, the run is over.

        Factored out of the recv loop so multi-connection workers (the
        mesh node selects over one socket per hub) drive the identical
        frame semantics."""
        if isinstance(msg, Start):
            if not self._started:
                self._started = True
                interpret(self, self.pid, self.protocol.on_start(), 0)
        elif isinstance(msg, MsgDeliver):
            payload = self._materialize(msg.payload)
            effects = guarded(self.protocol, msg.sender, payload)
            interpret(self, self.pid, effects, msg.depth)
        elif isinstance(msg, MsgDeliverBatch):
            # Identical to the same deliveries as consecutive frames.
            for sender, payload, depth in msg.entries:
                effects = guarded(self.protocol, sender, self._materialize(payload))
                interpret(self, self.pid, effects, depth)
        elif isinstance(msg, Stop):
            return False
        return True


def node_main(
    pid: ProcessId,
    protocol: Protocol | None,
    family: int,
    address: Any,
    codec: int = CODEC_PICKLE,
    max_frame: int = DEFAULT_MAX_FRAME,
    crash: ProcessCrash | None = None,
    recv_timeout: float = 60.0,
    build: Any = None,
) -> None:
    """Entry point of the forked worker process (never returns).

    Sets the :data:`~repro.net.faults.NODE_ENV_MARKER` that arms
    :class:`~repro.net.faults.ProcessCrash`, runs the worker, and leaves
    via ``os._exit`` so a forked child cannot re-run the parent's atexit
    machinery or flush inherited buffers twice.

    ``build`` — a zero-argument protocol factory — defers construction
    into the forked child; restarted crash-recovery workers use it so a
    durable protocol opens and replays its on-disk state *in the child*,
    not in the orchestrator.
    """
    os.environ[NODE_ENV_MARKER] = "1"
    code = EXIT_INTERNAL_ERROR
    sock: socket.socket | None = None
    try:
        if build is not None:
            protocol = build()
        sock = connect_with_retry(family, address)
        worker = NodeWorker(pid, protocol, sock, codec, max_frame, crash)
        code = worker.run(recv_timeout)
    except SimulationError:
        code = EXIT_CONNECT_FAILED
    except OSError:
        code = EXIT_OK  # the hub went away mid-write: the run is over
    except Exception:
        code = EXIT_INTERNAL_ERROR
    finally:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
    os._exit(code)
