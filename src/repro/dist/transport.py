"""SocketTransport: drive remote ``sandtable worker`` agents over TCP.

Speaks the exact master↔worker protocol of
:mod:`repro.core.parallel` — the same ops, the same reply tuples — so
:class:`~repro.core.parallel.ParallelBFS` cannot tell it from the fork
transport.  Three ops are translated because the agents share no
filesystem or clock with the master:

* ``("checkpoint", path)`` — the path stays master-side; the worker is
  asked for its checkpoint *bytes* and the master writes the
  generation-addressed file itself (atomic rename), which is what keeps
  resume and shard reassignment working with remote workers;
* ``("restore", path)`` — the master reads the file and ships the bytes;
* ``("expand", deadline)`` — the absolute ``time.monotonic`` deadline is
  meaningless on another host, so the *remaining seconds* travel and the
  agent re-anchors them locally.

A lost connection (EOF, send failure, torn frame) raises
:class:`~repro.core.parallel.WorkerDied`; the master's elastic-membership
recovery then calls :meth:`SocketTransport.replace`, which connects the
dead worker's shard to the next unassigned spare address.  Pass more
addresses than ``workers`` to have warm spares standing by.
"""

from __future__ import annotations

import pathlib
import select
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.parallel import WorkerDied
from ..obs.metrics import WIRE_BYTES_RECEIVED, WIRE_BYTES_SENT
from .wire import (
    ConnectionClosed,
    FrameBuffer,
    WireError,
    decode_message,
    encode_frame,
    encode_message,
    make_handshake,
)

__all__ = ["SocketTransport", "TransportError", "parse_address"]

_RECV_CHUNK = 1 << 16


class TransportError(RuntimeError):
    """Transport setup failure (bad address, refused handshake, ...)."""


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) → ``(host, port)``."""
    text = str(address).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or "127.0.0.1"
    else:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise TransportError(
            f"bad worker address {address!r}: expected HOST:PORT"
        ) from None
    if not 0 < port < 65536:
        raise TransportError(f"bad worker address {address!r}: port out of range")
    return host, port


class _Conn:
    """One live agent connection and its frame-reassembly state."""

    __slots__ = ("sock", "buffer", "addr_index")

    def __init__(self, sock: socket.socket, addr_index: int):
        self.sock = sock
        self.buffer = FrameBuffer()
        self.addr_index = addr_index


class SocketTransport:
    """A :class:`~repro.core.parallel.ForkTransport`-shaped TCP transport.

    ``addresses`` lists the agents to use, ``HOST:PORT`` each; the first
    ``workers`` become the shards, the rest stay unassigned spares for
    :meth:`replace`.  ``spec_ref`` (see :mod:`repro.dist.specref`) names
    the spec both sides must resolve identically — it rides in the
    handshake together with the codec version and its fingerprint, and
    agents refuse mismatches.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        spec_ref: Dict[str, Any],
        *,
        connect_timeout: float = 10.0,
        metrics: Optional[Any] = None,
    ):
        if not addresses:
            raise TransportError("socket transport needs at least one worker address")
        self.addresses = [parse_address(a) for a in addresses]
        self.spec_ref = spec_ref
        self.connect_timeout = connect_timeout
        self.metrics = metrics
        self.n = 0
        self._config: Dict[str, Any] = {}
        self._conns: Dict[int, _Conn] = {}
        self._assigned: Dict[int, int] = {}  # wid -> address index (sticky)
        self._pending_ckpt: Dict[int, str] = {}
        self._inbox: Deque[Tuple[int, tuple]] = deque()

    # -- lifecycle -----------------------------------------------------------

    def start(self, config: Dict[str, Any]) -> None:
        self._config = dict(config)
        self.n = int(config["workers"])
        if self.metrics is None:
            self.metrics = config.get("metrics")
        if len(self.addresses) < self.n:
            raise TransportError(
                f"{self.n} workers requested but only"
                f" {len(self.addresses)} worker addresses given"
            )
        for wid in range(self.n):
            self._connect(wid, wid)

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.sock.sendall(encode_frame(encode_message(("stop",))))
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._conns.clear()
        self._inbox.clear()

    # -- exchange ------------------------------------------------------------

    def send(self, wid: int, msg: tuple) -> None:
        conn = self._conns.get(wid)
        if conn is None:
            raise WorkerDied(wid, "connection already lost")
        op = msg[0]
        if op == "checkpoint":
            # Remember where the master wants the file; ask the agent
            # for bytes only.
            self._pending_ckpt[wid] = str(msg[1])
            msg = ("checkpoint",)
        elif op == "restore":
            source = msg[1] if len(msg) > 1 else None
            if source is not None and not isinstance(source, (bytes, bytearray)):
                source = pathlib.Path(source).read_bytes()
            msg = ("restore", source)
        elif op == "expand":
            deadline = msg[1]
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            msg = ("expand", remaining)
        frame = encode_frame(encode_message(msg))
        try:
            conn.sock.sendall(frame)
        except OSError as exc:
            self._drop(wid)
            raise WorkerDied(wid, f"send failed: {exc}") from exc
        self._count(WIRE_BYTES_SENT, len(frame))

    def recv(self, timeout: float = 1.0) -> Optional[tuple]:
        """One worker reply, ``None`` on timeout; raises on lost workers."""
        deadline = time.monotonic() + timeout
        while True:
            if self._inbox:
                wid, msg = self._inbox.popleft()
                return self._translate(wid, msg)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            by_sock = {conn.sock: wid for wid, conn in self._conns.items()}
            if not by_sock:
                raise WorkerDied(-1, "all worker connections lost")
            readable, _, _ = select.select(list(by_sock), [], [], remaining)
            if not readable:
                return None
            # Deterministic service order under simultaneous readiness.
            for sock in sorted(readable, key=lambda s: by_sock[s]):
                wid = by_sock[sock]
                try:
                    data = sock.recv(_RECV_CHUNK)
                except OSError as exc:
                    self._drop(wid)
                    raise WorkerDied(wid, f"recv failed: {exc}") from exc
                if not data:
                    torn = self._conns[wid].buffer.pending
                    self._drop(wid)
                    reason = "connection closed"
                    if torn:
                        reason += f" mid-frame ({torn} bytes buffered)"
                    raise WorkerDied(wid, reason)
                self._count(WIRE_BYTES_RECEIVED, len(data))
                buffer = self._conns[wid].buffer
                try:
                    buffer.feed(data)
                    while True:
                        payload = buffer.pop()
                        if payload is None:
                            break
                        self._inbox.append((wid, decode_message(payload)))
                except WireError as exc:
                    self._drop(wid)
                    raise WorkerDied(wid, f"wire error: {exc}") from exc

    def replace(self, wid: int) -> bool:
        """Connect shard ``wid`` to the next unassigned spare agent."""
        self._drop(wid)
        used = set(self._assigned.values())
        for index in range(len(self.addresses)):
            if index in used:
                continue
            try:
                self._connect(wid, index)
                return True
            except (OSError, TransportError, WireError):
                # A spare that is down or refuses stays burned (recorded
                # in _assigned by _connect only on success), so just try
                # the next one.
                continue
        return False

    # -- internals -----------------------------------------------------------

    def _connect(self, wid: int, addr_index: int) -> None:
        host, port = self.addresses[addr_index]
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot reach worker {wid} at {host}:{port}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = make_handshake(
                self.spec_ref, wid=wid, workers=self.n, **self._config.get("options", {})
            )
            frame = encode_frame(encode_message(("hello", hello)))
            sock.sendall(frame)
            self._count(WIRE_BYTES_SENT, len(frame))
            reply = self._read_one_blocking(sock)
            if reply[0] == "refuse":
                raise TransportError(
                    f"worker {wid} at {host}:{port} refused the handshake:"
                    f" {reply[1]}"
                )
            if reply[0] != "ready" or reply[1] != wid:
                raise TransportError(
                    f"worker {wid} at {host}:{port} answered {reply[0]!r}"
                    " instead of ready"
                )
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)
        self._conns[wid] = _Conn(sock, addr_index)
        self._assigned[wid] = addr_index

    def _read_one_blocking(self, sock: socket.socket) -> tuple:
        """One message during the handshake, before select-driven mode."""
        buffer = FrameBuffer()
        sock.settimeout(self.connect_timeout)
        while True:
            payload = buffer.pop()
            if payload is not None:
                return decode_message(payload)
            try:
                data = sock.recv(_RECV_CHUNK)
            except socket.timeout as exc:
                raise TransportError("handshake timed out") from exc
            if not data:
                raise ConnectionClosed("connection closed during handshake")
            self._count(WIRE_BYTES_RECEIVED, len(data))
            buffer.feed(data)

    def _translate(self, wid: int, msg: tuple) -> tuple:
        op = msg[0]
        if op == "checkpointed" and len(msg) > 2:
            # The agent shipped checkpoint bytes; commit them to the
            # generation-addressed path the master chose.
            path = self._pending_ckpt.pop(msg[1], None)
            if path is not None:
                from ..persist.rundir import atomic_write_bytes

                atomic_write_bytes(pathlib.Path(path), msg[2])
            return ("checkpointed", msg[1])
        if op == "error":
            raise RuntimeError(f"parallel BFS worker {msg[1]} failed:\n{msg[2]}")
        return msg

    def _drop(self, wid: int) -> None:
        conn = self._conns.pop(wid, None)
        if conn is not None:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - already gone
                pass
        # Stale queued replies from this worker would confuse the next
        # assignment of the same wid; recovery re-pings anyway, but drop
        # them eagerly.
        if self._inbox:
            self._inbox = deque(item for item in self._inbox if item[0] != wid)

    def _count(self, name: str, amount: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)
