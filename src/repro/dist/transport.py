"""SocketTransport: drive remote ``sandtable worker`` agents over TCP.

Speaks the exact master↔worker protocol of
:mod:`repro.core.parallel` — the same ops, the same reply tuples — so
:class:`~repro.core.parallel.ParallelBFS` cannot tell it from the fork
transport.  No op is translated on the way: the protocol names no file
(checkpoints are container bytes in both directions and the master owns
the run directory), so agents need no filesystem in common with it.

This module supplies the connection — the handshake, frames in and out;
the receive path over the connections is the fork transport's too
(:class:`~repro.core.parallel.Multiplexer`).  A lost connection (EOF,
send failure, torn frame) raises :class:`~repro.core.parallel.WorkerDied`;
the master's elastic-membership recovery then calls
:meth:`SocketTransport.replace`, which connects the dead worker's shard
to the next unassigned spare address.  Pass more addresses than
``workers`` to have warm spares standing by.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.parallel import Multiplexer
from ..obs.metrics import WIRE_BYTES_RECEIVED, WIRE_BYTES_SENT
from .wire import (
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

    __slots__ = ("sock", "buffer")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = FrameBuffer()

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        self.sock.close()


class SocketTransport(Multiplexer):
    """A :class:`~repro.core.parallel.ForkTransport`-shaped TCP transport.

    ``addresses`` lists the agents to use, ``HOST:PORT`` each; the first
    ``workers`` become the shards, the rest stay unassigned spares for
    :meth:`replace`.  ``spec_ref`` (see :mod:`repro.dist.specref`) names
    the spec both sides must resolve identically — it rides in the
    handshake together with the codec version and its fingerprint, and
    agents refuse mismatches.
    """

    lost = (EOFError, OSError, WireError)

    def __init__(
        self,
        addresses: Sequence[str],
        spec_ref: Dict[str, Any],
        *,
        connect_timeout: float = 10.0,
        metrics: Optional[Any] = None,
    ):
        super().__init__()
        if not addresses:
            raise TransportError("socket transport needs at least one worker address")
        self.addresses = [parse_address(a) for a in addresses]
        self.spec_ref = spec_ref
        self.connect_timeout = connect_timeout
        self.metrics = metrics
        self.n = 0
        self._config: Dict[str, Any] = {}
        self._assigned: Dict[int, int] = {}  # wid -> address index (sticky)

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

    def send(self, wid: int, msg: tuple) -> None:
        super().send(wid, encode_frame(encode_message(msg)))

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
            except (OSError, TransportError):
                # A spare that is down or refuses stays burned (recorded
                # in _assigned by _connect only on success), so just try
                # the next one.
                continue
        return False

    # -- the connection ------------------------------------------------------

    def _connect(self, wid: int, addr_index: int) -> None:
        host, port = self.addresses[addr_index]
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot reach worker {wid} at {host}:{port}: {exc}"
            ) from exc
        conn = _Conn(sock)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = make_handshake(
                self.spec_ref, wid=wid, workers=self.n, **self._config.get("options", {})
            )
            self._write(conn, encode_frame(encode_message(("hello", hello))))
            replies: List[tuple] = []
            try:
                while not replies:  # the connect timeout is still on the socket
                    replies = self._read(conn)
            except self.lost as exc:
                raise TransportError(
                    f"no handshake from worker {wid} at {host}:{port}: {exc!r}"
                ) from exc
            reply = replies[0]
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
        self._channels[wid] = conn
        self._assigned[wid] = addr_index

    def _write(self, conn: _Conn, frame: bytes) -> None:
        conn.sock.sendall(frame)
        self._count(WIRE_BYTES_SENT, len(frame))

    def _read(self, conn: _Conn) -> List[tuple]:
        """Every message completed by what the socket holds right now."""
        data = conn.sock.recv(_RECV_CHUNK)
        if not data:
            torn = conn.buffer.pending
            raise EOFError(
                "connection closed"
                + (f" mid-frame ({torn} bytes buffered)" if torn else "")
            )
        self._count(WIRE_BYTES_RECEIVED, len(data))
        conn.buffer.feed(data)
        return [decode_message(payload) for payload in iter(conn.buffer.pop, None)]

    def _count(self, name: str, amount: int) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)
