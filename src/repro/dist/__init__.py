"""Distributed checking: the socket worker transport.

``repro.dist`` takes the sharded parallel BFS of
:mod:`repro.core.parallel` past one host:

* :mod:`~repro.dist.specref` — portable *spec references*: small JSON
  descriptions (a named system spec, or a testkit seed) that both ends
  of a connection resolve to the identical spec, fingerprinted so a
  mismatch is refused at handshake time;
* :mod:`~repro.dist.wire` — the length-prefixed frame format, the
  message codec (op byte + codec-bytes blob table + JSON), and the
  versioned handshake;
* :mod:`~repro.dist.transport` — :class:`SocketTransport`, a
  :class:`~repro.core.parallel.ForkTransport`-shaped transport that
  drives ``sandtable worker`` agents over TCP;
* :mod:`~repro.dist.agent` — :class:`WorkerAgent`, the TCP shard-worker
  server behind ``sandtable worker --listen``.

Layering: this package imports core/persist/obs freely; nothing in
those layers imports it back (the master sees a socket transport only
as a duck-typed ``transport`` argument).
"""

from .agent import WorkerAgent
from .specref import (
    SPEC_CLASSES,
    SpecRefError,
    make_spec,
    resolve_spec,
    spec_fingerprint,
    system_ref,
    testkit_ref,
)
from .transport import SocketTransport, TransportError, parse_address
from .wire import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameBuffer,
    WireError,
    check_handshake,
    decode_message,
    encode_frame,
    encode_message,
    make_handshake,
    read_frame,
    write_frame,
)

__all__ = [
    "ConnectionClosed",
    "FrameBuffer",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "SPEC_CLASSES",
    "SocketTransport",
    "SpecRefError",
    "TransportError",
    "WireError",
    "WorkerAgent",
    "check_handshake",
    "decode_message",
    "encode_frame",
    "encode_message",
    "make_handshake",
    "make_spec",
    "parse_address",
    "read_frame",
    "resolve_spec",
    "spec_fingerprint",
    "system_ref",
    "testkit_ref",
    "write_frame",
]
