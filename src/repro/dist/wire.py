"""The socket wire format: length-prefixed frames of codec-bytes + JSON.

Every exchange between the parallel master and a ``sandtable worker``
agent is one *frame*::

    u32 payload length (big-endian)  |  payload

and every payload is one *message*::

    u32 blob count | (u32 length + raw bytes)*  |  UTF-8 JSON body

The blob table carries the canonical state-codec bytes (and checkpoint
containers) raw — the exact bytes the fork transport moves through its
pipes, never re-encoded — while the JSON body carries the message
structure, referencing blobs as ``{"$b": index}``.  Mappings with
non-string keys (per-owner batch dicts keyed by worker id) survive as
``{"$d": [[key, value], ...]}`` pairs.  Anything malformed — a frame
over :data:`MAX_FRAME`, a truncated blob table, a dangling blob index,
trailing garbage — raises :class:`WireError`; framing fails loudly and
never decodes garbage.

The first message on every connection is the versioned handshake
(:func:`make_handshake`): protocol version, codec version, the spec
reference plus its :func:`~repro.dist.specref.spec_fingerprint`, the
shard assignment, and the worker options
(:data:`~repro.core.parallel.WORKER_OPTIONS`: symmetry, fast, ...).
Agents refuse mismatches before any state moves
(:func:`check_handshake`); a header from another protocol version is
refused outright rather than read for the options both sides know.

Blocking helpers (:func:`read_frame`/:func:`write_frame`) serve the
agent's strict request/reply loop; the master, which waits on all its
connections at once, feeds raw socket reads through a
:class:`FrameBuffer` instead — deliberately *not* ``sock.makefile``
under a readiness wait, whose hidden buffering can strand a complete
frame invisibly.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional

from ..core.parallel import worker_options
from ..core.state import CODEC_VERSION
from .specref import spec_fingerprint

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "WireError",
    "ConnectionClosed",
    "FrameBuffer",
    "encode_frame",
    "read_frame",
    "write_frame",
    "encode_message",
    "decode_message",
    "make_handshake",
    "check_handshake",
]

#: Bumped on any incompatible change to the frame or message layout, or
#: to the op set the two sides exchange (2: the claim→settle exchange;
#: 3: the ``expanded`` reply's observability deltas are the fan-out
#: histogram and a ``{family: counts}`` map, the symmetry reducer's
#: counts among them; 4: the handshake's option set lost the
#: partial-order-reduction switch, which an agent would otherwise drop
#: silently; 5: violation descriptors carry their action args as codec
#: bytes, and ``ping`` carries a nonce that its ``pong`` echoes; 6: the
#: option set lost the compiled/interpreted switch — workers always
#: compile; 7: no ``absorb`` op — ``restore`` with no bytes seeds the
#: shard's own initial states, and every ``restored`` reply carries the
#: added count and the violations; 8: violations travel as
#: :meth:`~repro.core.violation.Violation.to_dict` records, not 8-tuples;
#: 9: no ``edges`` op — the master merges the ``checkpoint`` replies).
PROTOCOL_VERSION = 9

#: Hard bound on one frame's payload: large enough for any realistic
#: claim batch or checkpoint container, small enough that a corrupt
#: length prefix fails immediately instead of waiting on gigabytes.
MAX_FRAME = 1 << 28  # 256 MiB

_U32 = struct.Struct(">I")


class WireError(RuntimeError):
    """Malformed frame or message: refuse loudly, never decode garbage."""


class ConnectionClosed(WireError):
    """The peer closed the connection at a frame boundary."""


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _U32.pack(len(payload)) + payload


class FrameBuffer:
    """Incremental frame reassembly over raw ``recv`` chunks."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf += data

    def pop(self) -> Optional[bytes]:
        """The next complete frame payload, or ``None`` if more is needed."""
        if len(self._buf) < _U32.size:
            return None
        (length,) = _U32.unpack_from(self._buf, 0)
        if length > MAX_FRAME:
            raise WireError(
                f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME});"
                " stream corrupt or not a sandtable peer"
            )
        end = _U32.size + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[_U32.size : end])
        del self._buf[:end]
        return payload

    @property
    def pending(self) -> int:
        """Buffered bytes not yet forming a complete frame."""
        return len(self._buf)


def read_frame(handle: Any) -> bytes:
    """Blocking read of one frame from a file-like ``handle``."""
    prefix = handle.read(_U32.size)
    if not prefix:
        raise ConnectionClosed("connection closed")
    if len(prefix) < _U32.size:
        raise WireError(
            f"torn frame: connection closed inside the length prefix"
            f" ({len(prefix)}/{_U32.size} bytes)"
        )
    (length,) = _U32.unpack(prefix)
    if length > MAX_FRAME:
        raise WireError(
            f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME});"
            " stream corrupt or not a sandtable peer"
        )
    payload = handle.read(length)
    if len(payload) < length:
        raise WireError(
            f"torn frame: connection closed mid-payload"
            f" ({len(payload)}/{length} bytes)"
        )
    return payload


def write_frame(handle: Any, payload: bytes) -> None:
    handle.write(encode_frame(payload))


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


def _strip(value: Any, blobs: List[bytes]) -> Any:
    if isinstance(value, (bytes, bytearray, memoryview)):
        blobs.append(bytes(value))
        return {"$b": len(blobs) - 1}
    if isinstance(value, (list, tuple)):
        return [_strip(item, blobs) for item in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("$") for k in value):
            return {k: _strip(v, blobs) for k, v in value.items()}
        # Non-string (or tag-colliding) keys: per-owner batch dicts are
        # keyed by int worker id, which JSON objects cannot carry.
        return {
            "$d": [[_strip(k, blobs), _strip(v, blobs)] for k, v in value.items()]
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise WireError(f"cannot encode {type(value).__name__!r} on the wire")


def _restore(value: Any, blobs: List[bytes]) -> Any:
    if isinstance(value, list):
        return [_restore(item, blobs) for item in value]
    if isinstance(value, dict):
        if set(value) == {"$b"}:
            index = value["$b"]
            if not isinstance(index, int) or not 0 <= index < len(blobs):
                raise WireError(f"dangling blob index {index!r}")
            return blobs[index]
        if set(value) == {"$d"}:
            return {
                _restore(k, blobs): _restore(v, blobs) for k, v in value["$d"]
            }
        return {k: _restore(v, blobs) for k, v in value.items()}
    return value


def encode_message(msg: tuple) -> bytes:
    """Serialize one protocol message tuple to a frame payload."""
    blobs: List[bytes] = []
    body = _strip(list(msg), blobs)
    try:
        body_bytes = json.dumps(body, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable message {msg[0]!r}: {exc}") from exc
    out = bytearray()
    out += _U32.pack(len(blobs))
    for blob in blobs:
        out += _U32.pack(len(blob))
        out += blob
    out += body_bytes
    return bytes(out)


def decode_message(payload: bytes) -> tuple:
    """Parse a frame payload back into a protocol message tuple.

    The top level comes back as a tuple; nested tuples come back as
    lists (the protocol only ever unpacks or indexes them, never keys on
    identity), and blob references come back as the exact original
    bytes.
    """
    offset = 0
    if len(payload) < _U32.size:
        raise WireError("truncated message: missing blob count")
    (n_blobs,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    blobs: List[bytes] = []
    for index in range(n_blobs):
        if len(payload) - offset < _U32.size:
            raise WireError(f"truncated message: missing blob {index} header")
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if len(payload) - offset < length:
            raise WireError(
                f"truncated message: blob {index} needs {length} bytes,"
                f" {len(payload) - offset} remain"
            )
        blobs.append(payload[offset : offset + length])
        offset += length
    try:
        body = json.loads(payload[offset:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed message body: {exc}") from exc
    if not isinstance(body, list) or not body or not isinstance(body[0], str):
        raise WireError("malformed message body: expected [op, ...]")
    return tuple(_restore(body, blobs))


# ---------------------------------------------------------------------------
# handshake
# ---------------------------------------------------------------------------


def make_handshake(
    spec_ref: Dict[str, Any], *, wid: int, workers: int, **options: bool
) -> Dict[str, Any]:
    """The versioned hello header the master opens every session with;
    ``options`` (:data:`~repro.core.parallel.WORKER_OPTIONS`) travel by name.
    """
    return {
        "proto": PROTOCOL_VERSION,
        "codec_version": CODEC_VERSION,
        "spec_ref": spec_ref,
        "spec_fingerprint": spec_fingerprint(spec_ref),
        "wid": int(wid),
        "workers": int(workers),
        **worker_options(options),
    }


def check_handshake(header: Dict[str, Any]) -> Optional[str]:
    """A refusal reason for an incompatible hello, or ``None`` if fine.

    The spec fingerprint itself is re-derived and compared by the agent
    *after* resolving the reference, so the comparison covers the
    resolver's view, not just the header's claim.
    """
    if not isinstance(header, dict):
        return "malformed handshake header"
    proto = header.get("proto")
    if proto != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: peer speaks {proto!r},"
            f" this worker speaks {PROTOCOL_VERSION}"
        )
    codec = header.get("codec_version")
    if codec != CODEC_VERSION:
        return (
            f"codec version mismatch: peer encodes states with"
            f" {codec!r}, this worker with {CODEC_VERSION} — fingerprints"
            " would not be comparable"
        )
    wid = header.get("wid")
    workers = header.get("workers")
    if not isinstance(wid, int) or not isinstance(workers, int):
        return "malformed handshake header: wid/workers"
    if not 0 <= wid < workers:
        return f"shard assignment out of range: wid {wid} of {workers}"
    if "spec_ref" not in header or "spec_fingerprint" not in header:
        return "malformed handshake header: missing spec reference"
    return None
