"""WorkerAgent: the TCP shard-worker server behind ``sandtable worker``.

One agent owns one listening socket and serves *sessions* sequentially:
a master connects, sends the versioned handshake, and — if the agent can
resolve the spec reference to the identical spec (fingerprint-checked) —
gets a fresh :class:`~repro.core.parallel.ShardWorker` for the assigned
shard, driven by the loop a forked worker runs
(:func:`~repro.core.parallel.serve_worker`) until ``stop`` or
disconnect.  When the session ends the agent loops back to ``accept``,
so one long-running agent serves any number of rounds, runs, and masters
over its lifetime — and a just-started agent can adopt a dead worker's
shard mid-run (the master re-handshakes with the same ``wid`` and
restores the shard from its last committed checkpoint).

The agent holds no durable state and opens no file: like every shard
worker, forked ones included, it hands its checkpoint over as container
bytes in the ``checkpointed`` reply and is restored from such bytes; the
master writes the generation-addressed files, so elastic membership
needs no shared filesystem.

``die_after_ops`` is fault injection for the kill-and-resume tests: the
agent reads the op after that many post-handshake ones as ``("die",)``
— the test hook a master can also send on demand — and drops the
connection without a goodbye, exactly like a crashed worker host.
"""

from __future__ import annotations

import itertools
import os
import socket
from typing import Any, Optional

from ..core.parallel import WORKER_OPTIONS, ShardWorker, serve_worker
from .specref import resolve_spec, spec_fingerprint
from .wire import (
    WireError,
    check_handshake,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)

__all__ = ["WorkerAgent"]


class WorkerAgent:
    """Serve shard-worker sessions on ``host:port`` (port 0 = ephemeral).

    ``max_sessions`` bounds how many sessions to serve before returning
    (``None`` = forever, ``1`` = one master then exit — ``--once``).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: Optional[int] = None,
        die_after_ops: Optional[int] = None,
        log: Any = None,
    ):
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.max_sessions = max_sessions
        self.die_after_ops = die_after_ops
        self._log = log
        self._shutdown = False
        self.sessions_served = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    def serve_forever(self) -> None:
        """Accept and serve sessions until shutdown or ``max_sessions``."""
        try:
            while not self._shutdown:
                try:
                    conn, peer = self._listener.accept()
                except OSError:
                    break  # listener closed by shutdown()
                self._say(f"session from {peer[0]}:{peer[1]}")
                try:
                    self._serve_session(conn)
                finally:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - already gone
                        pass
                self.sessions_served += 1
                if (
                    self.max_sessions is not None
                    and self.sessions_served >= self.max_sessions
                ):
                    break
        finally:
            self.close()

    def shutdown(self) -> None:
        """Stop accepting; unblocks a pending ``accept`` from any thread."""
        self._shutdown = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def close(self) -> None:
        self.shutdown()

    # -- one session ---------------------------------------------------------

    def _serve_session(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = conn.makefile("rb")
        writer = conn.makefile("wb")

        def reply(msg: tuple) -> None:
            write_frame(writer, encode_message(msg))
            writer.flush()

        ops = itertools.count()

        def read() -> tuple:
            msg = decode_message(read_frame(reader))
            spent = self.die_after_ops is not None and next(ops) >= self.die_after_ops
            return ("die",) if spent and msg[0] != "stop" else msg

        try:
            worker = self._handshake(reader, reply)
            if worker is not None and serve_worker(worker, read, reply):
                # Fault injection: vanish mid-run without a goodbye.
                self._say("fault injection: dying")
                self.shutdown()
        except (WireError, OSError):
            return  # master went away; next master gets a fresh session

    def _handshake(self, reader: Any, reply: Any) -> Optional[ShardWorker]:
        msg = decode_message(read_frame(reader))
        if msg[0] != "hello":
            reply(("refuse", f"expected hello, got {msg[0]!r}"))
            return None
        header = msg[1]
        reason = check_handshake(header)
        if reason is not None:
            self._say(f"refusing session: {reason}")
            reply(("refuse", reason))
            return None
        spec_ref = header["spec_ref"]
        try:
            spec = resolve_spec(spec_ref)
        except Exception as exc:  # refuse politely instead of dying
            reason = f"cannot resolve spec reference: {exc}"
            self._say(f"refusing session: {reason}")
            reply(("refuse", reason))
            return None
        expected = spec_fingerprint(spec_ref)
        if header.get("spec_fingerprint") != expected:
            reason = (
                f"spec fingerprint mismatch: peer claims"
                f" {header.get('spec_fingerprint')!r}, this worker derives"
                f" {expected!r}"
            )
            self._say(f"refusing session: {reason}")
            reply(("refuse", reason))
            return None
        # ShardWorker coerces every option it is given and defaults the rest.
        options = {name: header[name] for name in WORKER_OPTIONS if name in header}
        worker = ShardWorker(spec, int(header["wid"]), int(header["workers"]), **options)
        reply(
            (
                "ready",
                worker.wid,
                {"agent": "sandtable-worker", "pid": os.getpid()},
            )
        )
        return worker
