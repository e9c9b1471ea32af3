"""The multi-tenant job service behind ``sandtable serve``.

"Checks as jobs": a thin HTTP front end (stdlib
:class:`http.server.ThreadingHTTPServer` — no new dependencies) over the
durable-run machinery that already exists in :mod:`repro.persist`.  Each
job is one :func:`~repro.persist.runner.run_check` in its own
job-addressed run directory under the service's data dir, executed on a
daemon thread; everything a client can ask for — status, live progress,
the final trace — is served *from the run directory*, so the service
itself holds no state a restart would lose.

Endpoints (JSON unless noted):

* ``POST /jobs`` — ``{"spec": <spec ref>, "config": {...}}`` → ``202``
  with the job record.  Config keys are allowlisted
  (:data:`CONFIG_KEYS`); ``workers`` + ``worker_addrs`` select a
  distributed socket run.
* ``GET /jobs`` — all jobs, newest first.
* ``GET /jobs/<id>`` — one job: run-dir manifest (status, config,
  result) plus service bookkeeping.
* ``GET /jobs/<id>/metrics?offset=N`` — the run's ``metrics.jsonl``
  from byte offset ``N``, complete lines only (``application/x-ndjson``);
  the ``X-Next-Offset`` header says where to poll next.  This is the
  live progress stream.
* ``GET /jobs/<id>/trace`` — the finished violation artifact.
* ``GET /jobs/<id>/coverage`` — the per-action coverage report (text).
* ``GET /healthz`` — liveness probe.
"""

from __future__ import annotations

import json
import pathlib
import re
import secrets
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..obs.metrics import MetricsRegistry
from ..obs.report import METRICS_FILENAME, coverage_from_sink
from ..persist.rundir import RunDir, RunDirError, read_json
from ..persist.runner import VIOLATION_ARTIFACT, run_check
from .specref import SpecRefError, resolve_spec

__all__ = ["CONFIG_KEYS", "JobManager", "JobServer", "serve"]

#: Job-config keys a client may set; everything else is refused so a
#: request cannot smuggle arbitrary kwargs into ``run_check``.
CONFIG_KEYS = frozenset(
    {
        "workers",
        "symmetry",
        "max_states",
        "max_depth",
        "time_budget",
        "stop_on_violation",
        "fast",
        "compiled",
        "checkpoint_every",
        "checkpoint_states",
        "memory_budget",
        "worker_addrs",
    }
)

_JOB_ID = re.compile(r"^job-\d{4}-[0-9a-f]+$")


class JobError(ValueError):
    """A client error: bad spec reference, bad config, unknown job."""


class JobManager:
    """Owns the jobs: directories, worker threads, and status lookups.

    One instance per service; all mutable state is the ``_jobs`` table
    (id → bookkeeping dict) behind one lock, everything else lives in
    the job's run directory.
    """

    def __init__(self, data_dir: Any):
        self.data_dir = pathlib.Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, Any]] = {}
        self._counter = 0
        # Adopt jobs from a previous service life: their run dirs are
        # self-describing, so status survives a restart.
        for path in sorted(self.data_dir.iterdir()) if self.data_dir.exists() else []:
            if path.is_dir() and _JOB_ID.match(path.name):
                self._jobs[path.name] = {"id": path.name, "adopted": True}
                self._counter += 1

    # -- submission ----------------------------------------------------------

    def submit(self, spec_ref: Any, config: Optional[Dict[str, Any]] = None) -> str:
        """Validate, allocate a job id + run dir, and start the run thread."""
        if not isinstance(spec_ref, dict):
            raise JobError("spec must be a spec-reference object")
        try:
            spec = resolve_spec(spec_ref)
        except SpecRefError as exc:
            raise JobError(str(exc)) from exc
        config = dict(config or {})
        unknown = sorted(set(config) - CONFIG_KEYS)
        if unknown:
            raise JobError(
                f"unknown config keys: {', '.join(unknown)};"
                f" allowed: {', '.join(sorted(CONFIG_KEYS))}"
            )
        worker_addrs = config.pop("worker_addrs", None)
        transport = None
        if worker_addrs:
            from .transport import SocketTransport

            transport = SocketTransport(list(worker_addrs), spec_ref)
            config.setdefault("workers", len(worker_addrs))
        with self._lock:
            self._counter += 1
            job_id = f"job-{self._counter:04d}-{secrets.token_hex(4)}"
            record = {"id": job_id, "spec": spec_ref, "adopted": False}
            self._jobs[job_id] = record
        run_dir = self.data_dir / job_id
        thread = threading.Thread(
            target=self._run,
            args=(job_id, spec, spec_ref, run_dir, config, transport),
            name=f"sandtable-{job_id}",
            daemon=True,
        )
        record["thread"] = thread
        thread.start()
        return job_id

    def _run(
        self,
        job_id: str,
        spec: Any,
        spec_ref: Dict[str, Any],
        run_dir: pathlib.Path,
        config: Dict[str, Any],
        transport: Any,
    ) -> None:
        try:
            run_check(
                spec,
                run_dir,
                metrics=MetricsRegistry(),
                transport=transport,
                manifest_extra={"job": {"id": job_id, "spec_ref": spec_ref}},
                **config,
            )
        except Exception:
            # The manifest already says "interrupted"; keep the traceback
            # for GET /jobs/<id> since there is no console to read it on.
            with self._lock:
                record = self._jobs.get(job_id)
                if record is not None:
                    record["error"] = traceback.format_exc()

    # -- lookups -------------------------------------------------------------

    def job_dir(self, job_id: str) -> pathlib.Path:
        with self._lock:
            known = job_id in self._jobs
        if not known:
            raise JobError(f"unknown job {job_id!r}")
        return self.data_dir / job_id

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job record: run-dir manifest + service bookkeeping."""
        path = self.job_dir(job_id)
        out: Dict[str, Any] = {"id": job_id}
        manifest_path = path / RunDir.MANIFEST
        if manifest_path.exists():
            out["manifest"] = read_json(manifest_path)
            out["status"] = out["manifest"].get("status", "unknown")
        else:
            # The thread has not created the run dir yet.
            out["status"] = "starting"
        with self._lock:
            record = self._jobs.get(job_id, {})
            thread = record.get("thread")
            out["running"] = bool(thread is not None and thread.is_alive())
            if "error" in record:
                out["status"] = "error"
                out["error"] = record["error"]
        return out

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            ids = sorted(self._jobs, reverse=True)
        return [self.status(job_id) for job_id in ids]

    def metrics_chunk(self, job_id: str, offset: int) -> Tuple[bytes, int]:
        """``metrics.jsonl`` bytes from ``offset``, complete lines only.

        Returns ``(chunk, next_offset)``; polling with the returned
        offset streams the file as the run appends to it, never serving
        a torn tail line.
        """
        path = self.job_dir(job_id) / METRICS_FILENAME
        if not path.exists():
            return b"", offset
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
        end = chunk.rfind(b"\n")
        if end < 0:
            return b"", offset
        return chunk[: end + 1], offset + end + 1

    def trace(self, job_id: str) -> Dict[str, Any]:
        path = self.job_dir(job_id) / "artifacts" / VIOLATION_ARTIFACT
        if not path.exists():
            raise JobError(
                f"job {job_id} has no violation artifact (status:"
                f" {self.status(job_id).get('status')})"
            )
        return read_json(path)

    def coverage(self, job_id: str) -> str:
        path = self.job_dir(job_id) / METRICS_FILENAME
        if not path.exists():
            raise JobError(f"job {job_id} has no metrics yet")
        return coverage_from_sink(path).render()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Join the job's worker thread (tests and graceful shutdown)."""
        with self._lock:
            thread = self._jobs.get(job_id, {}).get("thread")
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to the :class:`JobManager` on ``server.manager``."""

    server_version = "sandtable"
    protocol_version = "HTTP/1.1"

    # -- helpers -------------------------------------------------------------

    def _send(self, code: int, body: bytes, content_type: str, **headers: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), value)
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, obj: Any, **headers: str) -> None:
        body = (json.dumps(obj, indent=2) + "\n").encode("utf-8")
        self._send(code, body, "application/json", **headers)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def log_message(self, fmt: str, *args: Any) -> None:
        log = getattr(self.server, "log", None)
        if log is not None:
            log(f"{self.address_string()} {fmt % args}")

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        manager: JobManager = self.server.manager  # type: ignore[attr-defined]
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._json(200, {"ok": True})
            elif parts == ["jobs"]:
                self._json(200, {"jobs": manager.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._json(200, manager.status(parts[1]))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "metrics":
                query = parse_qs(url.query)
                try:
                    offset = int(query.get("offset", ["0"])[0])
                except ValueError:
                    self._error(400, "offset must be an integer")
                    return
                manager.job_dir(parts[1])  # raises on unknown job
                chunk, next_offset = manager.metrics_chunk(parts[1], max(0, offset))
                self._send(
                    200,
                    chunk,
                    "application/x-ndjson",
                    X_Next_Offset=str(next_offset),
                )
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                self._json(200, manager.trace(parts[1]))
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "coverage":
                body = manager.coverage(parts[1]).encode("utf-8")
                self._send(200, body + b"\n", "text/plain; charset=utf-8")
            else:
                self._error(404, f"no such endpoint: GET {url.path}")
        except JobError as exc:
            self._error(404, str(exc))
        except (RunDirError, OSError) as exc:
            self._error(500, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        manager: JobManager = self.server.manager  # type: ignore[attr-defined]
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["jobs"]:
            self._error(404, f"no such endpoint: POST {url.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b"{}"
            request = json.loads(raw.decode("utf-8"))
            if not isinstance(request, dict) or "spec" not in request:
                raise JobError('body must be {"spec": <spec ref>, "config": {...}}')
            job_id = manager.submit(request["spec"], request.get("config"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"bad JSON body: {exc}")
            return
        except JobError as exc:
            self._error(400, str(exc))
            return
        self._json(202, manager.status(job_id), Location=f"/jobs/{job_id}")


class JobServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to a :class:`JobManager`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        data_dir: Any,
        log: Any = None,
    ):
        super().__init__(address, _Handler)
        self.manager = JobManager(data_dir)
        self.log = log

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(host: str, port: int, data_dir: Any, log: Any = None) -> JobServer:
    """Bind a :class:`JobServer` (port 0 = ephemeral); caller runs it."""
    return JobServer((host, port), data_dir, log=log)
