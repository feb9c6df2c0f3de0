"""Planning service: the rule engine behind a TCP socket, speaking the
protocol of ``planner.py``. Only ``healsim serve-planner`` and the tests
import this module, so ``import healsim`` loads no server code.

A frame the server cannot decode is answered with an error outcome (code
"malformed", request id 0 when unrecoverable) and the connection stays
open. A line longer than ``MAX_FRAME`` bytes is answered with error code
"too_large" (request id 0) and the connection is closed. The service serves
at most ``MAX_CONNECTIONS`` connections at once: one more is answered with
error code "busy" (request id 0) and closed, with no thread started for it.
A connection that does not complete a frame, or take in a response, within
``IDLE_TIMEOUT`` seconds is closed.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time

from .planner import DEFAULT_PORT, MAX_FRAME, ErrorOutcome, InProcessPlanner, MalformedFrame
from .planner import PlanRequest, PlanResponse, decode, encode
from .rules import RuleSet

log = logging.getLogger(__name__)

MAX_CONNECTIONS = 64  # served at once; one more is answered "busy" and closed
IDLE_TIMEOUT = 30.0  # seconds a connection has to complete its next frame or take a reply


def _best_effort_request_id(line: bytes) -> int:
    try:
        rid = json.loads(line.decode("utf-8"))["request_id"]
    except Exception:
        return 0
    return rid if type(rid) is int else 0


class _PlanHandler(socketserver.BaseRequestHandler):
    """Serves one connection. The socket's timeout is IDLE_TIMEOUT, for the
    next frame to begin and for each response to be taken in, except while
    a frame is partly in: then it is what is left of that frame's time."""

    def handle(self) -> None:
        self.request.settimeout(IDLE_TIMEOUT)
        for line in self._lines():
            if len(line) > MAX_FRAME:
                too_large = ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes")
                self._send(PlanResponse(0, too_large))
                return
            try:
                message = decode(line.rstrip(b"\n"))
                if not isinstance(message, PlanRequest):
                    raise MalformedFrame("server expects plan_request frames")
            except MalformedFrame as exc:
                malformed = ErrorOutcome("malformed", str(exc))
                response = PlanResponse(_best_effort_request_id(line), malformed)
            else:
                response = PlanResponse(message.request_id, self.server.planner.plan(message.fact))
            if not self._send(response):
                return

    def _send(self, response: PlanResponse) -> bool:
        """Send one frame; False, after logging, if the client does not take
        it in within IDLE_TIMEOUT or is gone."""
        try:
            self.request.sendall(encode(response))
        except OSError as exc:
            log.info("closing %s:%d: cannot send: %s", *self.client_address[:2], exc)
            return False
        return True

    def _lines(self):
        """Each line the client sends, LF included, as soon as it is complete;
        the bytes before EOF count as a last line. A line with no LF in its
        first MAX_FRAME bytes comes out longer than MAX_FRAME. Ends at EOF,
        or when IDLE_TIMEOUT passes without a complete line. Each byte
        received is searched and copied once."""
        sock = self.request
        partial, size = [], 0  # chunks of the line not yet complete
        deadline = time.monotonic() + IDLE_TIMEOUT
        while True:
            try:
                chunk = sock.recv(MAX_FRAME)
            except socket.timeout:
                log.info("closing %s:%d: no complete frame in %ss",
                         *self.client_address[:2], IDLE_TIMEOUT)
                return
            except OSError as exc:  # reset by the client, say
                log.info("closing %s:%d: cannot receive: %s", *self.client_address[:2], exc)
                return
            if not chunk:
                if partial:
                    yield b"".join(partial)
                return
            if partial:  # the timeout was cut to the line's deadline
                sock.settimeout(IDLE_TIMEOUT)
            start = 0
            while end := chunk.find(b"\n", start) + 1:
                partial.append(chunk[start:end])
                yield b"".join(partial)
                partial, size, start = [], 0, end
                deadline = time.monotonic() + IDLE_TIMEOUT
            if start < len(chunk):
                partial.append(chunk[start:])
                size += len(chunk) - start
                if size > MAX_FRAME:
                    yield b"".join(partial)
                    return
                sock.settimeout(max(deadline - time.monotonic(), 1e-6))


class _PlanServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.connections = 0  # being served, at most MAX_CONNECTIONS
        self._count_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._count_lock:
            busy = self.connections >= MAX_CONNECTIONS
            self.connections += not busy
        if busy:
            busy_error = ErrorOutcome("busy", f"serving {MAX_CONNECTIONS} connections already")
            try:
                request.sendall(encode(PlanResponse(0, busy_error)))
            except OSError:  # the client is gone already; close all the same
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)  # starts the handler thread
        except BaseException:
            self._release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._release()

    def _release(self) -> None:
        with self._count_lock:
            self.connections -= 1


class PlanService:
    """TCP planning service. Stateless across requests: every response is a
    pure function of (ruleset, request). Rules are loaded once at start;
    changing them means restarting the service."""

    def __init__(self, ruleset: RuleSet, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        try:
            self._server = _PlanServer((host, port), _PlanHandler)
        except OSError as exc:
            raise OSError(f"cannot bind {host}:{port}: {exc}") from exc
        self._server.planner = InProcessPlanner(ruleset)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "PlanService":
        """Serve on a background thread; returns self once accepting."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        log.info("plan service listening on %s:%d", *self.address)
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
