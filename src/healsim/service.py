"""Planning service: the rule engine behind a TCP socket, speaking the
protocol of ``planner.py``. Only ``healsim serve-planner`` and the tests
import this module, so ``import healsim`` loads no server code.

A request in ``planner.decode``'s one-match layout of a kind in
``RuleSet.settled`` is answered by splicing its subject and id into that
kind's reply frame, made at start; any other is read with ``decode`` and
answered with ``encode`` of ``evaluate``. Either way the reply is
``encode(request_id, evaluate(ruleset, fact))``, byte for byte. A request
that one ``recv`` brings in whole is matched as the bytes that read
returned, and the handler's loop sends its reply with one ``send``. A frame
the server cannot decode is answered with an error outcome (code
"malformed", request id 0 when unrecoverable) and the connection stays open,
as it does after a plan whose frame would pass ``MAX_FRAME`` bytes, answered
with error code "too_large" under the request's id. Frames are read with
``planner.lines``, the client's reader too: a line longer than ``MAX_FRAME``
bytes is held to its first ``MAX_FRAME + 1`` bytes, answered with error code
"too_large" (request id 0), and the connection is closed. The service serves
at most ``MAX_CONNECTIONS`` connections at once: one more is answered with
error code "busy" (request id 0) and closed, with no thread started for it.
A connection that does not complete a frame, or take in a response, within
``IDLE_TIMEOUT`` seconds is closed; its socket is blocking, as on the
client, with the kernel keeping each read's deadline (``planner.lines``) and
``planner.sender`` each response's.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import socketserver
import threading

from .faults import FaultKind
from .planner import _NO_MATCH_FRAME, _PLAN_FRAME, _STRATEGY_TEXT, DEFAULT_PORT, MAX_FRAME
from .planner import ErrorOutcome, MalformedFrame, _layout, _str, decode, encode, lines, sender
from .rules import Fact, NoMatch, RuleSet, evaluate

log = logging.getLogger(__name__)

MAX_CONNECTIONS = 64  # served at once; one more is answered "busy" and closed
IDLE_TIMEOUT = 30.0  # seconds a connection has to complete its next frame or take a reply


def _best_effort_request_id(line: bytes) -> int:
    try:
        rid = json.loads(line.decode("utf-8"))["request_id"]
    except Exception:
        return 0
    return rid if type(rid) is int else 0


def _reply_frames(ruleset: RuleSet) -> dict[bytes, bytes]:
    """By each settled kind's value, ``encode``'s reply to it with holes for the
    subject's JSON text ("%.0s" in a no_match drops it) and the request id."""
    return {kind.value.encode(): (
        _NO_MATCH_FRAME % "%.0s%d" if type(answer) is NoMatch else _PLAN_FRAME % (
            _str(answer.name).replace("%", "%%"), _STRATEGY_TEXT[id(answer.strategy)],
            '"%s"', "%d")).encode("ascii")
        for kind in FaultKind if (answer := ruleset.settled.get(id(kind))) is not None}


class _PlanHandler(socketserver.BaseRequestHandler):
    """Serves one connection, reading its frames with ``planner.lines`` and
    sending its responses with ``planner.sender``. Each frame has
    IDLE_TIMEOUT seconds to come in whole, counted from when the last
    response was sent, and each response as long to be taken in whole."""

    def handle(self) -> None:
        send, request_layout = sender(self.request, IDLE_TIMEOUT), _layout(True)
        try:
            for line in lines(self.request, IDLE_TIMEOUT):
                if len(line) > MAX_FRAME:  # lines gives no line after it: the connection closes
                    frame = encode(0, ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes"))
                elif (match := request_layout.fullmatch(line)) and (
                        reply := self.server.replies.get(match[3])):  # a settled kind
                    request_id = int(match[6])
                    frame = reply % (match[5], request_id)  # the subject's text is its JSON text
                else:
                    try:
                        request_id, fact = decode(line)
                        if type(fact) is not Fact:
                            raise MalformedFrame("server expects plan_request frames")
                    except MalformedFrame as exc:
                        malformed = ErrorOutcome("malformed", str(exc))
                        frame = encode(_best_effort_request_id(line), malformed)
                    else:
                        frame = encode(request_id, evaluate(self.server.ruleset, fact))
                if len(frame) > MAX_FRAME:  # only a plan, which echoes the subject and rule name
                    frame = encode(request_id, ErrorOutcome(
                        "too_large", f"reply exceeds {MAX_FRAME} bytes"))
                try:
                    send(frame)
                except OSError as exc:  # TimeoutError among them
                    log.info("closing %s:%d: cannot send: %s", *self.client_address[:2], exc)
                    return
        except TimeoutError:
            log.info("closing %s:%d: no complete frame in %ss", *self.client_address[:2],
                     IDLE_TIMEOUT)
        except OSError as exc:  # reset by the client, say; a send failure is caught above
            log.info("closing %s:%d: cannot receive: %s", *self.client_address[:2], exc)


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
                request.sendall(encode(0, busy_error))
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
    pure function of (ruleset, request). Rules load, and the settled kinds'
    reply frames are made, once, at start. ``shutdown``
    wakes the accept loop with no poll, and returns at once if it ended or never ran."""

    def __init__(self, ruleset: RuleSet, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        try:
            self._server = _PlanServer((host, port), _PlanHandler)
        except OSError as exc:
            raise OSError(f"cannot bind {host}:{port}: {exc}") from exc
        self._server.ruleset, self._server.replies = ruleset, _reply_frames(ruleset)
        self._thread: threading.Thread | None = None
        self._wake, self._woken = socket.socketpair()  # shutdown closes _wake: _woken reads EOF

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
        with selectors.DefaultSelector() as selector:
            selector.register(self._server, selectors.EVENT_READ)
            selector.register(self._woken, selectors.EVENT_READ, "woken")
            while not any(key.data for key, _ in selector.select()):
                self._server._handle_request_noblock()  # accepts, and starts a handler thread

    def shutdown(self) -> None:
        self._wake.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server.server_close()
        self._woken.close()
