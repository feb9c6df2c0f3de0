"""Planning service: the rule engine behind a socket, plus an in-process
twin that returns identical answers.

Wire protocol: one request or response per line over TCP. Frames are
canonical JSON (keys sorted, no insignificant whitespace), UTF-8, and end
with a single LF, so equal messages always encode to equal bytes.

    request  {"fact":{"dependent_count":N,"exception_count":N,"kind":"CF1",
              "prior_failures_of_subject":N,"subject":S},
              "request_id":N,"type":"plan_request","version":1}
    response {"outcome":O,"request_id":N,"type":"plan_response","version":1}

with outcome ``{"plan":{"fired_rule":S,"strategy":"AS1","subject":S}}``,
``{"no_match":true}``, or ``{"error":{"code":S,"message":S}}``. The field
tables in ``_BODIES`` are the schema: encode and decode both read them, and
the fact's integer fields are ``rules.INT_FIELDS``.

A frame the server cannot decode is answered with an error outcome (code
"malformed", request id 0 when unrecoverable) and the connection stays
open. A line longer than ``MAX_FRAME`` bytes is answered with error code
"too_large" (request id 0) and the connection is closed.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from dataclasses import dataclass
from enum import EnumMeta
from typing import Mapping, Union

from .analyzer import FailureReport
from .faults import FaultKind
from .rules import INT_FIELDS, Fact, NoMatchingRule, RepairPlan, RuleSet, Strategy, evaluate

log = logging.getLogger(__name__)

PROTOCOL_VERSION = 1
DEFAULT_PORT = 7464
DEFAULT_TIMEOUT = 1.0  # wall-clock seconds per remote round-trip
MAX_FRAME = 64 * 1024  # bytes per frame, LF included; longer ones end the connection


class MalformedFrame(Exception):
    """Bytes on the wire that do not form a valid protocol message."""


class ConnectionFailed(Exception):
    """The planning service could not be reached."""


class RequestTimeout(Exception):
    """The planning service did not answer within the timeout."""


class RemoteError(Exception):
    """The planning service answered with an error outcome."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class PlanRequest:
    request_id: int
    fact: Fact


@dataclass(frozen=True)
class NoMatch:
    """Outcome marker: the rule base cannot handle this failure."""


@dataclass(frozen=True)
class ErrorOutcome:
    code: str
    message: str


Outcome = Union[RepairPlan, NoMatch, ErrorOutcome]


@dataclass(frozen=True)
class PlanResponse:
    request_id: int
    outcome: Outcome


Message = Union[PlanRequest, PlanResponse]


# -- framing ----------------------------------------------------------------
# These tables are the schema; encode and decode both walk them. Each maps a
# field to its kind: str or int (a JSON string or integer, never a bool), an
# Enum (a string naming a member), a class (an object per that class's table),
# a dict (an object holding exactly one of its keys, with that key's kind), or
# a constant the field must equal, type included. NoMatch's body is ``true``.

_BODIES: dict[type, object] = {
    PlanRequest: {"type": "plan_request", "version": PROTOCOL_VERSION,
                  "request_id": int, "fact": Fact},
    PlanResponse: {"type": "plan_response", "version": PROTOCOL_VERSION, "request_id": int,
                   "outcome": {"plan": RepairPlan, "no_match": NoMatch, "error": ErrorOutcome}},
    Fact: {"kind": FaultKind, "subject": str, **dict.fromkeys(INT_FIELDS, int)},
    RepairPlan: {"strategy": Strategy, "subject": str, "fired_rule": str},
    NoMatch: True,
    ErrorOutcome: {"code": str, "message": str},
}
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc: object) -> bytes:
    """Sorted keys, compact separators, UTF-8, one LF: equal docs, equal bytes."""
    return _CANONICAL.encode(doc).encode("utf-8") + b"\n"


def _json(value, kind):
    """The JSON form of ``value``, whose kind is a class or a dict."""
    if isinstance(kind, dict):
        for key, cls in kind.items():
            if type(value) is cls:
                return {key: _json(value, cls)}
        raise TypeError(f"not an outcome: {value!r}")
    body = _BODIES[kind]
    if type(body) is not dict:
        return body
    obj = {}
    for key, field in body.items():
        if field is str or field is int:
            obj[key] = getattr(value, key)
        elif isinstance(field, EnumMeta):
            obj[key] = getattr(value, key).value
        elif isinstance(field, (type, dict)):
            obj[key] = _json(getattr(value, key), field)
        else:
            obj[key] = field
    return obj


def encode(message: Message) -> bytes:
    """One canonical, LF-terminated frame; equal messages encode identically."""
    if type(message) not in (PlanRequest, PlanResponse):
        raise TypeError(f"not a protocol message: {message!r}")
    return canonical_json(_json(message, type(message)))


def _fields(obj, table: dict, where: str) -> dict:
    """The decoded fields of ``obj``, a JSON object that must hold exactly
    the table's keys. Constant fields are checked and left out."""
    if type(obj) is not dict:
        raise MalformedFrame(f"{where} must be an object")
    if obj.keys() != table.keys():
        key = min(obj.keys() ^ table.keys())
        raise MalformedFrame(f"{where} {'is missing' if key in table else 'has unexpected'} "
                             f"field {key!r}")
    fields = {}
    for key, kind in table.items():
        value = obj[key]
        if kind is str or kind is int:
            # json.loads makes exact types, so a bool never passes as an int
            if type(value) is not kind:
                raise MalformedFrame(f"{where}.{key} must be {kind.__name__}")
            fields[key] = value
        elif isinstance(kind, EnumMeta):
            try:
                fields[key] = kind(value)
            except ValueError:
                raise MalformedFrame(f"{where}.{key} has unknown value {value!r}") from None
        elif isinstance(kind, (type, dict)):
            fields[key] = _value(value, kind, f"{where}.{key}")
        elif type(value) is not type(kind) or value != kind:
            raise MalformedFrame(f"{where}.{key} must be {json.dumps(kind)}")
    return fields


def _value(value, kind, where: str):
    """``value``, whose kind is a class or a dict, checked and decoded."""
    if isinstance(kind, dict):
        if type(value) is not dict or len(value) != 1 or next(iter(value)) not in kind:
            raise MalformedFrame(f"{where} must hold exactly one of {', '.join(kind)}")
        ((key, body),) = value.items()
        return _value(body, kind[key], f"{where}.{key}")
    body = _BODIES[kind]
    if type(body) is dict:
        return kind(**_fields(value, body, where))
    if value is not body:  # the constant true, not 1 or 1.0
        raise MalformedFrame(f"{where} must be {json.dumps(body)}")
    return kind()


def decode(data: bytes) -> Message:
    """Parse one frame back into a message; MalformedFrame if it breaks the schema."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"frame is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer over the digit limit, deep nesting
        raise MalformedFrame(f"frame is not JSON: {exc}") from exc
    if type(obj) is not dict:
        raise MalformedFrame("frame is not a JSON object")
    for cls in (PlanRequest, PlanResponse):
        if obj.get("type") == _BODIES[cls]["type"]:
            return cls(**_fields(obj, _BODIES[cls], "frame"))
    raise MalformedFrame(f"unknown message type {obj.get('type')!r}")


# -- service ----------------------------------------------------------------


def _best_effort_request_id(line: bytes) -> int:
    try:
        rid = json.loads(line.decode("utf-8"))["request_id"]
    except Exception:
        return 0
    return rid if type(rid) is int else 0


class _PlanHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while line := self.rfile.readline(MAX_FRAME + 1):
            if len(line) > MAX_FRAME:
                too_large = ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes")
                self.wfile.write(encode(PlanResponse(0, too_large)))
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
            self.wfile.write(encode(response))


class _PlanServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


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


# -- planner handles ---------------------------------------------------------


class InProcessPlanner:
    """Runs the rule engine directly; the transparent twin of RemotePlanner."""

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset

    def plan(self, fact: Fact) -> RepairPlan | NoMatch:
        try:
            return evaluate(self.ruleset, fact)
        except NoMatchingRule:
            return NoMatch()

    def close(self) -> None:
        pass


class RemotePlanner:
    """One request/response round-trip per fact over a persistent TCP
    connection. Returns exactly what InProcessPlanner would for the same
    rules and fact."""

    def __init__(self, host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._reader = None
        self._next_request_id = 1

    def _connect(self) -> None:
        if self._sock is not None:
            return
        try:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ConnectionFailed(f"cannot reach planner at {self.host}:{self.port}: {exc}") from exc
        self._reader = self._sock.makefile("rb")

    def plan(self, fact: Fact) -> RepairPlan | NoMatch:
        self._connect()
        request = PlanRequest(request_id=self._next_request_id, fact=fact)
        self._next_request_id += 1
        try:
            self._sock.sendall(encode(request))
            line = self._reader.readline()
        except socket.timeout as exc:
            raise RequestTimeout(f"planner did not answer within {self.timeout}s") from exc
        except OSError as exc:
            raise ConnectionFailed(f"planner connection lost: {exc}") from exc
        if not line:
            raise ConnectionFailed("planner closed the connection")
        response = decode(line.rstrip(b"\n"))
        if not isinstance(response, PlanResponse):
            raise MalformedFrame("expected a plan_response frame")
        if response.request_id != request.request_id:
            raise RemoteError("protocol", f"response for request {response.request_id}, "
                                          f"expected {request.request_id}")
        if isinstance(response.outcome, ErrorOutcome):
            raise RemoteError(response.outcome.code, response.outcome.message)
        return response.outcome

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None


Planner = Union[InProcessPlanner, RemotePlanner]


def fact_from_report(report: FailureReport, prior_failures: int) -> Fact:
    return Fact(
        kind=report.kind,
        subject=report.render_subject(),
        exception_count=report.exception_count,
        dependent_count=len(report.dependent_slots),
        prior_failures_of_subject=prior_failures,
    )


def request_plan(
    planner: Planner,
    report: FailureReport,
    history: Mapping[str, int] | None = None,
) -> RepairPlan | NoMatch:
    """Ask a planner for the repair of one failure report. ``history`` maps
    subject strings to how many times they have already failed this run."""
    prior = (history or {}).get(report.render_subject(), 0)
    return planner.plan(fact_from_report(report, prior))
