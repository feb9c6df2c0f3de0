"""Planner handles: the rule engine in process, or a client of the planning
service (``service.py``) that returns identical answers; and the wire codec
both ends share.

Wire protocol: one request or response per line over TCP. Frames are
canonical JSON (keys sorted, no insignificant whitespace), UTF-8, and end
with a single LF, so equal messages always encode to equal bytes.

    request  {"fact":{"dependent_count":N,"exception_count":N,"kind":"CF1",
              "prior_failures_of_subject":N,"subject":S},
              "request_id":N,"type":"plan_request","version":1}
    response {"outcome":O,"request_id":N,"type":"plan_response","version":1}

with outcome ``{"plan":{"fired_rule":S,"strategy":"AS1","subject":S}}``,
``{"no_match":true}``, or ``{"error":{"code":S,"message":S}}``. The field
tables in ``_BODIES`` are the schema, and the fact's integer fields are
``rules.INT_FIELDS``. At import the tables are compiled into one encoder
and one decoder per message class, so no call walks them again.

The client imports ``socket`` when it first connects, so an in-process run
never loads it.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from enum import EnumMeta
from json.encoder import encode_basestring_ascii as _str
from operator import attrgetter

from .analyzer import FailureReport
from .faults import FaultKind
from .model import Frozen, _set, render_subject
from .rules import INT_FIELDS, Fact, NoMatch, RepairPlan, RuleSet, Strategy, evaluate

PROTOCOL_VERSION = 1
DEFAULT_PORT = 7464
DEFAULT_TIMEOUT = 1.0  # wall-clock seconds per remote round-trip


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


class PlanRequest(Frozen):
    __slots__ = _fields = ("request_id", "fact")

    def __init__(self, request_id: int, fact: Fact) -> None:
        _set(self, "request_id", request_id)
        _set(self, "fact", fact)


class ErrorOutcome(Frozen):
    __slots__ = _fields = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        _set(self, "code", code)
        _set(self, "message", message)


Outcome = RepairPlan | NoMatch | ErrorOutcome


class PlanResponse(Frozen):
    __slots__ = _fields = ("request_id", "outcome")

    def __init__(self, request_id: int, outcome: Outcome) -> None:
        _set(self, "request_id", request_id)
        _set(self, "outcome", outcome)


Message = PlanRequest | PlanResponse


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


# The tables are compiled once, at import, into one encoder and one decoder
# per class. An encoder writes canonical text directly: keys pre-sorted,
# constants pre-written, strings escaped by the escaper ``canonical_json``
# uses, enum members looked up in a member -> text map. A decoder checks a
# parsed JSON value as the tables say, enum values looked up in a value ->
# member map; a field that breaks the table raises MalformedFrame naming it.


def _is_constant(field) -> bool:
    return not (field is str or field is int or isinstance(field, (type, dict)))


def _int(value) -> str:
    if type(value) is not int:  # as in decode, a bool is not an int
        raise TypeError(f"{value!r} is not an int")
    return int.__repr__(value)


def _encoder(kind):
    """value -> its canonical JSON text, for a class or a one-of dict."""
    if isinstance(kind, dict):
        heads = {cls: (f"{{{_str(key)}:", _encoder(cls)) for key, cls in kind.items()}

        def one_of(value):
            head, encode_body = heads[type(value)]
            return head + encode_body(value) + "}"
        return one_of
    body = _BODIES[kind]
    if type(body) is not dict:
        text = _CANONICAL.encode(body)
        return lambda value: text
    parts, fields = [], []
    for key in sorted(body):
        field = body[key]
        if _is_constant(field):
            parts.append(f"{_str(key)}:{_CANONICAL.encode(field)}".replace("%", "%%"))
            continue
        parts.append(_str(key).replace("%", "%%") + ":%s")
        if isinstance(field, EnumMeta):
            convert = {m: _str(m.value) for m in field}.__getitem__
        else:
            convert = _str if field is str else _int if field is int else _encoder(field)
        fields.append((attrgetter(key), convert))
    template = "{" + ",".join(parts) + "}"
    return lambda value: template % tuple([convert(get(value)) for get, convert in fields])


def _decoder(kind):
    """(parsed JSON value, where) -> decoded value, for an Enum, a class or a
    one-of dict; ``where`` names the value in a MalformedFrame message."""
    if isinstance(kind, EnumMeta):
        members = {m.value: m for m in kind}

        def member(value, where):
            try:
                return members[value]
            except (KeyError, TypeError):  # TypeError: an array or an object
                raise MalformedFrame(f"{where} has unknown value {value!r}") from None
        return member
    if isinstance(kind, dict):
        choices = {key: _decoder(cls) for key, cls in kind.items()}

        def one_of(value, where):
            if type(value) is not dict or len(value) != 1 or next(iter(value)) not in kind:
                raise MalformedFrame(f"{where} must hold exactly one of {', '.join(kind)}")
            ((key, body),) = value.items()
            return choices[key](body, f"{where}.{key}")
        return one_of
    body = _BODIES[kind]
    if type(body) is not dict:
        def constant(value, where):
            if value is not body:  # the constant true, not 1 or 1.0
                raise MalformedFrame(f"{where} must be {json.dumps(body)}")
            return kind()
        return constant
    keys = body.keys()
    # Checked in table order, which lists the constants first. A str or int
    # field is checked here; any other field's decoder is called.
    constants = [(key, field) for key, field in body.items() if _is_constant(field)]
    fields = [(key, field, None) if field is str or field is int else (key, None, _decoder(field))
              for key, field in body.items() if not _is_constant(field)]

    def table(obj, where):
        if type(obj) is not dict:
            raise MalformedFrame(f"{where} must be an object")
        if obj.keys() != keys:
            key = min(obj.keys() ^ keys)
            raise MalformedFrame(f"{where} {'is missing' if key in keys else 'has unexpected'} "
                                 f"field {key!r}")
        for key, field in constants:
            value = obj[key]
            if type(value) is not type(field) or value != field:
                raise MalformedFrame(f"{where}.{key} must be {json.dumps(field)}")
        decoded = {}
        for key, exact, decode_field in fields:
            value = obj[key]
            if decode_field is not None:
                value = decode_field(value, f"{where}.{key}")
            elif type(value) is not exact:  # json.loads makes exact types: a bool is no int
                raise MalformedFrame(f"{where}.{key} must be {exact.__name__}")
            decoded[key] = value
        return kind(**decoded)
    return table


_MESSAGES = (PlanRequest, PlanResponse)
_ENCODERS = {cls: _encoder(cls) for cls in _MESSAGES}
_DECODERS = {_BODIES[cls]["type"]: _decoder(cls) for cls in _MESSAGES}


def encode(message: Message) -> bytes:
    """One canonical, LF-terminated frame; equal messages encode identically.
    TypeError if ``message`` is not a message whose fields fit ``_BODIES``."""
    encoder = _ENCODERS.get(type(message))
    if encoder is not None:
        try:
            return (encoder(message) + "\n").encode("ascii")
        except (AttributeError, KeyError, TypeError):
            pass
    raise TypeError(f"not a protocol message: {message!r}")


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
    message_type = obj.get("type")
    decoder = _DECODERS.get(message_type) if type(message_type) is str else None
    if decoder is None:
        raise MalformedFrame(f"unknown message type {message_type!r}")
    return decoder(obj, "frame")


# -- planner handles ---------------------------------------------------------


class InProcessPlanner:
    """Runs the rule engine directly; the transparent twin of RemotePlanner."""

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset

    def plan(self, fact: Fact) -> RepairPlan | NoMatch:
        return evaluate(self.ruleset, fact)

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
        self._sock = None  # a socket once connected; socket is imported at first connect
        self._reader = None
        self._next_request_id = 1

    def _connect(self) -> None:
        if self._sock is not None:
            return
        import socket  # here, not at module level: an in-process run never needs it
        try:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ConnectionFailed(f"cannot reach planner at {self.host}:{self.port}: {exc}") from exc
        self._reader = self._sock.makefile("rb")

    def plan(self, fact: Fact) -> RepairPlan | NoMatch:
        """The service's answer. A connection opened by an earlier call that
        turns out lost (the service closed an idle one, say) is reopened and
        the request sent once more; the service is stateless, so resending
        is safe. A second loss raises ConnectionFailed. A timeout is not
        retried: it closes the connection and raises RequestTimeout."""
        request = PlanRequest(request_id=self._next_request_id, fact=fact)
        self._next_request_id += 1
        frame, retry = encode(request), self._sock is not None
        while True:
            self._connect()
            try:
                self._sock.sendall(frame)
                line = self._reader.readline()
            except TimeoutError as exc:  # socket.timeout's own class since Python 3.10
                self.close()  # its answer may still come; the next request must not read it
                raise RequestTimeout(f"planner did not answer within {self.timeout}s") from exc
            except OSError as exc:  # reset, broken pipe
                lost = f"planner connection lost: {exc}"
            else:
                if line:
                    break
                lost = "planner closed the connection"
            self.close()
            if not retry:
                raise ConnectionFailed(lost)
            retry = False
        try:
            response = decode(line.rstrip(b"\n"))
            if not isinstance(response, PlanResponse):
                raise MalformedFrame("expected a plan_response frame")
            if response.request_id != request.request_id:
                raise RemoteError("protocol", f"response for request {response.request_id}, "
                                              f"expected {request.request_id}")
        except (MalformedFrame, RemoteError):
            self.close()  # out of step with the service; the next request must not read its lines
            raise
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


Planner = InProcessPlanner | RemotePlanner


def fact_from_report(report: FailureReport, prior_failures: int) -> Fact:
    return Fact(
        kind=report.kind,
        subject=render_subject(report.subject),
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
    prior = (history or {}).get(render_subject(report.subject), 0)
    return planner.plan(fact_from_report(report, prior))
