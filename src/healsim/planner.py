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
``{"no_match":true}``, or ``{"error":{"code":S,"message":S}}``. The fact's
integer fields are ``rules.INT_FIELDS``. ``encode`` and ``decode`` are
written out for these two messages; the schema table in
``tests/test_oracles.py`` is their byte and error reference. Neither end
reads a frame longer than ``MAX_FRAME`` bytes, LF included.

The client imports ``socket`` when it first connects, so an in-process run
never loads it.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _str

from .analyzer import FailureReport
from .faults import FaultKind
from .model import Frozen, _set, render_subject
from .rules import INT_FIELDS, Fact, NoMatch, RepairPlan, RuleSet, Strategy, evaluate

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
# encode fills one fixed template per message and outcome, keys in sorted
# order. decode checks a parsed frame in the order of the schema table in
# tests/test_oracles.py: the exact key set, the version, then each field, and
# raises MalformedFrame naming the first that breaks the schema.

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc: object) -> bytes:
    """Sorted keys, compact separators, UTF-8, one LF: equal docs, equal bytes."""
    return _CANONICAL.encode(doc).encode("utf-8") + b"\n"


_REQUEST = ('{"fact":{"dependent_count":%s,"exception_count":%s,"kind":%s,'
            '"prior_failures_of_subject":%s,"subject":%s},"request_id":%s,'
            f'"type":"plan_request","version":{PROTOCOL_VERSION}}}\n')
_RESPONSE = f'{{"outcome":%s,"request_id":%s,"type":"plan_response","version":{PROTOCOL_VERSION}}}\n'
_PLAN = '{"plan":{"fired_rule":%s,"strategy":%s,"subject":%s}}'
_ERROR = '{"error":{"code":%s,"message":%s}}'
_KIND_TEXT = {kind: _str(kind.value) for kind in FaultKind}  # strings escaped as canonical_json does
_STRATEGY_TEXT = {strategy: _str(strategy.value) for strategy in Strategy}


def _int(value) -> str:
    if type(value) is not int:  # as in decode, a bool is not an int
        raise TypeError(f"{value!r} is not an int")
    return int.__repr__(value)


def encode(message: Message) -> bytes:
    """One canonical, LF-terminated frame; equal messages encode identically.
    TypeError if ``message`` is not a message whose fields fit the schema."""
    try:
        if type(message) is PlanRequest:
            fact = message.fact
            return (_REQUEST % (_int(fact.dependent_count), _int(fact.exception_count),
                                _KIND_TEXT[fact.kind], _int(fact.prior_failures_of_subject),
                                _str(fact.subject), _int(message.request_id))).encode("ascii")
        outcome = message.outcome if type(message) is PlanResponse else None
        if type(outcome) is RepairPlan:
            body = _PLAN % (_str(outcome.fired_rule), _STRATEGY_TEXT[outcome.strategy],
                            _str(outcome.subject))
        elif type(outcome) is NoMatch:
            body = '{"no_match":true}'
        elif type(outcome) is ErrorOutcome:
            body = _ERROR % (_str(outcome.code), _str(outcome.message))
        else:
            raise TypeError
        return (_RESPONSE % (body, _int(message.request_id))).encode("ascii")
    except (AttributeError, KeyError, TypeError):
        raise TypeError(f"not a protocol message: {message!r}") from None


_KINDS = {kind.value: kind for kind in FaultKind}
_STRATEGIES = {strategy.value: strategy for strategy in Strategy}


def _object(value, keys: set[str], where: str) -> dict:
    """``value`` if it is a JSON object with exactly ``keys``."""
    if type(value) is not dict:
        raise MalformedFrame(f"{where} must be an object")
    if value.keys() != keys:
        key = min(value.keys() ^ keys)
        raise MalformedFrame(f"{where} {'is missing' if key in keys else 'has unexpected'} "
                             f"field {key!r}")
    return value


def _exact(obj: dict, key: str, kind: type, where: str):
    value = obj[key]
    if type(value) is not kind:  # json.loads makes exact types: a bool is no int
        raise MalformedFrame(f"{where}.{key} must be {kind.__name__}")
    return value


def _member(obj: dict, key: str, members: dict, where: str):
    value = obj[key]
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an array or an object
        raise MalformedFrame(f"{where}.{key} has unknown value {value!r}") from None


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
    if message_type not in ("plan_request", "plan_response"):
        raise MalformedFrame(f"unknown message type {message_type!r}")
    body_key = "fact" if message_type == "plan_request" else "outcome"
    _object(obj, {"type", "version", "request_id", body_key}, "frame")
    if type(obj["version"]) is not int or obj["version"] != PROTOCOL_VERSION:
        raise MalformedFrame(f"frame.version must be {PROTOCOL_VERSION}")
    request_id = _exact(obj, "request_id", int, "frame")
    if body_key == "fact":
        fact = _object(obj["fact"], {"kind", "subject", *INT_FIELDS}, "frame.fact")
        return PlanRequest(request_id, Fact(
            _member(fact, "kind", _KINDS, "frame.fact"), _exact(fact, "subject", str, "frame.fact"),
            **{key: _exact(fact, key, int, "frame.fact") for key in INT_FIELDS}))
    outcome = obj["outcome"]
    if type(outcome) is not dict or len(outcome) != 1 or next(iter(outcome)) not in (
            "plan", "no_match", "error"):
        raise MalformedFrame("frame.outcome must hold exactly one of plan, no_match, error")
    ((key, body),) = outcome.items()
    where = f"frame.outcome.{key}"
    if key == "no_match":
        if body is not True:  # the constant true, not 1 or 1.0
            raise MalformedFrame(f"{where} must be true")
        return PlanResponse(request_id, NoMatch())
    if key == "plan":
        plan = _object(body, {"strategy", "subject", "fired_rule"}, where)
        return PlanResponse(request_id, RepairPlan(
            _member(plan, "strategy", _STRATEGIES, where),
            _exact(plan, "subject", str, where), _exact(plan, "fired_rule", str, where)))
    error = _object(body, {"code", "message"}, where)
    return PlanResponse(request_id, ErrorOutcome(_exact(error, "code", str, where),
                                                 _exact(error, "message", str, where)))


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
                line = self._reader.readline(MAX_FRAME + 1)  # a longer reply is not read whole
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
            if len(line) > MAX_FRAME:
                raise MalformedFrame(f"reply exceeds {MAX_FRAME} bytes")
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
