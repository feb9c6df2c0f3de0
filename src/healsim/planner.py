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
integer fields are ``rules.INT_FIELDS``.

The codec is one writer and one reader, and both ends write and read every
frame through them: ``encode(request_id, body)`` and ``decode(frame)``, which
returns ``(request_id, body)``. The body is a ``Fact`` for a request and a
``RepairPlan``, ``NoMatch`` or ``ErrorOutcome`` for a response. ``encode``
fills one fixed template per body type. ``decode`` first tries one bytes
pattern per direction, compiled on first use: the layout ``encode`` gives a
request, or a plan or no_match response. Any other frame, an error outcome
included, gets the full check, so the accepted frames and the
``MalformedFrame`` texts are those of the full check. The schema table in
``tests/test_oracles.py`` is their byte and error reference, and every
frame must equal ``canonical_json`` there, the ``json`` encoder with sorted
keys and compact separators; like the report writer, the codec writes its
text directly and calls no ``json`` encoder. Both ends check
a line's length before they decode it, and both read frames with ``lines``:
of a line with no LF in its first ``MAX_FRAME`` bytes, neither reads or
holds more than ``MAX_FRAME + 1`` bytes, and then it closes the connection.
A frame that one read brings in whole is matched as the bytes that read
returned, with no copy.

Both ends run their sockets in blocking mode, so a frame is sent and a
reply read with one system call each and no ``poll`` before it: the kernel
keeps each read's deadline (``lines``), and ``sender`` waits under a
Python-level timeout only for what a first, non-waiting send leaves. The
client imports ``socket`` when it first connects, and ``struct`` to set a
deadline, so an in-process run loads neither.
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii as _str
from time import monotonic

from .analyzer import FailureReport
from .faults import FaultKind
from .model import Frozen, render_subject
from .rules import INT_FIELDS, Fact, NoMatch, RepairPlan, RuleSet, Strategy, evaluate

PROTOCOL_VERSION = 1
DEFAULT_PORT = 7464
DEFAULT_TIMEOUT = 1.0  # seconds to connect, to send a whole request, to read a whole reply;
# the kernel keeps the last deadline (SO_RCVTIMEO, see lines), sender the one before
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


class ErrorOutcome(Frozen):
    __slots__ = _fields = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        set_code, set_message = self._setters
        set_code(self, code)
        set_message(self, message)


# -- framing ----------------------------------------------------------------
# encode fills one fixed template per body type, keys in sorted order. The
# full check of decode checks a parsed frame in the order of the schema table
# in tests/test_oracles.py: the exact key set, the version, then each field,
# and raises MalformedFrame naming the first that breaks the schema.

_REQUEST = ('{"fact":{"dependent_count":%s,"exception_count":%s,"kind":%s,'
            '"prior_failures_of_subject":%s,"subject":%s},"request_id":%s,'
            f'"type":"plan_request","version":{PROTOCOL_VERSION}}}\n')
_RESPONSE = f'{{"outcome":%s,"request_id":%s,"type":"plan_response","version":{PROTOCOL_VERSION}}}\n'
_PLAN = '{"plan":{"fired_rule":%s,"strategy":%s,"subject":%s}}'
_NO_MATCH = '{"no_match":true}'
_PLAN_FRAME, _NO_MATCH_FRAME = (_RESPONSE % (body, "%s") for body in (_PLAN, _NO_MATCH))
_ERROR_FRAME = _RESPONSE % ('{"error":{"code":%s,"message":%s}}', "%s")
# Keyed by each member's id, which stays its own while its class lives: a
# lookup by the member would call the Python-level Enum.__hash__ on every
# frame, and one by its value would take another enum's member of that value.
_KIND_TEXT = {id(kind): _str(kind.value) for kind in FaultKind}  # escaped as json escapes it
_STRATEGY_TEXT = {id(strategy): _str(strategy.value) for strategy in Strategy}


def encode(request_id: int, body: Fact | RepairPlan | NoMatch | ErrorOutcome) -> bytes:
    """One canonical, LF-terminated frame: a request for a Fact body, else a
    response; equal arguments encode identically. An error message is cut
    short so that its frame fits in MAX_FRAME. TypeError if the arguments do
    not fit the schema."""
    try:
        if type(body) is Fact:
            dependent, exceptions = body.dependent_count, body.exception_count
            prior = body.prior_failures_of_subject
            if not type(dependent) is type(exceptions) is type(prior) is type(request_id) is int:
                raise TypeError  # as in decode, a bool is not an int
            frame = _REQUEST % (dependent, exceptions, _KIND_TEXT[id(body.kind)], prior,
                                _str(body.subject), request_id)
        elif type(request_id) is not int:
            raise TypeError
        elif type(body) is RepairPlan:
            frame = _PLAN_FRAME % (_str(body.fired_rule), _STRATEGY_TEXT[id(body.strategy)],
                                   _str(body.subject), request_id)
        elif type(body) is NoMatch:
            frame = _NO_MATCH_FRAME % request_id
        elif type(body) is ErrorOutcome:
            code, message = _str(body.code), body.message
            frame = _ERROR_FRAME % (code, _str(message), request_id)
            if len(frame) > MAX_FRAME:  # cut at 12 bytes a character, the longest escape
                room = MAX_FRAME - len(_ERROR_FRAME % (code, '""', request_id))
                frame = _ERROR_FRAME % (code, _str(message[:max(room // 12, 0)]), request_id)
        else:
            raise TypeError
        return frame.encode("ascii")
    except (KeyError, TypeError):
        raise TypeError(f"not a protocol message: {(request_id, body)!r}") from None


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


# decode's one-match layouts, built from encode's templates, LF optional: each
# string printable ASCII without '"' or '\\', so its JSON text is its value;
# each integer at most 18 digits; each enum value a member.
_STR = '"([ !#-\\[\\]-~]*)"'
_INT = "(-?(?:0|[1-9][0-9]{0,17}))"
_LAYOUTS: dict[bool, re.Pattern[bytes]] = {}  # is a request -> its pattern
_MEMBERS = {member.value.encode(): member for member in (*FaultKind, *Strategy)}


def _layout(request: bool) -> re.Pattern[bytes]:
    if (pattern := _LAYOUTS.get(request)) is None:
        kind, strategy = (f'"({"|".join(map(re.escape, names))})"'
                          for names in (_KINDS, _STRATEGIES))
        if request:
            layout = re.escape(_REQUEST) % (_INT, _INT, kind, _INT, _STR, _INT)
        else:
            plan = re.escape(_PLAN) % (_STR, strategy, _STR)
            layout = re.escape(_RESPONSE) % (f"(?:{plan}|{re.escape(_NO_MATCH)})", _INT)
        pattern = _LAYOUTS[request] = re.compile(layout.replace("\\\n", "\n?").encode())
    return pattern


def decode(data: bytes) -> tuple[int, Fact | RepairPlan | NoMatch | ErrorOutcome]:
    """``(request_id, body)`` of one frame, its LF optional, as ``encode``
    takes them; MalformedFrame if it breaks the schema. A canonical frame
    takes one match; any other gets the full check, without its LF."""
    if data[2:3] == b"f":
        if match := _layout(True).fullmatch(data):
            dependent, exceptions, kind, prior, subject, request_id = match.groups()
            return int(request_id), Fact(_MEMBERS[kind], subject.decode("ascii"),
                                         int(exceptions), int(dependent), int(prior))
    elif match := _layout(False).fullmatch(data):
        fired_rule, strategy, subject, request_id = match.groups()
        return int(request_id), NoMatch() if subject is None else RepairPlan(
            _MEMBERS[strategy], subject.decode("ascii"), fired_rule.decode("ascii"))
    try:
        text = data.removesuffix(b"\n").decode("utf-8")
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
        return request_id, Fact(
            _member(fact, "kind", _KINDS, "frame.fact"), _exact(fact, "subject", str, "frame.fact"),
            **{key: _exact(fact, key, int, "frame.fact") for key in INT_FIELDS})
    outcome = obj["outcome"]
    if type(outcome) is not dict or len(outcome) != 1 or next(iter(outcome)) not in (
            "plan", "no_match", "error"):
        raise MalformedFrame("frame.outcome must hold exactly one of plan, no_match, error")
    ((key, body),) = outcome.items()
    where = f"frame.outcome.{key}"
    if key == "no_match":
        if body is not True:  # the constant true, not 1 or 1.0
            raise MalformedFrame(f"{where} must be true")
        return request_id, NoMatch()
    if key == "plan":
        plan = _object(body, {"strategy", "subject", "fired_rule"}, where)
        return request_id, RepairPlan(
            _member(plan, "strategy", _STRATEGIES, where),
            _exact(plan, "subject", str, where), _exact(plan, "fired_rule", str, where))
    error = _object(body, {"code", "message"}, where)
    return request_id, ErrorOutcome(_exact(error, "code", str, where),
                                    _exact(error, "message", str, where))


def _set_recv_timeout(sock, seconds: float) -> None:
    """Set the kernel receive deadline (SO_RCVTIMEO) of the blocking ``sock``
    to ``seconds``, packed as the platform takes it: a DWORD of milliseconds
    on Windows, elsewhere a ``struct timeval``. Never to zero, which the
    kernel reads as no deadline."""
    import socket  # loaded already: the caller holds a socket
    import struct  # here, not at module level: an in-process run never needs it
    if sys.platform == "win32":
        value = struct.pack("@L", max(round(seconds * 1000), 1))
    else:
        value = struct.pack("@ll", *divmod(max(round(seconds * 1_000_000), 1), 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, value)


def lines(sock, timeout: float):
    """Each line read from ``sock``, LF included, as soon as it is complete;
    the bytes before EOF count as a last line. A line with no LF in its first
    MAX_FRAME bytes comes out as exactly MAX_FRAME + 1 bytes, and is the last:
    no ``recv`` asks for more than the line's MAX_FRAME + 1 bytes still lack.
    ``sock`` is blocking (see ``sender``), so each read is one system call,
    and the kernel keeps its deadline (SO_RCVTIMEO), which this sets. The
    reads of one line share ``timeout`` seconds, counted from when the line
    is asked for: a read after a line's first waits only what is left, and
    once it returns the deadline is ``timeout`` again. A read that starts a
    line and holds exactly one LF, at its end, is that line: it is searched
    once and passed on as it is. Any other read is searched and copied once.
    A deadline that runs out raises TimeoutError; other OSErrors go to the
    caller too."""
    held, size = [], 0  # the bytes of the line not yet complete, and how many
    _set_recv_timeout(sock, timeout)
    deadline = monotonic() + timeout
    while True:
        try:
            if size:  # wait only what is left of the line's time
                _set_recv_timeout(sock, max(deadline - monotonic(), 1e-6))
            chunk = sock.recv(MAX_FRAME + 1 - size)
        except BlockingIOError as exc:  # a kernel timeout is EAGAIN on POSIX
            raise TimeoutError("timed out") from exc
        if size:
            _set_recv_timeout(sock, timeout)
        elif chunk and chunk.find(b"\n") == len(chunk) - 1:  # one whole line
            yield chunk
            if len(chunk) > MAX_FRAME:
                return
            deadline = monotonic() + timeout
            continue
        if not chunk:
            if size:
                yield b"".join(held)
            return
        start = 0
        while end := chunk.find(b"\n", start) + 1:
            held.append(chunk[start:end])
            size += end - start
            yield b"".join(held)
            if size > MAX_FRAME:
                return
            held, size, start = [], 0, end
            deadline = monotonic() + timeout
        if start < len(chunk):
            held.append(chunk[start:])
            size += len(chunk) - start
            if size > MAX_FRAME:
                yield b"".join(held)
                return


def sender(sock, timeout: float):
    """The function that sends all of a frame on ``sock`` within ``timeout``
    seconds, made once per connection: the twin of ``lines``. It makes
    ``sock`` blocking, so that no send or recv polls first. A frame's first
    ``send`` never waits (MSG_DONTWAIT) and, with room in the buffer, sends
    it all; the rest is sent under a Python-level timeout, which, unlike a
    kernel send deadline, bounds all of it on every kernel. Windows has no
    MSG_DONTWAIT, so there a whole frame takes that way. TimeoutError and
    other OSErrors go to the caller."""
    import socket  # loaded already: the caller holds a socket
    dontwait = getattr(socket, "MSG_DONTWAIT", 0)
    sock.settimeout(None)

    def send_all(data: bytes) -> None:
        sent = 0
        if dontwait:
            try:
                sent = sock.send(data, dontwait)
            except BlockingIOError:  # not a byte of room
                pass
        if sent < len(data):
            sock.settimeout(timeout)
            try:
                sock.sendall(memoryview(data)[sent:])
            finally:
                sock.settimeout(None)
    return send_all


# -- planner handles ---------------------------------------------------------


class InProcessPlanner:
    """Runs the rule engine directly; the transparent twin of RemotePlanner.
    ``settled`` is the rule set's ``RuleSet.settled``: ``request_plan``
    answers a kind it holds with no Fact built."""

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset
        self.settled = ruleset.settled

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
        self._reader = None  # lines(self._sock, timeout) once connected
        self._send = None  # sender(self._sock, timeout) once connected
        self._next_request_id = 1

    def _connect(self) -> None:
        import socket  # here, not at module level: an in-process run never needs it
        try:  # once per connection, so under a Python-level timeout; then blocking
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ConnectionFailed(f"cannot reach planner at {self.host}:{self.port}: {exc}") from exc
        self._reader = lines(self._sock, self.timeout)
        self._send = sender(self._sock, self.timeout)

    def plan(self, fact: Fact) -> RepairPlan | NoMatch:
        """The service's answer. A connection opened by an earlier call that
        turns out lost (the service closed an idle one, say) is reopened and
        the request sent once more; the service is stateless, so resending
        is safe. A second loss raises ConnectionFailed. A timeout is not
        retried: it closes the connection and raises RequestTimeout."""
        request_id = self._next_request_id
        self._next_request_id += 1
        frame, retry = encode(request_id, fact), self._sock is not None
        while True:
            if self._sock is None:
                self._connect()
            try:
                self._send(frame)
                line = next(self._reader, b"")
            except TimeoutError as exc:
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
            echoed, outcome = decode(line)
            if type(outcome) is Fact:
                raise MalformedFrame("expected a plan_response frame")
            if echoed != request_id:
                raise RemoteError("protocol", f"response for request {echoed}, expected {request_id}")
            if type(outcome) is RepairPlan and outcome.subject != fact.subject:
                raise RemoteError("protocol", f"plan for subject {outcome.subject!r}, "
                                              f"expected {fact.subject!r}")
        except (MalformedFrame, RemoteError):
            self.close()  # out of step with the service; the next request must not read its lines
            raise
        if type(outcome) is ErrorOutcome:
            raise RemoteError(outcome.code, outcome.message)
        return outcome

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


Planner = InProcessPlanner | RemotePlanner


def request_plan(planner: Planner, report: FailureReport,
                 history: dict[str, int]) -> RepairPlan | NoMatch:
    """Ask a planner for the repair of one failure report. ``history`` maps
    subject strings to how many times they have already failed this run;
    this failure is counted in it. Unless an in-process planner has settled
    the report's kind, the report is made a Fact for ``planner.plan``."""
    subject = render_subject(report.subject)
    prior = history.get(subject, 0)
    history[subject] = prior + 1
    if type(planner) is InProcessPlanner and (
            rule := planner.settled.get(id(report.kind))) is not None:
        return rule if type(rule) is NoMatch else RepairPlan(rule.strategy, subject, rule.name)
    return planner.plan(Fact(report.kind, subject, report.exception_count,
                             len(report.dependent_slots), prior))
