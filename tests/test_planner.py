import collections
import json
import logging
import os
import random
import select
import socket
import struct
import sys
import threading
import time
from enum import Enum
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import healsim.service as service_module
from healsim import planner
from healsim.analyzer import FailureReport
from healsim.faults import FaultKind
from healsim.harness import ScenarioConfig, ScenarioRunner, run_scenario
from healsim.model import ConnectorSpec
from healsim.planner import (
    MAX_FRAME,
    ConnectionFailed,
    ErrorOutcome,
    InProcessPlanner,
    MalformedFrame,
    NoMatch,
    RemoteError,
    RemotePlanner,
    RequestTimeout,
    decode,
    encode,
    request_plan,
)
from healsim.rules import Fact, RepairPlan, Strategy, default_ruleset, parse_rules
from healsim.service import PlanService, _PlanHandler


def cf4_request(request_id=1):
    fact = Fact(
        kind=FaultKind.CF4,
        subject="Query Service->Reputation Service",
        exception_count=0,
        dependent_count=0,
        prior_failures_of_subject=0,
    )
    return request_id, fact


def connections_settle_at_zero(service, timeout=2.0):
    """True once the service counts no open connection; handler threads end
    a moment after their client closes."""
    deadline = time.monotonic() + timeout
    while service._server.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return service._server.connections == 0


@pytest.fixture
def service():
    svc = PlanService(default_ruleset(), host="127.0.0.1", port=0).start()
    yield svc
    svc.shutdown()


# -- framing ------------------------------------------------------------------


def test_encode_is_canonical():
    frame = encode(*cf4_request())
    assert frame.startswith(b'{"fact":')
    assert frame.endswith(b"\n")
    assert frame.count(b"\n") == 1
    assert b" " not in frame.replace(b"Query Service", b"").replace(
        b"Reputation Service", b"")
    assert frame == (
        b'{"fact":{"dependent_count":0,"exception_count":0,"kind":"CF4",'
        b'"prior_failures_of_subject":0,"subject":"Query Service->Reputation Service"},'
        b'"request_id":1,"type":"plan_request","version":1}\n'
    )


def test_encode_response_outcomes():
    plan = RepairPlan(Strategy.AS3, "Query Service->Reputation Service", "reconnect-on-cf4")
    assert encode(2, plan) == (
        b'{"outcome":{"plan":{"fired_rule":"reconnect-on-cf4","strategy":"AS3",'
        b'"subject":"Query Service->Reputation Service"}},"request_id":2,'
        b'"type":"plan_response","version":1}\n'
    )
    assert encode(3, NoMatch()) == (
        b'{"outcome":{"no_match":true},"request_id":3,"type":"plan_response","version":1}\n'
    )
    assert encode(4, ErrorOutcome("malformed", "bad")) == (
        b'{"outcome":{"error":{"code":"malformed","message":"bad"}},'
        b'"request_id":4,"type":"plan_response","version":1}\n'
    )


class Lookalike(Enum):  # another enum whose values are protocol values
    CF1 = "CF1"
    AS1 = "AS1"


@pytest.mark.parametrize("request_id, body", [
    (None, Fact(FaultKind.CF1, "x")),
    (1, {"type": "plan_request", "version": 1, "request_id": 1, "fact": {}}),
    (True, Fact(FaultKind.CF1, "x")),
    (1.0, Fact(FaultKind.CF1, "x")),
    (False, NoMatch()),
    (1, Fact(FaultKind.CF1, 7)),
    (1, Fact(FaultKind.CF1, "x", True)),
    (1, RepairPlan(Strategy.AS1, b"x", "r")),
    (1, ErrorOutcome("code", None)),
    (1, Fact("CF1", "x")),
    (1, Fact(Strategy.AS1, "x")),
    (1, RepairPlan("AS1", "x", "r")),
    (1, FailureReport(0, FaultKind.CF1, "x", 0, 0, ())),
    (1, None),
    (1, Fact(Lookalike.CF1, "x")),
    (1, RepairPlan(Lookalike.AS1, "x", "r")),
], ids=["fact", "dict", "bool-request-id", "float-request-id", "bool-response-id",
        "int-subject", "bool-count", "bytes-plan-subject", "none-error-message", "str-kind",
        "other-enum-kind", "str-strategy", "report-body", "none-outcome",
        "same-value-enum-kind", "same-value-enum-strategy"])
def test_encode_rejects_what_is_not_a_message(request_id, body):
    with pytest.raises(TypeError, match="not a protocol message"):
        encode(request_id, body)


def test_decode_encode_round_trip_handwritten():
    messages = [
        cf4_request(),
        (9, Fact(FaultKind.CF2, "Bid Service", 7, 1, 2)),
        (9, RepairPlan(Strategy.AS4, "Bid Service", "replace-on-cf2")),
        (10, NoMatch()),
        (11, ErrorOutcome("internal", "boom")),
    ]
    for message in messages:
        assert decode(encode(*message)) == message


# Both under MAX_FRAME: an integer over Python's 4300-digit limit, and an
# array nested deeper than the recursion limit.
BIG_INT_FRAME = (
    b'{"fact":{"dependent_count":' + b"7" * 5000 + b',"exception_count":0,"kind":"CF1",'
    b'"prior_failures_of_subject":0,"subject":"x"},"request_id":3,'
    b'"type":"plan_request","version":1}'
)
DEEP_FRAME = b"[" * 30000 + b"]" * 30000


@pytest.mark.parametrize(
    "frame",
    [
        b"not json",
        b"[1,2,3]",
        b"\xff\xfe",
        b'{"type":"plan_request","version":2,"request_id":1,"fact":{}}',
        b'{"type":"mystery","version":1,"request_id":1}',
        b'{"type":"plan_request","version":1,"fact":{}}',
        b'{"type":"plan_request","version":1,"request_id":true,"fact":{}}',
        b'{"type":"plan_request","version":1,"request_id":1,"fact":{"kind":"CF9",'
        b'"subject":"x","exception_count":0,"dependent_count":0,'
        b'"prior_failures_of_subject":0}}',
        b'{"type":"plan_request","version":1,"request_id":1,"fact":{"kind":"CF1",'
        b'"subject":"x","exception_count":0,"dependent_count":0}}',
        b'{"outcome":{},"request_id":1,"type":"plan_response","version":1}',
        b'{"outcome":{"no_match":false},"request_id":1,"type":"plan_response","version":1}',
        b'{"fact":{"dependent_count":0,"exception_count":0,"kind":"CF1",'
        b'"prior_failures_of_subject":0,"subject":"x"},"request_id":1,'
        b'"type":"plan_request","version":1,"extra":1}',
        # no_match is exactly true: 1 == True and 1.0 == True in Python
        b'{"outcome":{"no_match":1},"request_id":1,"type":"plan_response","version":1}',
        b'{"outcome":{"no_match":1.0},"request_id":1,"type":"plan_response","version":1}',
        b'{"outcome":{"no_match":true,"plan":{"fired_rule":"r","strategy":"AS1",'
        b'"subject":"x"}},"request_id":1,"type":"plan_response","version":1}',
        b'{"fact":{"dependent_count":0,"exception_count":true,"kind":"CF1",'
        b'"prior_failures_of_subject":0,"subject":"x"},"request_id":1,'
        b'"type":"plan_request","version":1}',
        b'{"fact":[],"request_id":1,"type":"plan_request","version":1}',
        b'{"outcome":{"plan":"AS1"},"request_id":1,"type":"plan_response","version":1}',
        b'{"outcome":{"error":[]},"request_id":1,"type":"plan_response","version":1}',
        b'{"fact":{"dependent_count":0,"exception_count":0,"extra":1,"kind":"CF1",'
        b'"prior_failures_of_subject":0,"subject":"x"},"request_id":1,'
        b'"type":"plan_request","version":1}',
        b'{"outcome":{"plan":{"extra":1,"fired_rule":"r","strategy":"AS1","subject":"x"}},'
        b'"request_id":1,"type":"plan_response","version":1}',
        b'{"outcome":{"error":{"code":"c","extra":1,"message":"m"}},"request_id":1,'
        b'"type":"plan_response","version":1}',
        b'{"extra":1,"outcome":{"no_match":true},"request_id":1,"type":"plan_response",'
        b'"version":1}',
        pytest.param(BIG_INT_FRAME, id="int-over-digit-limit"),
        pytest.param(DEEP_FRAME, id="nested-30000-deep"),
    ],
)
def test_decode_rejects_malformed(frame):
    with pytest.raises(MalformedFrame):
        decode(frame)


def test_round_trip_randomized_messages():
    rng = random.Random(20260808)
    kinds = list(FaultKind)
    strategies = list(Strategy)
    subjects = ["Query Service", "Bid Service", "A->B", "weird \"name\"", "uniçode"]
    for _ in range(300):
        if rng.random() < 0.5:
            message = rng.randrange(0, 2**31), Fact(
                kind=rng.choice(kinds),
                subject=rng.choice(subjects),
                exception_count=rng.randrange(0, 100),
                dependent_count=rng.randrange(0, 10),
                prior_failures_of_subject=rng.randrange(0, 10),
            )
        else:
            roll = rng.random()
            if roll < 0.4:
                outcome = RepairPlan(rng.choice(strategies), rng.choice(subjects), "r1")
            elif roll < 0.7:
                outcome = NoMatch()
            else:
                outcome = ErrorOutcome("code", "message ☃")
            message = rng.randrange(0, 2**31), outcome
        assert decode(encode(*message)) == message


# Text and integers that the one-match path of decode takes: printable ASCII
# without '"' or '\\', at most 18 digits. Error outcomes always take the full check.
MATCHED_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                     blacklist_characters='"\\'), max_size=12)
MATCHED_INTS = st.integers(-(10**18 - 1), 10**18 - 1)


@settings(max_examples=300, deadline=None)
@given(message=st.one_of(
    st.tuples(MATCHED_INTS, st.builds(
        Fact, st.sampled_from(FaultKind), MATCHED_TEXT, MATCHED_INTS, MATCHED_INTS, MATCHED_INTS)),
    st.tuples(MATCHED_INTS, st.one_of(
        st.builds(RepairPlan, st.sampled_from(Strategy), MATCHED_TEXT, MATCHED_TEXT),
        st.just(NoMatch())))))
def test_canonical_frames_decode_in_one_match(message):
    """Every frame encode writes for these messages decodes without json.loads,
    so the templates and the one-match patterns built from them agree."""
    frame = encode(*message)
    with mock.patch.object(planner.json, "loads", side_effect=AssertionError("full check")):
        assert decode(frame) == decode(frame.rstrip(b"\n")) == message


# -- service ------------------------------------------------------------------


def _raw_exchange(address, lines):
    with socket.create_connection(address, timeout=2) as sock:
        reader = sock.makefile("rb")
        out = []
        for line in lines:
            sock.sendall(line)
            out.append(reader.readline())
        return out


def test_service_answers_cf4_with_as3(service):
    (reply,) = _raw_exchange(service.address, [encode(*cf4_request(request_id=5))])
    assert decode(reply) == (5, RepairPlan(
        Strategy.AS3, "Query Service->Reputation Service", "reconnect-on-cf4"
    ))


def test_service_survives_garbage_then_serves(service):
    replies = _raw_exchange(
        service.address, [b"this is not a frame\n", encode(*cf4_request(request_id=6))]
    )
    request_id, first = decode(replies[0])
    assert isinstance(first, ErrorOutcome)
    assert first.code == "malformed"
    assert request_id == 0
    assert isinstance(decode(replies[1])[1], RepairPlan)


def test_service_closes_on_oversized_frame(service):
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"x" * (MAX_FRAME - 1) + b"\n")  # at the cap: answered
        assert decode(reader.readline())[1].code == "malformed"
        sock.sendall(b"x" * MAX_FRAME + b"\n")  # one byte over: answered, then closed
        reply = decode(reader.readline())
        assert reply == (0, ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes"))
        assert reader.readline() == b""


def test_service_answers_busy_past_max_connections(service, monkeypatch):
    monkeypatch.setattr("healsim.service.MAX_CONNECTIONS", 1)
    with socket.create_connection(service.address, timeout=2) as first:
        first_reader = first.makefile("rb")
        first.sendall(encode(*cf4_request(request_id=1)))  # answered: the first is being served
        assert decode(first_reader.readline())[0] == 1
        with socket.create_connection(service.address, timeout=2) as second:
            reader = second.makefile("rb")
            request_id, outcome = decode(reader.readline())
            assert request_id == 0 and outcome.code == "busy"
            assert reader.readline() == b""
        first_reader.close()  # the socket closes once its file is closed too
    assert connections_settle_at_zero(service)  # a closed connection frees its place


def test_service_closes_connection_without_complete_frame(service, monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.3)
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(encode(*cf4_request(request_id=4)))
        assert decode(reader.readline())[0] == 4
        # A byte at a time keeps the connection busy but never completes a frame.
        start = time.monotonic()
        closed_at = None
        while closed_at is None and time.monotonic() - start < 2:
            try:
                sock.sendall(b" ")
                if select.select([sock], [], [], 0.05)[0] and sock.recv(1) == b"":
                    closed_at = time.monotonic()
            except ConnectionError:  # reset: the server closed with a byte unread
                closed_at = time.monotonic()
        assert closed_at is not None and closed_at - start < 1.0


def test_service_closes_connection_that_sends_nothing(service, monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.3)
    with socket.create_connection(service.address, timeout=2) as sock:
        start = time.monotonic()
        assert sock.recv(1) == b""
        assert time.monotonic() - start < 1.0


def test_service_gives_each_frame_its_own_idle_time(service, monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 1.0)
    frame = encode(*cf4_request(request_id=1))
    with socket.create_connection(service.address, timeout=3) as sock:
        reader = sock.makefile("rb")
        for piece, pause in ((frame[:5], 0.7), (frame[5:10], 0.1), (frame[10:], 0)):
            sock.sendall(piece)  # the last piece arrives with 0.2 s of the frame's time to spare
            time.sleep(pause)
        assert decode(reader.readline())[0] == 1
        time.sleep(0.6)  # longer than was left of the first frame's time, shorter than a frame's
        sock.sendall(encode(*cf4_request(request_id=2)))
        assert decode(reader.readline())[0] == 2


def test_service_closes_quietly_on_a_client_that_reads_nothing(service, monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.3)
    errors = []  # what socketserver would print as a traceback
    monkeypatch.setattr(service._server, "handle_error", lambda *args: errors.append(args))
    # Each frame is answered "malformed", quoting its 60 KB type name, so the
    # replies fill the socket buffers after a few dozen frames.
    frame = b'{"type":"' + b"x" * 60_000 + b'"}\n'
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(service.address)
        sock.settimeout(1.0)
        with pytest.raises(OSError):  # blocked, then reset once the server gives up
            for _ in range(2000):
                sock.sendall(frame)
        assert connections_settle_at_zero(service)
    assert errors == []


def test_service_gives_a_reply_its_idle_time_in_all_not_per_send(service, monkeypatch):
    """A client that takes in a long reply 2 KB every 0.05 s: each send the
    server makes moves on well within IDLE_TIMEOUT, but the whole reply
    would take about 1.5 s, so the server closes the connection after about
    one IDLE_TIMEOUT, not once the trickle ends."""
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.5)
    handle = _PlanHandler.handle

    def handle_with_a_small_send_buffer(handler):  # so the reply cannot sit in it whole
        handler.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        handle(handler)

    monkeypatch.setattr(_PlanHandler, "handle", handle_with_a_small_send_buffer)
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(service.address)
        sock.settimeout(1.0)
        sock.sendall(b'{"type":"' + b"x" * 60_000 + b'"}\n')  # answered "malformed", quoting it
        assert sock.recv(2048)  # the reply has begun: the connection is being served
        start = time.monotonic()
        while service._server.connections and time.monotonic() - start < 4:
            time.sleep(0.05)
            sock.recv(2048)
        assert service._server.connections == 0 and time.monotonic() - start < 1.0


def test_service_answers_undecodable_frames_then_serves(service):
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        for frame in (BIG_INT_FRAME, DEEP_FRAME):
            sock.sendall(frame + b"\n")
            request_id, outcome = decode(reader.readline())
            assert request_id == 0 and outcome.code == "malformed"
        sock.sendall(encode(*cf4_request(request_id=8)))
        request_id, outcome = decode(reader.readline())
        assert request_id == 8 and isinstance(outcome, RepairPlan)


def test_service_echoes_request_id_of_bad_request(service):
    # JSON parses and carries an id, but the fact is missing
    bad = b'{"request_id":42,"type":"plan_request","version":1}\n'
    (reply,) = _raw_exchange(service.address, [bad])
    request_id, outcome = decode(reply)
    assert request_id == 42
    assert isinstance(outcome, ErrorOutcome)


def test_service_answers_a_response_frame_as_malformed_under_its_id(service):
    (reply,) = _raw_exchange(service.address, [encode(9, NoMatch())])
    assert decode(reply) == (9, ErrorOutcome("malformed", "server expects plan_request frames"))


@pytest.mark.parametrize("char", ["\u00e9", "\U0001F600", "\x01"],
                         ids=["e-acute", "emoji", "control"])
def test_service_clips_an_error_reply_to_max_frame(service, char):
    """A request of at most MAX_FRAME bytes whose fact.kind is a long string
    is answered "malformed" with a message that quotes the kind. Each quoted
    character can escape to up to 12 bytes, so the message is cut short:
    the reply is at most MAX_FRAME bytes and decodes to that error."""
    head = b'{"fact":{"dependent_count":0,"exception_count":0,"kind":"'
    tail = (b'","prior_failures_of_subject":0,"subject":"x"},"request_id":5,'
            b'"type":"plan_request","version":1}\n')
    text = json.dumps(char, ensure_ascii=False)[1:-1].encode()  # "\x01" as its JSON escape
    request = head + text * ((MAX_FRAME - len(head) - len(tail)) // len(text)) + tail
    assert MAX_FRAME - len(text) < len(request) <= MAX_FRAME
    (reply,) = _raw_exchange(service.address, [request])
    assert len(reply) <= MAX_FRAME
    request_id, outcome = decode(reply)
    assert request_id == 5 and type(outcome) is ErrorOutcome and outcome.code == "malformed"
    assert outcome.message.startswith("frame.fact.kind has unknown value " + repr(char)[:-1])


def test_service_answers_a_plan_too_long_to_send_as_too_large_and_serves_on(service):
    """A request within MAX_FRAME whose plan would echo its subject in more:
    each raw-UTF-8 "\u00e9" escapes to 6 bytes. The reply is a too_large
    error under the request's id, and the connection serves the next request."""
    request = encode(7, Fact(FaultKind.CF1, "x")).replace(
        b'"subject":"x"', b'"subject":"' + "\u00e9".encode() * 21_000 + b'"')
    assert len(request) <= MAX_FRAME
    plan = InProcessPlanner(default_ruleset()).plan(decode(request)[1])
    assert len(encode(7, plan)) > MAX_FRAME
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(request)
        reply = reader.readline()
        assert len(reply) <= MAX_FRAME
        assert decode(reply) == (7, ErrorOutcome("too_large", f"reply exceeds {MAX_FRAME} bytes"))
        sock.sendall(encode(*cf4_request(request_id=8)))
        assert reader.readline() == encode(8, InProcessPlanner(default_ruleset()).plan(
            cf4_request()[1]))


def test_service_no_match(service):
    empty_service = PlanService(parse_rules(""), host="127.0.0.1", port=0).start()
    try:
        (reply,) = _raw_exchange(empty_service.address, [encode(1, Fact(FaultKind.CF1, "X"))])
        assert decode(reply) == (1, NoMatch())
    finally:
        empty_service.shutdown()


def test_service_pipelined_requests_in_order(service):
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(encode(*cf4_request(1)) + encode(*cf4_request(2)) + encode(*cf4_request(3)))
        ids = [decode(reader.readline())[0] for _ in range(3)]
    assert ids == [1, 2, 3]


def test_service_concurrent_connections(service):
    results = {}

    def worker(worker_id):
        planner = RemotePlanner(*service.address)
        try:
            plans = []
            for i in range(10):
                fact = Fact(FaultKind.CF1, f"w{worker_id}-{i}")
                plans.append(planner.plan(fact))
            results[worker_id] = plans
        finally:
            planner.close()

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4
    for worker_id, plans in results.items():
        assert [p.subject for p in plans] == [f"w{worker_id}-{i}" for i in range(10)]
        assert all(p.strategy is Strategy.AS1 for p in plans)
    assert connections_settle_at_zero(service)  # no lost update of the count


# -- planner handles ----------------------------------------------------------


def _report(kind=FaultKind.CF1, subject="Query Service", deps=("Last Second Sales Item Filter", "Reputation Service")):
    return FailureReport(0, kind, subject, 0, 0, tuple(deps))


def test_request_plan_renders_connector_subject_and_counts_it():
    class Recorder:
        def plan(self, fact):
            facts.append(fact)
            return NoMatch()

    facts = []
    spec = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")
    report = FailureReport(3, FaultKind.CF4, spec, 0, 120, ())
    history = {"Query Service->Reputation Service": 2}
    assert request_plan(Recorder(), report, history) == NoMatch()
    assert request_plan(Recorder(), report, {}) == NoMatch()
    assert facts == [Fact(FaultKind.CF4, "Query Service->Reputation Service", 0, 0, 2),
                     Fact(FaultKind.CF4, "Query Service->Reputation Service", 0, 0, 0)]
    assert history == {"Query Service->Reputation Service": 3}


def test_inproc_and_remote_agree(service):
    inproc = InProcessPlanner(default_ruleset())
    remote = RemotePlanner(*service.address)
    try:
        for kind, subject in [
            (FaultKind.CF1, "Query Service"),
            (FaultKind.CF2, "Bid Service"),
            (FaultKind.CF3, "Persistence Service"),
        ]:
            report = _report(kind=kind, subject=subject)
            assert request_plan(inproc, report, {}) == request_plan(remote, report, {})
    finally:
        remote.close()


def test_no_match_propagates_identically():
    ruleset = parse_rules("")
    service = PlanService(ruleset, host="127.0.0.1", port=0).start()
    remote = RemotePlanner(*service.address)
    try:
        inproc_outcome = request_plan(InProcessPlanner(ruleset), _report(), {})
        remote_outcome = request_plan(remote, _report(), {})
        assert inproc_outcome == remote_outcome == NoMatch()
    finally:
        remote.close()
        service.shutdown()


# Slot names with a quote, a backslash, a tab and a non-ASCII letter, and a plain one.
ODD_TYPES = {"Gate": ['Say "hi"', "Tab\tbed"], 'Say "hi"': ["C:\\db"], "Tab\tbed": ["Müller"],
             "Müller": ["Store"], "C:\\db": ["Store"], "Store": []}
ODD_BLUEPRINT = {
    "types": [{"name": name, "provides": name, "requires": needs}
              for name, needs in ODD_TYPES.items()],
    "slots": [{"slot": name, "type": name} for name in ODD_TYPES],
    "connectors": [{"from": name, "to": need, "interface": need}
                   for name, needs in ODD_TYPES.items() for need in needs],
}


def test_inproc_and_remote_runs_agree_on_both_decode_paths(tmp_path):
    """Subjects the one-match path takes and subjects only the full check
    takes, plans and no_match replies (no CF4 rule), in one run each way."""
    blueprint, rules = tmp_path / "odd.json", tmp_path / "no-cf4.rules"
    blueprint.write_text(json.dumps(ODD_BLUEPRINT), encoding="utf-8")
    rules.write_text('rule "r1" when kind == CF1 then AS1\nrule "r2" when kind == CF2 then AS4\n'
                     'rule "r3" when kind == CF3 then AS2\n', encoding="utf-8")

    def run(planner_name, out):
        report = run_scenario(ScenarioConfig(
            seed=11, rounds=60, planner=planner_name, rules_path=str(rules),
            blueprint_path=str(blueprint), out_dir=str(out)))
        return report, {name: (out / name).read_bytes()
                        for name in ("scenario.json", "rounds.csv", "suspects.csv")}

    service = PlanService(parse_rules(rules.read_text(encoding="utf-8")),
                          host="127.0.0.1", port=0).start()
    try:
        address = "tcp://%s:%d" % service.address
        local, local_files = run("inproc", tmp_path / "inproc")
        remote, remote_files = run(address, tmp_path / "tcp")
    finally:
        service.shutdown()
    assert local.rounds == remote.rounds
    plans = [plan for record in local.rounds for plan in record.plans]
    assert NoMatch() in plans
    subjects = {plan.subject for plan in plans if isinstance(plan, RepairPlan)}
    assert "Store" in subjects and {'Say "hi"', "C:\\db", "Tab\tbed", "Müller"} & subjects
    echo = b'"planner":' + json.dumps(address).encode()
    assert echo in remote_files["scenario.json"]
    remote_files["scenario.json"] = remote_files["scenario.json"].replace(
        echo, b'"planner":"inproc"')
    assert local_files == remote_files


DEGRADED_RULES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
                              "degraded.rules")


def count_codec_calls(monkeypatch):
    """From now on, count each call to encode and decode, by either end's
    name for them, and to json.loads, which the full check of decode starts
    with."""
    calls = collections.Counter()
    for owner, name in ((planner, "encode"), (planner, "decode"), (service_module, "encode"),
                        (service_module, "decode"), (json, "loads")):
        def counted(*args, _fn=getattr(owner, name), _name=f"{owner.__name__}.{name}", **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("policy", ["bundled", "bench-degraded"])
def test_a_canonical_round_trip_takes_one_match_on_both_ends(policy, monkeypatch):
    """Over a 2000-round shop run against an in-thread service, each
    request takes one encode and one decode at each end, and no end calls
    json.loads: the client encodes the request from its fact, the service
    decodes it in one match and encodes the reply from the outcome, and the
    client decodes that in one match. The bench policy's CF4s are answered
    no_match. A subject outside the one-match alphabet takes the full check
    at both ends and gets the in-process answer."""
    if policy == "bundled":
        ruleset = default_ruleset()
    else:
        with open(DEGRADED_RULES, encoding="utf-8") as fh:
            ruleset = parse_rules(fh.read())
    service = PlanService(ruleset, host="127.0.0.1", port=0).start()
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=2000,
                                           planner="tcp://%s:%d" % service.address))
    try:
        calls = count_codec_calls(monkeypatch)
        plans = [plan for record in runner.run().rounds for plan in record.plans]
        once = dict.fromkeys(("healsim.planner.encode", "healsim.planner.decode",
                              "healsim.service.decode", "healsim.service.encode"), len(plans))
        assert len(plans) > 1000 and calls == once
        assert (NoMatch() in plans) is (policy == "bench-degraded")
        calls.clear()
        facts = [Fact(FaultKind.CF1, 'Say "hi"'), Fact(FaultKind.CF2, "Müller", 7, 1, 2)]
        assert [runner.planner.plan(fact) for fact in facts] == [
            InProcessPlanner(ruleset).plan(fact) for fact in facts]
        assert calls == {**dict.fromkeys(once, 2), "json.loads": 4}
    finally:
        runner.close()
        service.shutdown()


def test_the_client_checks_a_reply_s_length_before_its_layout():
    """A reply in the canonical layout, MAX_FRAME + 1 bytes with no LF, is
    too long, not a plan: the client raises and closes the connection."""
    frame = encode(1, RepairPlan(Strategy.AS1, "x", "r")).rstrip(b"\n")
    frame = frame.replace(b'"x"', b'"' + b"x" * (MAX_FRAME + 2 - len(frame)) + b'"')
    assert len(frame) == MAX_FRAME + 1 and decode(frame)[0] == 1
    server = socket.create_server(("127.0.0.1", 0))
    taken = []

    def serve():
        with server:
            conn, _ = server.accept()
            conn.settimeout(5)
            with conn, conn.makefile("rb") as reader:
                taken.append(reader.readline())
                conn.sendall(frame)
                taken.append(reader.read())  # EOF once the client closes

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    remote = RemotePlanner(*server.getsockname()[:2])
    with pytest.raises(MalformedFrame, match=f"^reply exceeds {MAX_FRAME} bytes$"):
        remote.plan(Fact(FaultKind.CF1, "x"))
    assert remote._sock is None
    thread.join(timeout=5)
    assert taken == [encode(1, Fact(FaultKind.CF1, "x")), b""]


def test_the_service_checks_a_request_s_length_before_its_layout(service):
    """A request in the canonical layout, MAX_FRAME + 1 bytes with no LF, is
    answered too_large, and the connection is closed."""
    frame = encode(3, Fact(FaultKind.CF1, "x")).rstrip(b"\n")
    frame = frame.replace(b'"x"', b'"' + b"x" * (MAX_FRAME + 2 - len(frame)) + b'"')
    assert len(frame) == MAX_FRAME + 1 and decode(frame)[0] == 3
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(frame)
        too_large = ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes")
        assert reader.readline() == encode(0, too_large)
        assert reader.readline() == b""


def test_the_service_answers_a_request_id_written_minus_zero_as_zero(service):
    """The matched id is echoed as the int it reads, not as its text."""
    request = encode(*cf4_request(request_id=0)).replace(b'"request_id":0', b'"request_id":-0')
    (reply,) = _raw_exchange(service.address, [request])
    plan = InProcessPlanner(default_ruleset()).plan(cf4_request()[1])
    assert reply == encode(0, plan)


def test_history_feeds_prior_failures():
    ruleset = parse_rules(
        'rule "escalate" salience 10 when prior_failures_of_subject >= 2 then AS4\n'
        'rule "default" when kind == CF1 then AS1\n'
    )
    planner = InProcessPlanner(ruleset)
    report = _report()
    assert request_plan(planner, report, {}).strategy is Strategy.AS1
    assert request_plan(planner, report, {"Query Service": 2}).strategy is Strategy.AS4


def test_remote_connection_failed():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    planner = RemotePlanner("127.0.0.1", free_port, timeout=0.2)
    with pytest.raises(ConnectionFailed):
        planner.plan(Fact(FaultKind.CF1, "X"))


def test_remote_reconnects_once_after_the_service_drops_an_idle_connection(service, monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.2)
    fact = Fact(FaultKind.CF1, "Query Service")
    expected = InProcessPlanner(default_ruleset()).plan(fact)
    planner = RemotePlanner(*service.address)
    try:
        assert planner.plan(fact) == expected
        first = planner._sock
        assert connections_settle_at_zero(service)  # the service closed the idle connection
        assert planner.plan(fact) == expected
        assert planner._sock is not first and first.fileno() == -1  # the lost one was closed
    finally:
        planner.close()


def test_remote_gives_connection_failed_when_the_reconnect_fails_too(monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.2)
    service = PlanService(default_ruleset(), host="127.0.0.1", port=0).start()
    planner = RemotePlanner(*service.address, timeout=0.5)
    try:
        planner.plan(Fact(FaultKind.CF1, "Query Service"))
        service.shutdown()  # stops accepting; the open connection ends when it idles out
        assert connections_settle_at_zero(service)
        with pytest.raises(ConnectionFailed, match="cannot reach planner"):
            planner.plan(Fact(FaultKind.CF1, "Query Service"))
    finally:
        planner.close()
        service.shutdown()


def test_remote_does_not_retry_a_timeout():
    with socket.socket() as listener:  # accepts, never answers
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        planner = RemotePlanner(*listener.getsockname(), timeout=0.2)
        try:
            with pytest.raises(RequestTimeout):
                planner.plan(Fact(FaultKind.CF1, "X"))
            assert planner._sock is None  # closed: its answer may still come
        finally:
            planner.close()
        accepted, _ = listener.accept()
        accepted.close()
        listener.settimeout(0.1)
        with pytest.raises(socket.timeout):  # no second connection was opened
            listener.accept()


def test_remote_timeout_is_one_deadline_per_request_not_per_read():
    """A service that trickles its reply a byte every 0.15 s: each read would
    finish within a 0.2 s timeout, but the request as a whole does not."""
    done = threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(5)

        def trickle():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                request_id, _ = decode(reader.readline())
                reply = encode(request_id, NoMatch())
                try:
                    for i in range(10):  # 1.5 s of single bytes, then the rest
                        conn.sendall(reply[i:i + 1])
                        if done.wait(0.15):
                            return
                    conn.sendall(reply[10:])
                except OSError:  # the client closed the connection
                    pass
                done.wait(5)

        server = threading.Thread(target=trickle)
        server.start()
        planner = RemotePlanner(*listener.getsockname(), timeout=0.2)
        try:
            start = time.monotonic()
            with pytest.raises(RequestTimeout):
                planner.plan(Fact(FaultKind.CF1, "X"))
            assert time.monotonic() - start < 0.4
            assert planner._sock is None
        finally:
            planner.close()
            done.set()
            server.join(timeout=5)
    assert not server.is_alive()


def test_remote_timeout_bounds_sending_a_whole_request():
    """A service that accepts and never reads: a request larger than the
    socket buffers cannot all be sent, and the client gives up once its
    timeout has passed, counted from the start of the send."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        fact = Fact(FaultKind.CF1, "x" * (8 << 20))
        planner = RemotePlanner(*listener.getsockname(), timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(RequestTimeout):
                planner.plan(fact)
            assert time.monotonic() - start < 2 * planner.timeout
            assert planner._sock is None
        finally:
            planner.close()


class SendRecorder:
    """A socket that takes in ``room`` bytes of the first send, records each
    call a ``sender`` makes and takes in all after."""

    def __init__(self, room):
        self.room, self.calls = room, []

    def send(self, data, flags=0):
        self.calls.append(("send", bytes(data), flags))
        if not self.room:
            raise BlockingIOError
        return min(self.room, len(data))

    def settimeout(self, timeout):
        self.calls.append(("settimeout", timeout))

    def sendall(self, data):
        self.calls.append(("sendall", bytes(data)))


@pytest.mark.skipif(not hasattr(socket, "MSG_DONTWAIT"), reason="no MSG_DONTWAIT on this platform")
@pytest.mark.parametrize("room", [100, 3, 0])
def test_a_sender_waits_under_a_timeout_only_for_what_a_first_send_leaves(room):
    """A sender makes its socket blocking. A frame the buffer has room for is
    then one send that never waits; the rest of one it has not goes under a
    Python-level timeout for the whole rest, and the socket is blocking
    again after."""
    sock = SendRecorder(room)
    send = planner.sender(sock, 0.5)
    assert sock.calls == [("settimeout", None)]
    sock.calls.clear()
    send(b"frame\n")
    first = [("send", b"frame\n", socket.MSG_DONTWAIT)]
    if room >= 6:
        assert sock.calls == first
    else:
        assert sock.calls == first + [("settimeout", 0.5), ("sendall", b"frame\n"[room:]),
                                      ("settimeout", None)]


def kernel_timeout(sock):
    """The kernel receive deadline of ``sock`` in seconds, read back in the
    layout ``planner._set_recv_timeout`` packs."""
    if sys.platform == "win32":
        (ms,) = struct.unpack("@L", sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 4))
        return ms / 1000
    sec, usec = struct.unpack("@ll", sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                                                     struct.calcsize("@ll")))
    return sec + usec % (1 << 32) / 1_000_000  # macOS: tv_usec is an int32, then padding


def test_both_ends_leave_their_read_deadlines_to_the_kernel(service, monkeypatch):
    """Blocking sockets, so no send or recv waits in poll first; the kernel
    holds each end's timeout for receiving."""
    accepted = []
    handle = _PlanHandler.handle

    def keep_socket(handler):
        accepted.append(handler.request)
        handle(handler)

    monkeypatch.setattr(_PlanHandler, "handle", keep_socket)
    planner = RemotePlanner(*service.address)
    try:
        assert planner.plan(Fact(FaultKind.CF4, "Query Service->Reputation Service")).strategy \
            is Strategy.AS3
        (server_sock,) = accepted
        for sock, timeout in ((planner._sock, planner.timeout),
                              (server_sock, service_module.IDLE_TIMEOUT)):
            assert sock.gettimeout() is None
            assert kernel_timeout(sock) == timeout
    finally:
        planner.close()


class CallRecorder:
    """A socket that records the name of each of its methods called, then
    calls the socket it wraps."""

    def __init__(self, sock):
        self._sock, self.calls = sock, []

    def __getattr__(self, name):
        method = getattr(self._sock, name)

        def recorded(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return recorded


@pytest.mark.skipif(not hasattr(socket, "MSG_DONTWAIT"), reason="no MSG_DONTWAIT on this platform")
def test_a_round_trip_makes_one_send_and_one_recv_at_each_end(service, monkeypatch):
    """Four system calls per round trip, as README's "Planner protocol" says:
    after the first request, which sets up each end's socket, each canonical
    round trip is one send and one recv at the client and at the service,
    and neither end sets a timeout or a socket option."""
    # Apart: the service's handler thread may record its end before the client does.
    client_ends, service_ends = [], []
    create_connection, handle = socket.create_connection, _PlanHandler.handle

    def counted_connection(*args, **kwargs):
        client_ends.append(CallRecorder(create_connection(*args, **kwargs)))
        return client_ends[-1]

    def counted_handle(handler):
        handler.request = CallRecorder(handler.request)
        service_ends.append(handler.request)
        handle(handler)

    monkeypatch.setattr(socket, "create_connection", counted_connection)
    monkeypatch.setattr(_PlanHandler, "handle", counted_handle)
    remote, rounds = RemotePlanner(*service.address), 3
    try:
        for i in range(1 + rounds):
            assert remote.plan(Fact(FaultKind.CF1, f"s{i}")).subject == f"s{i}"
        assert len(client_ends) == 1  # one connection
        client_calls = list(client_ends[0].calls)  # before close, which it records too
    finally:
        remote.close()
    assert connections_settle_at_zero(service)  # the service has read EOF and ended
    assert len(service_ends) == 1  # one handler
    assert client_calls == ["settimeout", "send", "setsockopt", "recv"] + ["send", "recv"] * rounds
    assert service_ends[0].calls == (["settimeout", "setsockopt", "recv", "send"]
                                     + ["recv", "send"] * rounds + ["recv"])


def closing_lines(caplog, port):
    return [record.getMessage() for record in caplog.records if record.name == "healsim.service"
            and record.getMessage().startswith(f"closing 127.0.0.1:{port}: ")]


def test_the_service_logs_a_connection_that_completes_no_frame(service, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="healsim.service")
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.3)
    with socket.create_connection(service.address, timeout=2) as sock:
        sock.sendall(encode(*cf4_request())[:10])
        assert sock.recv(1) == b""  # closed once the frame's time is up
        port = sock.getsockname()[1]
    assert closing_lines(caplog, port) == [f"closing 127.0.0.1:{port}: no complete frame in 0.3s"]


def test_the_service_logs_a_connection_reset_while_it_waits_for_a_frame(service, caplog):
    caplog.set_level(logging.INFO, logger="healsim.service")
    with socket.create_connection(service.address, timeout=2) as sock:
        sock.sendall(encode(*cf4_request()))
        assert sock.recv(MAX_FRAME)  # answered: the service now waits for the next frame
        port = sock.getsockname()[1]
        # A zero linger: the close resets the connection the service waits on.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    assert connections_settle_at_zero(service)
    (line,) = closing_lines(caplog, port)
    assert line.startswith(f"closing 127.0.0.1:{port}: cannot receive: ")


def test_the_service_logs_a_reply_it_cannot_send_as_a_send_failure(service, monkeypatch, caplog):
    """A client that reads one byte of a long reply: the reply's send times
    out, which the service logs as "cannot send", not as a frame it did not
    receive."""
    caplog.set_level(logging.INFO, logger="healsim.service")
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.3)
    handle = _PlanHandler.handle

    def handle_with_a_small_send_buffer(handler):  # so the reply cannot sit in it whole
        handler.request.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        handle(handler)

    monkeypatch.setattr(_PlanHandler, "handle", handle_with_a_small_send_buffer)
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(service.address)
        sock.settimeout(2)
        sock.sendall(b'{"type":"' + b"x" * 60_000 + b'"}\n')  # answered "malformed", quoting it
        assert sock.recv(1)  # the reply has begun: the connection is being served
        port = sock.getsockname()[1]
        assert connections_settle_at_zero(service)
    assert closing_lines(caplog, port) == [f"closing 127.0.0.1:{port}: cannot send: timed out"]


@pytest.mark.parametrize("seconds, timeval, ms", [
    (1e-9, (0, 1), 1), (0.3, (0, 300_000), 300), (1.0, (1, 0), 1000), (30.0, (30, 0), 30_000),
    (2.0000004, (2, 0), 2000),
])
def test_a_deadline_is_packed_for_the_platform_and_never_as_forever(seconds, timeval, ms,
                                                                   monkeypatch):
    """Seconds to the nearest unit of the platform's layout, and at least
    one unit: a zero deadline would mean none. Both layouts are packed on
    every host, the Windows DWORD of milliseconds and the POSIX ``struct
    timeval``; only the host's own goes to a real socket."""
    packed = []

    class Recorder:
        def setsockopt(self, level, option, value):
            packed.append((level, option, value))

    for platform in (sys.platform, "linux" if sys.platform == "win32" else "win32"):
        with monkeypatch.context() as patched:
            patched.setattr(planner.sys, "platform", platform)
            planner._set_recv_timeout(Recorder(), seconds)
        value = struct.pack("@L", ms) if platform == "win32" else struct.pack("@ll", *timeval)
        assert packed.pop() == (socket.SOL_SOCKET, socket.SO_RCVTIMEO, value) and not packed
    assert ms >= 1
    with socket.socket() as sock:
        planner._set_recv_timeout(sock, seconds)
        assert kernel_timeout(sock) > 0


def test_remote_stops_reading_a_reply_longer_than_a_frame():
    """A faulty service that streams bytes with no LF and keeps the connection
    open: the client reads MAX_FRAME + 1 bytes, gives MalformedFrame well
    before its timeout, and closes the connection."""
    done = threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(5)

        def stream_without_lf():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                conn.sendall(b"x" * (MAX_FRAME + 1))
                done.wait(5)

        server = threading.Thread(target=stream_without_lf)
        server.start()
        planner = RemotePlanner(*listener.getsockname(), timeout=3)
        try:
            start = time.monotonic()
            with pytest.raises(MalformedFrame, match=f"reply exceeds {MAX_FRAME} bytes"):
                planner.plan(Fact(FaultKind.CF1, "X"))
            assert time.monotonic() - start < 1.5
            assert planner._sock is None
        finally:
            planner.close()
            done.set()
            server.join(timeout=5)
    assert not server.is_alive()


def answer_one_connection_at_a_time(listener, first_reply, accepted):
    """Answers request lines on one connection at a time, taking the next once
    the client closes the last: the first reply is ``first_reply(request)``,
    the second NoMatch, and then it ends."""
    replies = 0
    while replies < 2:
        conn, _ = listener.accept()
        accepted.append(conn)
        with conn, conn.makefile("rb") as reader:
            for line in reader:
                request = decode(line)
                conn.sendall(first_reply(request) if not replies else encode(request[0], NoMatch()))
                replies += 1
                if replies == 2:
                    break


@pytest.mark.parametrize("first_reply, error, keeps", [
    (lambda request: b"not json\n", MalformedFrame, False),
    (lambda request: encode(*request), MalformedFrame, False),  # a request, not a response
    (lambda request: encode(request[0] + 1, NoMatch()), RemoteError, False),
    (lambda request: encode(request[0], ErrorOutcome("internal", "boom")), RemoteError, True),
], ids=["undecodable", "not-a-response", "other-request-id", "error-outcome"])
def test_remote_closes_a_connection_it_can_no_longer_trust(first_reply, error, keeps):
    """A bad reply leaves the stream out of step, so the client closes the
    connection and the next request goes out on a fresh one. An error
    outcome answers its own request, so the connection is kept."""
    accepted = []
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        listener.settimeout(5)
        server = threading.Thread(target=answer_one_connection_at_a_time,
                                  args=(listener, first_reply, accepted))
        server.start()
        planner = RemotePlanner(*listener.getsockname(), timeout=5)
        try:
            with pytest.raises(error):
                planner.plan(Fact(FaultKind.CF1, "X"))
            assert (planner._sock is not None) is keeps
            assert planner.plan(Fact(FaultKind.CF1, "X")) == NoMatch()
        finally:
            planner.close()
            server.join(timeout=5)
    assert not server.is_alive() and len(accepted) == (1 if keeps else 2)


def test_remote_reconnects_only_once_per_request():
    """A service that drops every connection it accepts: one reconnect, then ConnectionFailed."""
    accepted, stop = [], threading.Event()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        listener.settimeout(0.05)

        def drop_each():
            while not stop.is_set() and len(accepted) < 3:  # a third would be a second retry
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(conn)
                conn.close()

        dropper = threading.Thread(target=drop_each)
        dropper.start()
        planner = RemotePlanner(*listener.getsockname(), timeout=2)
        try:
            planner._connect()  # established before the request, so a loss is retried
            with pytest.raises(ConnectionFailed) as failed:
                planner.plan(Fact(FaultKind.CF1, "X"))
            assert len(accepted) == 2 and "cannot reach" not in str(failed.value)
        finally:
            planner.close()
            stop.set()
            dropper.join(timeout=5)
    assert not dropper.is_alive()
