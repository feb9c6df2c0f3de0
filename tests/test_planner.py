import random
import select
import socket
import threading
import time

import pytest

from healsim.analyzer import FailureReport
from healsim.faults import FaultKind
from healsim.model import ConnectorSpec
from healsim.planner import (
    MAX_FRAME,
    ConnectionFailed,
    ErrorOutcome,
    InProcessPlanner,
    MalformedFrame,
    NoMatch,
    PlanRequest,
    PlanResponse,
    RemoteError,
    RemotePlanner,
    RequestTimeout,
    decode,
    encode,
    fact_from_report,
    request_plan,
)
from healsim.rules import Fact, RepairPlan, Strategy, default_ruleset, parse_rules
from healsim.service import PlanService


def cf4_fact(request_id=1):
    fact = Fact(
        kind=FaultKind.CF4,
        subject="Query Service->Reputation Service",
        exception_count=0,
        dependent_count=0,
        prior_failures_of_subject=0,
    )
    return PlanRequest(request_id=request_id, fact=fact)


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
    frame = encode(cf4_fact())
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
    assert encode(PlanResponse(2, plan)) == (
        b'{"outcome":{"plan":{"fired_rule":"reconnect-on-cf4","strategy":"AS3",'
        b'"subject":"Query Service->Reputation Service"}},"request_id":2,'
        b'"type":"plan_response","version":1}\n'
    )
    assert encode(PlanResponse(3, NoMatch())) == (
        b'{"outcome":{"no_match":true},"request_id":3,"type":"plan_response","version":1}\n'
    )
    assert encode(PlanResponse(4, ErrorOutcome("malformed", "bad"))) == (
        b'{"outcome":{"error":{"code":"malformed","message":"bad"}},'
        b'"request_id":4,"type":"plan_response","version":1}\n'
    )


@pytest.mark.parametrize("message", [
    Fact(FaultKind.CF1, "x"),
    {"type": "plan_request", "version": 1, "request_id": 1, "fact": {}},
    PlanRequest(True, Fact(FaultKind.CF1, "x")),
    PlanRequest(1.0, Fact(FaultKind.CF1, "x")),
    PlanResponse(False, NoMatch()),
    PlanRequest(1, Fact(FaultKind.CF1, 7)),
    PlanResponse(1, RepairPlan(Strategy.AS1, b"x", "r")),
    PlanResponse(1, ErrorOutcome("code", None)),
    PlanRequest(1, Fact("CF1", "x")),
    PlanRequest(1, Fact(Strategy.AS1, "x")),
    PlanResponse(1, RepairPlan("AS1", "x", "r")),
    PlanResponse(1, Fact(FaultKind.CF1, "x")),
    PlanResponse(1, None),
    PlanRequest(1, None),
], ids=["fact", "dict", "bool-request-id", "float-request-id", "bool-response-id",
        "int-subject", "bytes-plan-subject", "none-error-message", "str-kind",
        "other-enum-kind", "str-strategy", "fact-outcome", "none-outcome", "none-fact"])
def test_encode_rejects_what_is_not_a_message(message):
    with pytest.raises(TypeError, match="not a protocol message"):
        encode(message)


def test_decode_encode_round_trip_handwritten():
    messages = [
        cf4_fact(),
        PlanRequest(9, Fact(FaultKind.CF2, "Bid Service", 7, 1, 2)),
        PlanResponse(9, RepairPlan(Strategy.AS4, "Bid Service", "replace-on-cf2")),
        PlanResponse(10, NoMatch()),
        PlanResponse(11, ErrorOutcome("internal", "boom")),
    ]
    for message in messages:
        assert decode(encode(message)) == message


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
            message = PlanRequest(
                request_id=rng.randrange(0, 2**31),
                fact=Fact(
                    kind=rng.choice(kinds),
                    subject=rng.choice(subjects),
                    exception_count=rng.randrange(0, 100),
                    dependent_count=rng.randrange(0, 10),
                    prior_failures_of_subject=rng.randrange(0, 10),
                ),
            )
        else:
            roll = rng.random()
            if roll < 0.4:
                outcome = RepairPlan(rng.choice(strategies), rng.choice(subjects), "r1")
            elif roll < 0.7:
                outcome = NoMatch()
            else:
                outcome = ErrorOutcome("code", "message ☃")
            message = PlanResponse(rng.randrange(0, 2**31), outcome)
        assert decode(encode(message)) == message


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
    (reply,) = _raw_exchange(service.address, [encode(cf4_fact(request_id=5))])
    response = decode(reply.rstrip(b"\n"))
    assert response.request_id == 5
    assert response.outcome == RepairPlan(
        Strategy.AS3, "Query Service->Reputation Service", "reconnect-on-cf4"
    )


def test_service_survives_garbage_then_serves(service):
    replies = _raw_exchange(
        service.address, [b"this is not a frame\n", encode(cf4_fact(request_id=6))]
    )
    first = decode(replies[0].rstrip(b"\n"))
    assert isinstance(first.outcome, ErrorOutcome)
    assert first.outcome.code == "malformed"
    assert first.request_id == 0
    second = decode(replies[1].rstrip(b"\n"))
    assert isinstance(second.outcome, RepairPlan)


def test_service_closes_on_oversized_frame(service):
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"x" * (MAX_FRAME - 1) + b"\n")  # at the cap: answered
        assert decode(reader.readline().rstrip(b"\n")).outcome.code == "malformed"
        sock.sendall(b"x" * MAX_FRAME + b"\n")  # one byte over: answered, then closed
        reply = decode(reader.readline().rstrip(b"\n"))
        assert reply == PlanResponse(0, ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes"))
        assert reader.readline() == b""


def test_service_answers_busy_past_max_connections(service, monkeypatch):
    monkeypatch.setattr("healsim.service.MAX_CONNECTIONS", 1)
    with socket.create_connection(service.address, timeout=2) as first:
        first_reader = first.makefile("rb")
        first.sendall(encode(cf4_fact(request_id=1)))  # answered: the first is being served
        assert decode(first_reader.readline().rstrip(b"\n")).request_id == 1
        with socket.create_connection(service.address, timeout=2) as second:
            reader = second.makefile("rb")
            reply = decode(reader.readline().rstrip(b"\n"))
            assert reply.request_id == 0 and reply.outcome.code == "busy"
            assert reader.readline() == b""
        first_reader.close()  # the socket closes once its file is closed too
    assert connections_settle_at_zero(service)  # a closed connection frees its place


def test_service_closes_connection_without_complete_frame(service, monkeypatch):
    monkeypatch.setattr("healsim.service.IDLE_TIMEOUT", 0.3)
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(encode(cf4_fact(request_id=4)))
        assert decode(reader.readline().rstrip(b"\n")).request_id == 4
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
    frame = encode(cf4_fact(request_id=1))
    with socket.create_connection(service.address, timeout=3) as sock:
        reader = sock.makefile("rb")
        for piece, pause in ((frame[:5], 0.7), (frame[5:10], 0.1), (frame[10:], 0)):
            sock.sendall(piece)  # the last piece arrives with 0.2 s of the frame's time to spare
            time.sleep(pause)
        assert decode(reader.readline().rstrip(b"\n")).request_id == 1
        time.sleep(0.6)  # longer than was left of the first frame's time, shorter than a frame's
        sock.sendall(encode(cf4_fact(request_id=2)))
        assert decode(reader.readline().rstrip(b"\n")).request_id == 2


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


def test_service_answers_undecodable_frames_then_serves(service):
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        for frame in (BIG_INT_FRAME, DEEP_FRAME):
            sock.sendall(frame + b"\n")
            reply = decode(reader.readline().rstrip(b"\n"))
            assert reply.request_id == 0 and reply.outcome.code == "malformed"
        sock.sendall(encode(cf4_fact(request_id=8)))
        reply = decode(reader.readline().rstrip(b"\n"))
        assert reply.request_id == 8 and isinstance(reply.outcome, RepairPlan)


def test_service_echoes_request_id_of_bad_request(service):
    # JSON parses and carries an id, but the fact is missing
    bad = b'{"request_id":42,"type":"plan_request","version":1}\n'
    (reply,) = _raw_exchange(service.address, [bad])
    response = decode(reply.rstrip(b"\n"))
    assert response.request_id == 42
    assert isinstance(response.outcome, ErrorOutcome)


def test_service_no_match(service):
    request = PlanRequest(1, Fact(FaultKind.CF1, "X"))
    empty_service = PlanService(parse_rules(""), host="127.0.0.1", port=0).start()
    try:
        (reply,) = _raw_exchange(empty_service.address, [encode(request)])
        assert decode(reply.rstrip(b"\n")).outcome == NoMatch()
    finally:
        empty_service.shutdown()


def test_service_pipelined_requests_in_order(service):
    with socket.create_connection(service.address, timeout=2) as sock:
        reader = sock.makefile("rb")
        sock.sendall(encode(cf4_fact(1)) + encode(cf4_fact(2)) + encode(cf4_fact(3)))
        ids = [decode(reader.readline().rstrip(b"\n")).request_id for _ in range(3)]
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


def test_fact_from_report_renders_connector_subject():
    spec = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")
    report = FailureReport(3, FaultKind.CF4, spec, 0, 120, ())
    fact = fact_from_report(report, prior_failures=2)
    assert fact.subject == "Query Service->Reputation Service"
    assert fact.prior_failures_of_subject == 2
    assert fact.dependent_count == 0


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
            assert request_plan(inproc, report) == request_plan(remote, report)
    finally:
        remote.close()


def test_no_match_propagates_identically():
    ruleset = parse_rules("")
    service = PlanService(ruleset, host="127.0.0.1", port=0).start()
    remote = RemotePlanner(*service.address)
    try:
        inproc_outcome = request_plan(InProcessPlanner(ruleset), _report())
        remote_outcome = request_plan(remote, _report())
        assert inproc_outcome == remote_outcome == NoMatch()
    finally:
        remote.close()
        service.shutdown()


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
                request = decode(line.rstrip(b"\n"))
                conn.sendall(first_reply(request) if not replies
                             else encode(PlanResponse(request.request_id, NoMatch())))
                replies += 1
                if replies == 2:
                    break


@pytest.mark.parametrize("first_reply, error, keeps", [
    (lambda request: b"not json\n", MalformedFrame, False),
    (lambda request: encode(request), MalformedFrame, False),  # a request, not a response
    (lambda request: encode(PlanResponse(request.request_id + 1, NoMatch())), RemoteError, False),
    (lambda request: encode(PlanResponse(request.request_id, ErrorOutcome("internal", "boom"))),
     RemoteError, True),
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
