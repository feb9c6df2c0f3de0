"""Acceptance suite: every exit criterion as one test, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``).
"""

import json
import random
import socket
import time
from contextlib import contextmanager

from healsim.cli import main as cli_main
from healsim.faults import FaultInstance, FaultKind
from healsim.harness import ScenarioConfig, run_scenario
from healsim.model import ConnectorSpec, render_subject
from healsim.planner import (
    ErrorOutcome,
    NoMatch,
    decode,
    encode,
)
from healsim.rules import (
    And,
    Comparison,
    Fact,
    Not,
    Or,
    RepairPlan,
    Rule,
    RuleSet,
    Strategy,
    default_ruleset,
    evaluate,
)
from healsim.service import PlanService

QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


# -- 1: CF4 scenario ----------------------------------------------------------


def test_criterion_1_cf4_scenario(tmp_path):
    with criterion(1, "scripted CF4 heals via AS3 from reconnect-on-cf4 in under 1s"):
        started = time.perf_counter()
        report = run_scenario(
            ScenarioConfig(
                seed=1,
                rounds=1,
                planner="inproc",
                script=[FaultInstance(FaultKind.CF4, QS_REP)],
                out_dir=str(tmp_path),
            )
        )
        elapsed = time.perf_counter() - started
        (record,) = report.rounds
        assert [r.kind for r in record.reports] == [FaultKind.CF4]
        assert record.reports[0].subject == QS_REP
        (plan,) = record.plans
        assert plan.strategy is Strategy.AS3
        assert plan.fired_rule == "reconnect-on-cf4"
        assert record.post_violations == ()
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# -- 2: root-cause scenario ---------------------------------------------------


def _other_faults():
    cf4 = lambda a, b: FaultInstance(  # noqa: E731
        FaultKind.CF4, ConnectorSpec(a, b, b)
    )
    return [
        FaultInstance(FaultKind.CF1, "Frontend"),
        FaultInstance(FaultKind.CF2, "Bid Service", magnitude=6),
        FaultInstance(FaultKind.CF3, "Persistence Service"),
        cf4("Frontend", "Auth Service"),
        FaultInstance(FaultKind.CF1, "Reputation Service"),
        FaultInstance(FaultKind.CF2, "Auth Service", magnitude=7),
        FaultInstance(FaultKind.CF3, "Last Second Sales Item Filter"),
        cf4("Frontend", "Bid Service"),
        FaultInstance(FaultKind.CF1, "Bid Service"),
        FaultInstance(FaultKind.CF2, "Frontend", magnitude=8),
        FaultInstance(FaultKind.CF3, "Auth Service"),
        cf4("Bid Service", "Persistence Service"),
        FaultInstance(FaultKind.CF1, "Last Second Sales Item Filter"),
        FaultInstance(FaultKind.CF2, "Reputation Service", magnitude=9),
        FaultInstance(FaultKind.CF3, "Bid Service"),
        cf4("Last Second Sales Item Filter", "Persistence Service"),
        FaultInstance(FaultKind.CF1, "Persistence Service"),
    ]


def test_criterion_2_root_cause_scenario(tmp_path):
    with criterion(2, "20 rounds with 3 Query Service failures flag the Filter, count 3"):
        started = time.perf_counter()
        qs = FaultInstance(FaultKind.CF1, "Query Service")
        others = _other_faults()
        assert len(others) == 17
        for fault in others:
            assert render_subject(fault.target) != "Query Service"
            assert "Query Service" not in getattr(fault.target, "source", "")
        script = others[0:5] + [qs] + others[5:11] + [qs] + others[11:17] + [qs]
        assert len(script) == 20
        report = run_scenario(
            ScenarioConfig(
                seed=2,
                rounds=20,
                rootcause_threshold=3,
                script=script,
                out_dir=str(tmp_path),
            )
        )
        elapsed = time.perf_counter() - started
        rows = (tmp_path / "suspects.csv").read_text(encoding="utf-8").splitlines()
        filter_rows = [r for r in rows if r.startswith("Last Second Sales Item Filter,")]
        assert len(filter_rows) == 1
        cells = filter_rows[0].split(",")
        assert cells[1] == "3"
        assert cells[2] == "Query Service;Query Service;Query Service"
        assert "Last Second Sales Item Filter" in {s.slot for s in report.suspects}
        assert elapsed < 2.0, f"took {elapsed:.3f}s"


# -- 3: exhaustive single-fault healing ----------------------------------------


def test_criterion_3_exhaustive_single_fault_healing():
    with criterion(3, "all 30 (kind x target) faults heal to zero violations in one cycle"):
        from healsim.model import build_default_model

        model = build_default_model()
        cases = []
        for slot in model.blueprint.slot_names():
            cases.append(FaultInstance(FaultKind.CF1, slot))
        for slot in model.blueprint.slot_names():
            cases.append(FaultInstance(FaultKind.CF2, slot, magnitude=6))
        for slot in model.blueprint.slot_names():
            cases.append(FaultInstance(FaultKind.CF3, slot))
        for spec in model.live_connector_specs():
            cases.append(FaultInstance(FaultKind.CF4, spec))
        assert len(cases) == 30  # 7 + 7 + 7 + 9
        for fault in cases:
            report = run_scenario(ScenarioConfig(seed=3, rounds=1, script=[fault]))
            (record,) = report.rounds
            assert record.post_violations == (), fault
            assert record.plans and not isinstance(record.plans[0], NoMatch), fault


# -- 4: distributed equivalence -------------------------------------------------


def _canonical_without_config(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    config = doc.pop("config")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"), config


def test_criterion_4_distributed_equivalence(tmp_path):
    with criterion(4, "inproc and socket planner runs differ only in the config echo"):
        seed, rounds = 4242, 25
        run_scenario(
            ScenarioConfig(seed=seed, rounds=rounds, planner="inproc",
                           out_dir=str(tmp_path / "inproc"))
        )
        service = PlanService(default_ruleset(), host="127.0.0.1", port=0).start()
        try:
            host, port = service.address
            run_scenario(
                ScenarioConfig(seed=seed, rounds=rounds, planner=f"tcp://{host}:{port}",
                               out_dir=str(tmp_path / "remote"))
            )
        finally:
            service.shutdown()
        local_bytes, local_config = _canonical_without_config(
            tmp_path / "inproc" / "scenario.json")
        remote_bytes, remote_config = _canonical_without_config(
            tmp_path / "remote" / "scenario.json")
        assert local_bytes == remote_bytes
        assert local_config != remote_config
        assert {k for k in local_config if local_config[k] != remote_config[k]} == {"planner"}


# -- 5: rule separation ---------------------------------------------------------


def test_criterion_5_rule_edit_changes_plan_without_rebuild(tmp_path):
    with criterion(5, "adding an escalation rule flips the CF1 plan from AS1 to AS4"):
        rules_path = tmp_path / "policy.rules"
        rules_path.write_text(
            'rule "restart-on-cf1" when kind == CF1 then AS1\n'
            'rule "replace-on-cf2" when kind == CF2 then AS4\n'
            'rule "redeploy-on-cf3" when kind == CF3 then AS2\n'
            'rule "reconnect-on-cf4" when kind == CF4 then AS3\n',
            encoding="utf-8",
        )
        script_path = tmp_path / "script.json"
        script_path.write_text(
            json.dumps([{"kind": "CF1", "target": "Query Service"}]), encoding="utf-8"
        )

        def run(out):
            code = cli_main([
                "run", "--seed", "5", "--rounds", "1",
                "--rules", str(rules_path), "--script", str(script_path),
                "--out", str(tmp_path / out),
            ])
            assert code == 0
            doc = json.loads((tmp_path / out / "scenario.json").read_text(encoding="utf-8"))
            (plan,) = doc["rounds"][0]["plans"]
            return plan

        before = run("before")
        assert (before["strategy"], before["fired_rule"]) == ("AS1", "restart-on-cf1")

        with rules_path.open("a", encoding="utf-8") as fh:
            fh.write('rule "escalate" salience 10 when kind == CF1 then AS4\n')

        after = run("after")
        assert (after["strategy"], after["fired_rule"]) == ("AS4", "escalate")


# -- 6: determinism --------------------------------------------------------------


def test_criterion_6_seed42_rounds100_byte_identical(tmp_path):
    with criterion(6, "seed 42 x 100 rounds: byte-identical reports across runs"):
        for name in ("one", "two"):
            run_scenario(ScenarioConfig(seed=42, rounds=100, out_dir=str(tmp_path / name)))
        for filename in ("scenario.json", "rounds.csv", "suspects.csv"):
            first = (tmp_path / "one" / filename).read_bytes()
            second = (tmp_path / "two" / filename).read_bytes()
            assert first == second, filename


# -- 7: protocol robustness -------------------------------------------------------


def test_criterion_7_protocol_robustness():
    with criterion(7, "malformed frame answered with ERROR, codec round-trips 1000 messages"):
        service = PlanService(default_ruleset(), host="127.0.0.1", port=0).start()
        try:
            with socket.create_connection(service.address, timeout=2) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"{this is junk\n")
                _, error = decode(reader.readline())
                assert isinstance(error, ErrorOutcome)
                assert error.code == "malformed"
                sock.sendall(encode(1, Fact(FaultKind.CF4, "Query Service->Reputation Service")))
                _, outcome = decode(reader.readline())
                assert isinstance(outcome, RepairPlan)
                assert outcome.strategy is Strategy.AS3
        finally:
            service.shutdown()

        rng = random.Random(7464)
        subjects = ["Query Service", "Bid Service", "A->B", 'quo"ted', "uniçode ☃", ""]
        codes = ["malformed", "internal", "x"]
        for i in range(1000):
            if rng.random() < 0.5:
                message = rng.randrange(0, 2**63), Fact(
                    kind=rng.choice(list(FaultKind)),
                    subject=rng.choice(subjects),
                    exception_count=rng.randrange(0, 1000),
                    dependent_count=rng.randrange(0, 50),
                    prior_failures_of_subject=rng.randrange(0, 50),
                )
            else:
                roll = rng.random()
                if roll < 0.4:
                    outcome = RepairPlan(
                        rng.choice(list(Strategy)), rng.choice(subjects), f"rule-{i}"
                    )
                elif roll < 0.7:
                    outcome = NoMatch()
                else:
                    outcome = ErrorOutcome(rng.choice(codes), f"message {i} ☃")
                message = rng.randrange(0, 2**63), outcome
            assert decode(encode(*message)) == message, message


# -- 8: oracle checks --------------------------------------------------------------


def _naive_eval(cond, fact):
    # independent reference evaluator, deliberately separate from the engine
    if isinstance(cond, Or):
        return any(_naive_eval(p, fact) for p in cond.parts)
    if isinstance(cond, And):
        return all(_naive_eval(p, fact) for p in cond.parts)
    if isinstance(cond, Not):
        return not _naive_eval(cond.term, fact)
    actual = {
        "kind": fact.kind,
        "subject": fact.subject,
        "exception_count": fact.exception_count,
        "dependent_count": fact.dependent_count,
        "prior_failures_of_subject": fact.prior_failures_of_subject,
    }[cond.field]
    return {
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
    }[cond.op](actual, cond.value)


def _naive_select(ruleset, fact):
    matches = [(i, r) for i, r in enumerate(ruleset.rules) if _naive_eval(r.condition, fact)]
    matches.sort(key=lambda pair: (-pair[1].salience, pair[0]))
    return matches[0][1] if matches else None


def _random_condition(rng, depth=0):
    if depth < 2 and rng.random() < 0.4:
        shape = rng.random()
        if shape < 0.4:
            return And(tuple(_random_condition(rng, depth + 1) for _ in range(2)))
        if shape < 0.8:
            return Or(tuple(_random_condition(rng, depth + 1) for _ in range(2)))
        return Not(_random_condition(rng, depth + 1))
    field = rng.choice(
        ["kind", "subject", "exception_count", "dependent_count",
         "prior_failures_of_subject"]
    )
    if field == "kind":
        return Comparison("kind", rng.choice(["==", "!="]), rng.choice(list(FaultKind)))
    if field == "subject":
        return Comparison("subject", rng.choice(["==", "!="]),
                          rng.choice(["Query Service", "Bid Service", "Frontend"]))
    return Comparison(field, rng.choice(["==", "!=", ">", ">=", "<", "<="]),
                      rng.randrange(0, 6))


def test_criterion_8_oracle_checks():
    with criterion(8, "ledger recount and naive conflict-resolution reference both agree"):
        # (a) ledger counters vs brute-force recount over recorded reports
        report = run_scenario(ScenarioConfig(seed=42, rounds=100))
        recount = {}
        for record in report.rounds:
            for failure in record.reports:
                for slot in failure.dependent_slots:
                    recount[slot] = recount.get(slot, 0) + 1
        assert report.counters == recount

        # (b) engine vs naive "filter, sort by (-salience, position), take first"
        rng = random.Random(808)
        for _ in range(1000):
            rules = tuple(
                Rule(
                    name=f"r{i}",
                    salience=rng.randrange(-10, 11),
                    condition=_random_condition(rng),
                    strategy=rng.choice(list(Strategy)),
                )
                for i in range(rng.randrange(1, 7))
            )
            ruleset = RuleSet(rules)
            fact = Fact(
                kind=rng.choice(list(FaultKind)),
                subject=rng.choice(["Query Service", "Bid Service", "Frontend", "X"]),
                exception_count=rng.randrange(0, 6),
                dependent_count=rng.randrange(0, 6),
                prior_failures_of_subject=rng.randrange(0, 6),
            )
            expected = _naive_select(ruleset, fact)
            if expected is None:
                assert evaluate(ruleset, fact) == NoMatch()
            else:
                plan = evaluate(ruleset, fact)
                assert plan.fired_rule == expected.name
                assert plan.strategy is expected.strategy
                assert plan.subject == fact.subject
