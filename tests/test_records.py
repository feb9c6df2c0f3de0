"""The record classes: value equality, hashing, text, immutability and
copying, checked for every record class in one table; a run and its reports
that call no Python-level ``__hash__``; healed runs that scan no damage
and parse back no id they allocated; and a cold start that loads neither
``dataclasses`` nor ``inspect`` and, in process, compiles no planner pattern
and imports no text codec."""

import collections
import copy
import os
import pickle
import subprocess
import sys
from enum import Enum

import pytest
from test_golden import layered_blueprint_doc

from healsim import model as model_module
from healsim.analyzer import FailureReport, RootCauseLedger, RootCauseSuspect
from healsim.executor import ExecutionResult
from healsim.faults import FaultInstance, FaultKind
from healsim.harness import (
    RoundRecord,
    ScenarioConfig,
    ScenarioReport,
    ScenarioRunner,
    emit_reports,
)
from healsim.model import (
    ArchitectureModel,
    Blueprint,
    Component,
    ComponentState,
    ComponentType,
    ConnectorSpec,
    Frozen,
    Record,
    Violation,
    ViolationKind,
    blueprint_from_json,
    instantiate_blueprint,
)
from healsim.monitor import ChangeEvent, EventKind, Snapshot
from healsim.planner import ErrorOutcome, PlanRequest, PlanResponse
from healsim.rules import (
    And,
    Comparison,
    Fact,
    NoMatch,
    Not,
    Or,
    RepairPlan,
    Rule,
    RuleSet,
    Strategy,
    _Token,
    default_ruleset,
)
from healsim.service import PlanService

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

TYPES = (ComponentType("Front", "Front", ("Back",)), ComponentType("Back", "Back", ()))
SLOTS = (("front", "Front"), ("back", "Back"))
SPEC = ConnectorSpec("front", "back", "Back")
BLUEPRINT = Blueprint(TYPES, SLOTS, (SPEC,))
COMPONENT = Component("front#1", ComponentState.UNKNOWN, 2)
FACT = Fact(FaultKind.CF2, "front", 7, 1, 2)
PLAN = RepairPlan(Strategy.AS4, "front", "r")
COND = Comparison("kind", "==", FaultKind.CF2)
RULE = Rule("r", 5, COND, Strategy.AS4)
FAULT = FaultInstance(FaultKind.CF2, "front", 7, 300)
REPORT = FailureReport(0, FaultKind.CF2, "front", 7, 300, ("back",))
EXECUTION = ExecutionResult(PLAN, ("remove_component(front)",), "front#2", 302)
VIOLATION = Violation(ViolationKind.MISSING_CONNECTOR, SPEC)

ALONE = object()  # no other value of this field alone passes the class's checks

# class, the value of each field in ``_fields`` order (a frozen record's
# __init__ takes them so), another valid value for each, and the repr the
# record had as a dataclass.
FROZEN = [
    (ComponentType, ("Front", "Front", ("Back",)), ("Side", "Side", ()),
     "ComponentType(name='Front', provided_interface='Front', required_interfaces=('Back',))"),
    (Component, ("front#1", ComponentState.UNKNOWN, 2), ("front#2", ComponentState.STARTED, 0),
     "Component(instance_id='front#1', state=<ComponentState.UNKNOWN: 'UNKNOWN'>, "
     "exception_count=2)"),
    (ConnectorSpec, ("front", "back", "Back"), ("side", "side", "Side"),
     "ConnectorSpec(source='front', target='back', interface='Back')"),
    (Violation, (ViolationKind.MISSING_CONNECTOR, SPEC), (ViolationKind.NOT_STARTED, "front"),
     "Violation(kind=<ViolationKind.MISSING_CONNECTOR: 'MISSING_CONNECTOR'>, "
     "subject=ConnectorSpec(source='front', target='back', interface='Back'))"),
    (Blueprint, (TYPES, SLOTS, (SPEC,)),
     (TYPES + (ComponentType("Side", "Side", ()),), SLOTS[::-1], ()),
     "Blueprint(component_types=(ComponentType(name='Front', provided_interface='Front', "
     "required_interfaces=('Back',)), ComponentType(name='Back', provided_interface='Back', "
     "required_interfaces=())), slots=(('front', 'Front'), ('back', 'Back')), "
     "intended_connectors=(ConnectorSpec(source='front', target='back', interface='Back'),))"),
    (FaultInstance, (FaultKind.CF2, "front", 7, 300), (ALONE, "back", 8, 301),
     "FaultInstance(kind=<FaultKind.CF2: 'CF2'>, target='front', magnitude=7, injected_at=300)"),
    (FailureReport, (0, FaultKind.CF2, "front", 7, 300, ("back",)),
     (1, FaultKind.CF1, "back", 0, 301, ()),
     "FailureReport(report_id=0, kind=<FaultKind.CF2: 'CF2'>, subject='front', "
     "exception_count=7, detected_at=300, dependent_slots=('back',))"),
    (RootCauseSuspect, ("back", 3, ("front",), 100, 300), ("front", 4, (), 101, 301),
     "RootCauseSuspect(slot='back', count=3, implicated_by=('front',), first_at=100, "
     "last_at=300)"),
    (ExecutionResult, (PLAN, ("remove_component(front)",), "front#2", 302),
     (RepairPlan(Strategy.AS1, "front", "r"), (), None, 303),
     "ExecutionResult(plan=RepairPlan(strategy=<Strategy.AS4: 'AS4'>, subject='front', "
     "fired_rule='r'), applied_mutations=('remove_component(front)',), "
     "new_instance_id='front#2', completed_at=302)"),
    (Fact, (FaultKind.CF2, "front", 7, 1, 2), (FaultKind.CF1, "back", 0, 0, 0),
     "Fact(kind=<FaultKind.CF2: 'CF2'>, subject='front', exception_count=7, "
     "dependent_count=1, prior_failures_of_subject=2)"),
    (Comparison, ("kind", "==", FaultKind.CF2), ("subject", "!=", "front"),
     "Comparison(field='kind', op='==', value=<FaultKind.CF2: 'CF2'>)"),
    (Not, (COND,), (Not(COND),),
     "Not(term=Comparison(field='kind', op='==', value=<FaultKind.CF2: 'CF2'>))"),
    (And, ((COND, COND),), ((COND,),),
     "And(parts=(Comparison(field='kind', op='==', value=<FaultKind.CF2: 'CF2'>), "
     "Comparison(field='kind', op='==', value=<FaultKind.CF2: 'CF2'>)))"),
    (Or, ((COND, COND),), ((COND,),),
     "Or(parts=(Comparison(field='kind', op='==', value=<FaultKind.CF2: 'CF2'>), "
     "Comparison(field='kind', op='==', value=<FaultKind.CF2: 'CF2'>)))"),
    (Rule, ("r", 5, COND, Strategy.AS4), ("s", 0, Not(COND), Strategy.AS1),
     "Rule(name='r', salience=5, condition=Comparison(field='kind', op='==', "
     "value=<FaultKind.CF2: 'CF2'>), strategy=<Strategy.AS4: 'AS4'>)"),
    (RuleSet, ((RULE,),), ((),),
     "RuleSet(rules=(Rule(name='r', salience=5, condition=Comparison(field='kind', op='==', "
     "value=<FaultKind.CF2: 'CF2'>), strategy=<Strategy.AS4: 'AS4'>),))"),
    (RepairPlan, (Strategy.AS4, "front", "r"), (Strategy.AS1, "back", "s"),
     "RepairPlan(strategy=<Strategy.AS4: 'AS4'>, subject='front', fired_rule='r')"),
    (NoMatch, (), (), "NoMatch()"),
    (_Token, ("IDENT", "rule", 1, 1), ("STRING", '"r"', 2, 6),
     "_Token(kind='IDENT', text='rule', line=1, col=1)"),
    (PlanRequest, (1, FACT), (2, Fact(FaultKind.CF1, "front")),
     "PlanRequest(request_id=1, fact=Fact(kind=<FaultKind.CF2: 'CF2'>, subject='front', "
     "exception_count=7, dependent_count=1, prior_failures_of_subject=2))"),
    (ErrorOutcome, ("busy", "serving 64"), ("malformed", "frame"),
     "ErrorOutcome(code='busy', message='serving 64')"),
    (PlanResponse, (1, PLAN), (2, NoMatch()),
     "PlanResponse(request_id=1, outcome=RepairPlan(strategy=<Strategy.AS4: 'AS4'>, "
     "subject='front', fired_rule='r'))"),
    (Snapshot, ((("front", COMPONENT), ("back", None)), (SPEC,), 7),
     ((("front", None), ("back", None)), (), 8),
     "Snapshot(slots=(('front', Component(instance_id='front#1', "
     "state=<ComponentState.UNKNOWN: 'UNKNOWN'>, exception_count=2)), ('back', None)), "
     "connectors=(ConnectorSpec(source='front', target='back', interface='Back'),), clock=7)"),
]


def _config():
    return ScenarioConfig(1, 2, 5, 3, "inproc", None, None, None, None, "out")


def _model():
    return instantiate_blueprint(BLUEPRINT)


def _ledger():
    ledger = RootCauseLedger(3)
    ledger.record_failure(REPORT)
    return ledger


def _round():
    return RoundRecord(1, FAULT, (REPORT,), (PLAN,), (EXECUTION,), (VIOLATION,), 0, 302)


# A builder of the mutable record, another value for each field in ``_fields``
# order, and the repr it had as a dataclass.
MUTABLE = [
    (_config, (2, 3, 6, 4, "tcp://h:1", "r", "b", "s", [FAULT], "o"),
     "ScenarioConfig(seed=1, rounds=2, exception_threshold=5, rootcause_threshold=3, "
     "planner='inproc', rules_path=None, blueprint_path=None, script_path=None, script=None, "
     "out_dir='out')"),
    (_round, (2, FaultInstance(FaultKind.CF1, "back"), (), (NoMatch(),), (), (), 1, 303),
     "RoundRecord(index=1, fault=FaultInstance(kind=<FaultKind.CF2: 'CF2'>, target='front', "
     "magnitude=7, injected_at=300), reports=(FailureReport(report_id=0, "
     "kind=<FaultKind.CF2: 'CF2'>, subject='front', exception_count=7, detected_at=300, "
     "dependent_slots=('back',)),), plans=(RepairPlan(strategy=<Strategy.AS4: 'AS4'>, "
     "subject='front', fired_rule='r'),), executions=(ExecutionResult(plan=RepairPlan("
     "strategy=<Strategy.AS4: 'AS4'>, subject='front', fired_rule='r'), "
     "applied_mutations=('remove_component(front)',), new_instance_id='front#2', "
     "completed_at=302),), post_violations=(Violation(kind=<ViolationKind.MISSING_CONNECTOR: "
     "'MISSING_CONNECTOR'>, subject=ConnectorSpec(source='front', target='back', "
     "interface='Back')),), clock_start=0, clock_end=302)"),
    (lambda: ScenarioReport(_config(), [_round()], {"back": 1}, [], 0),
     (ScenarioConfig(1, 3), [], {}, [RootCauseSuspect("back", 3, (), 1, 2)], 1),
     "ScenarioReport(config=ScenarioConfig(seed=1, rounds=2, exception_threshold=5, "
     "rootcause_threshold=3, planner='inproc', rules_path=None, blueprint_path=None, "
     "script_path=None, script=None, out_dir='out'), rounds=[RoundRecord(index=1, "
     "fault=FaultInstance(kind=<FaultKind.CF2: 'CF2'>, target='front', magnitude=7, "
     "injected_at=300), reports=(FailureReport(report_id=0, kind=<FaultKind.CF2: 'CF2'>, "
     "subject='front', exception_count=7, detected_at=300, dependent_slots=('back',)),), "
     "plans=(RepairPlan(strategy=<Strategy.AS4: 'AS4'>, subject='front', fired_rule='r'),), "
     "executions=(ExecutionResult(plan=RepairPlan(strategy=<Strategy.AS4: 'AS4'>, "
     "subject='front', fired_rule='r'), applied_mutations=('remove_component(front)',), "
     "new_instance_id='front#2', completed_at=302),), post_violations=(Violation("
     "kind=<ViolationKind.MISSING_CONNECTOR: 'MISSING_CONNECTOR'>, subject=ConnectorSpec("
     "source='front', target='back', interface='Back')),), clock_start=0, clock_end=302)], "
     "counters={'back': 1}, suspects=[], unhandled_failures=0)"),
    (_ledger, (2, {}, {}, {"back": 100}, {"back": 400}),
     "RootCauseLedger(threshold=3, counters={'back': 1}, implicated_by={'back': ['front']}, "
     "first_at={'back': 300}, last_at={'back': 300})"),
    (_model, (Blueprint(TYPES, SLOTS, ()), [None, None], {0}, 5, {"back": 9}),
     "ArchitectureModel(blueprint=Blueprint(component_types=(ComponentType(name='Front', "
     "provided_interface='Front', required_interfaces=('Back',)), ComponentType(name='Back', "
     "provided_interface='Back', required_interfaces=())), slots=(('front', 'Front'), "
     "('back', 'Back')), intended_connectors=(ConnectorSpec(source='front', target='back', "
     "interface='Back'),)), _components=[Component(instance_id='front#1', "
     "state=<ComponentState.STARTED: 'STARTED'>, exception_count=0), Component("
     "instance_id='back#1', state=<ComponentState.STARTED: 'STARTED'>, exception_count=0)], "
     "_missing=set(), clock=0, _instance_seq={'front': 1, 'back': 1})"),
    (lambda: ChangeEvent(EventKind.EXCEPTIONS_CHANGED, "front", 0, 7, 300),
     (EventKind.STATE_CHANGED, "back", 1, 8, 301),
     "ChangeEvent(kind=<EventKind.EXCEPTIONS_CHANGED: 'EXCEPTIONS_CHANGED'>, subject='front', "
     "old=0, new=7, at=300)"),
]


def _round_trips(record):
    return [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]


def test_the_table_lists_every_record_class():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    listed = {row[0] for row in FROZEN} | {type(row[0]()) for row in MUTABLE}
    found = {cls for cls in subclasses(Record) if cls.__module__.startswith("healsim.")}
    assert found - {Frozen} == listed and len(listed) == 29


@pytest.mark.parametrize("row", FROZEN, ids=lambda row: row[0].__qualname__)
def test_frozen_record(row):
    cls, values, others, text = row
    record = cls(*values)
    assert repr(record) == text and not hasattr(record, "__dict__")
    equal = cls(*values)
    assert record == equal and not record != equal and hash(record) == hash(equal)
    assert record != values and record != object()
    for i, name in enumerate(cls._fields):
        if others[i] is not ALONE:
            changed = cls(*values[:i], others[i], *values[i + 1:])
            assert record != changed and getattr(changed, name) == others[i]
        with pytest.raises(AttributeError):
            setattr(record, name, others[i])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text  # nothing changed
    for copied in _round_trips(record):
        assert type(copied) is cls and copied == record and hash(copied) == hash(record)
        assert repr(copied) == text


@pytest.mark.parametrize("row", MUTABLE, ids=lambda row: type(row[0]()).__qualname__)
def test_mutable_record(row):
    build, others, text = row
    record = build()
    assert repr(record) == text and not hasattr(record, "__dict__")
    assert record == build() and not record != build()
    assert record != tuple(getattr(record, name) for name in record._fields)
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(AttributeError):
        record.extra = 1
    for copied in _round_trips(record):
        assert type(copied) is type(record) and copied == record and repr(copied) == text
    for name, other in zip(record._fields, others, strict=True):
        changed = copy.deepcopy(record)
        setattr(changed, name, other)
        assert changed != record


def test_records_of_different_classes_with_equal_fields_differ():
    parts = (COND, Not(COND))
    assert And(parts) != Or(parts) and hash(And(parts)) != hash(Or(parts))
    assert len({And(parts), Or(parts), And(parts)}) == 2


def test_derived_attributes_stay_out_of_equality_and_are_rebuilt():
    spec = ConnectorSpec("a", "b", "I")
    for copied in _round_trips(spec):
        assert copied.name == "a->b" and hash(copied) == hash("a->b") and {copied} == {spec}
    blueprint = copy.deepcopy(BLUEPRINT)
    assert blueprint == BLUEPRINT and blueprint._slot_pos == {"front": 0, "back": 1}
    ruleset = pickle.loads(pickle.dumps(RuleSet((RULE,))))
    assert ruleset.ranked[0][1] == RULE and ruleset.ranked[0][0](FACT) is True
    snapshot = Snapshot((), (), 0)
    object.__setattr__(snapshot, "_journal", ({}, {}))
    assert snapshot == Snapshot((), (), 0) and copy.copy(snapshot)._journal == (None, None)


def test_a_cold_start_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = {'dataclasses', 'inspect'} & set(sys.modules); "
            "import healsim, healsim.cli; "
            "print(sorted(before), sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=env).stdout
    assert out == "[] []\n"


def test_an_in_process_run_compiles_no_planner_pattern(tmp_path):
    """The decode patterns compile on first use; an in-process run decodes no frame."""
    code = ("import sys, healsim; "
            "healsim.run_scenario(healsim.ScenarioConfig(42, 50, out_dir=sys.argv[1])); "
            "print(healsim.planner._LAYOUTS)")
    out = subprocess.run([sys.executable, "-B", "-S", "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=60,
                         env={"PYTHONPATH": SRC}).stdout
    assert out == "{}\n"


def test_a_cold_start_loads_no_module_only_serving_or_logging_needs():
    """``import healsim`` loads the client and the loop, not the service, the
    socket layer, the ``struct`` the client packs its deadlines with, logging
    or typing, and ``import healsim.cli`` none of the socket layer or logging
    either: ``main`` loads logging when it is needed."""
    code = ("import sys; before = set(sys.modules); import healsim; "
            "print(sorted({'healsim.service', 'socket', 'socketserver', 'struct', 'threading', "
            "'logging', 'typing'} & (set(sys.modules) - before))); "
            "import healsim.cli; "
            "print(sorted({'socket', 'socketserver', 'logging'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-B", "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={"PYTHONPATH": SRC}).stdout
    assert out == "[]\n[]\n"


@pytest.mark.parametrize("doc, rounds, tcp", [
    (None, 2000, False), (layered_blueprint_doc(200), 200, False), (None, 2000, True),
], ids=["shop", "layered200", "shop-tcp"])
def test_a_run_and_its_reports_call_no_python_level_hash(doc, rounds, tcp, tmp_path, monkeypatch):
    """The model keys its facts by blueprint position and emission and the
    wire codec read each enum member's ``_value_``, so neither a round, at
    both ends of the TCP planner too, nor report emission hashes an enum
    member or a record in Python."""
    blueprint = None if doc is None else blueprint_from_json(doc)
    service = PlanService(default_ruleset(), port=0).start() if tcp else None
    planner = "tcp://%s:%d" % service.address if tcp else "inproc"
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=rounds, planner=planner),
                            blueprint=blueprint)
    try:
        if tcp:
            runner.planner._connect()
        calls = collections.Counter()
        for cls in (Enum, Frozen, ConnectorSpec):
            def counted(self, _hash=cls.__hash__, _name=cls.__qualname__):
                calls[_name] += 1
                return _hash(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        hash(FaultKind.CF1), hash(ComponentType("T", "I", ())), hash(ConnectorSpec("a", "b", "I"))
        assert calls == {"Enum": 1, "Frozen": 1, "ConnectorSpec": 1}
        calls.clear()
        emit_reports(runner.run(), str(tmp_path))
    finally:
        runner.close()
        if tcp:
            service.shutdown()
    assert calls == {}


@pytest.mark.parametrize("doc", [None, layered_blueprint_doc(200)], ids=["shop", "layered200"])
def test_a_healed_run_scans_no_damage_and_parses_no_allocated_id(doc, monkeypatch):
    """Every round of these runs ends healed, so each draw takes its target
    straight from the blueprint, with no k-th lookup over the damage, and
    no repair parses an instance id: ``instantiate`` makes each new one."""
    blueprint = None if doc is None else blueprint_from_json(doc)
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=2000), blueprint=blueprint)
    calls = collections.Counter()
    for owner, name in ((model_module, "_kth_kept"), (ArchitectureModel, "_note_instance_id")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    try:
        report = runner.run()
    finally:
        runner.close()
    assert all(not record.post_violations for record in report.rounds)
    assert any(result.new_instance_id for record in report.rounds
               for result in record.executions)
    assert calls == {}


def test_writing_reports_imports_no_text_codec(tmp_path):
    """scenario.json is written in binary, its text encoded as ASCII by
    ``str.encode``, which imports no codec module."""
    code = ("import sys, healsim; "
            "healsim.run_scenario(healsim.ScenarioConfig(42, 20, out_dir=sys.argv[1])); "
            "print('encodings.ascii' in sys.modules)")
    out = subprocess.run([sys.executable, "-B", "-S", "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=60,
                         env={"PYTHONPATH": SRC}).stdout
    assert out == "False\n"
