"""Oracles for the fast paths: every indexed or short-cut answer must equal
the plain linear-scan or full-diff answer it replaced."""

import collections
import contextlib
import copy
import csv
import dataclasses
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from healsim import harness, monitor
from healsim.executor import ExecutionError, execute
from healsim.faults import FaultInstance, FaultKind, NoEligibleTarget, draw_fault, inject
from healsim.harness import ScenarioConfig, ScenarioRunner
from healsim.model import (
    ArchitectureModel,
    Component,
    ComponentState,
    ConnectorSpec,
    ModelError,
    TargetAbsent,
    UnknownConnector,
    UnknownSlot,
    Violation,
    ViolationKind,
    blueprint_from_json,
    default_blueprint,
    instantiate_blueprint,
    validate,
)
from healsim.monitor import (
    ABSENT_SLOT,
    ChangeEvent,
    EventKind,
    SlotView,
    Snapshot,
    observe,
    take_snapshot,
)
from healsim.planner import canonical_json
from healsim.rules import RepairPlan, Strategy, parse_rules
from test_golden import layered_blueprint_doc

# Two App and two Store slots, wired in pairs: the cross links satisfy the
# interfaces without being intended, so the model must reject them as such.
REPLICA_DOC = {
    "types": [
        {"name": "Client", "provides": "Client", "requires": ["App"]},
        {"name": "App", "provides": "App", "requires": ["Store"]},
        {"name": "Store", "provides": "Store", "requires": []},
    ],
    "slots": [
        {"slot": "Client", "type": "Client"},
        {"slot": "App A", "type": "App"},
        {"slot": "App B", "type": "App"},
        {"slot": "Store A", "type": "Store"},
        {"slot": "Store B", "type": "Store"},
    ],
    "connectors": [
        {"from": "Client", "to": "App A", "interface": "App"},
        {"from": "App A", "to": "Store A", "interface": "Store"},
        {"from": "App B", "to": "Store B", "interface": "Store"},
    ],
}


def load(doc):
    return default_blueprint() if doc is None else blueprint_from_json(doc)


# -- (a) indexed blueprint lookups vs linear scans ---------------------------


def scan_has_slot(bp, slot):
    return any(slot == name for name, _ in bp.slots)


def scan_type_of_slot(bp, slot):
    for name, type_name in bp.slots:
        if name == slot:
            for ct in bp.component_types:
                if ct.name == type_name:
                    return ct
    raise UnknownSlot(slot)


def scan_dependencies_of(bp, slot):
    if not scan_has_slot(bp, slot):
        raise UnknownSlot(slot)
    deps = []
    for spec in bp.intended_connectors:
        if spec.source == slot and spec.target not in deps:
            deps.append(spec.target)
    return deps


def scan_incident(bp, slot):
    return [s for s in bp.intended_connectors if slot in (s.source, s.target)]


def scan_find_intended(bp, source, target):
    for spec in bp.intended_connectors:
        if spec.source == source and spec.target == target:
            return spec
    return None


def scan_connector_named(bp, name):
    for spec in bp.intended_connectors:
        if spec.render() == name:
            return spec
    return None


@pytest.mark.parametrize("doc", [None, layered_blueprint_doc(50)], ids=["default", "layered50"])
def test_indexed_lookups_equal_linear_scans(doc):
    bp = load(doc)
    slots = [slot for slot, _ in bp.slots]
    assert bp.slot_names() == slots
    for slot in slots:
        assert bp.has_slot(slot) and scan_has_slot(bp, slot)
        assert bp.type_of_slot(slot) == scan_type_of_slot(bp, slot)
        assert bp.dependencies_of(slot) == scan_dependencies_of(bp, slot)
        assert bp.connectors_incident_to(slot) == scan_incident(bp, slot)
        for other in slots:
            assert bp.find_intended(slot, other) is scan_find_intended(bp, slot, other)
            rendered = f"{slot}->{other}"
            assert bp.connector_named(rendered) is scan_connector_named(bp, rendered)
    for unknown in ("Order Service", "", "L50", "A->B->C->D"):
        assert not bp.has_slot(unknown)
        with pytest.raises(UnknownSlot):
            bp.type_of_slot(unknown)
        with pytest.raises(UnknownSlot):
            bp.dependencies_of(unknown)
        assert bp.connectors_incident_to(unknown) == []
        assert bp.find_intended(unknown, slots[0]) is None
        assert bp.connector_named(unknown) is scan_connector_named(bp, unknown)


def test_lookups_return_fresh_lists():
    bp = default_blueprint()
    bp.dependencies_of("Frontend").clear()
    bp.connectors_incident_to("Frontend").clear()
    assert bp.dependencies_of("Frontend") == scan_dependencies_of(bp, "Frontend")
    assert bp.connectors_incident_to("Frontend") == scan_incident(bp, "Frontend")


# -- (b) validate, live order and observe over random damage and repair ------


def brute_validate(model):
    bp = model.blueprint
    out = []
    for slot, _ in bp.slots:
        comp = model.components[slot]
        if comp is None:
            out.append(Violation(ViolationKind.MISSING_COMPONENT, slot))
        elif comp.state is ComponentState.UNKNOWN:
            out.append(Violation(ViolationKind.UNKNOWN_STATE, slot))
        elif comp.state in (ComponentState.STOPPED, ComponentState.UNDEPLOYED):
            out.append(Violation(ViolationKind.NOT_STARTED, slot))
    for spec in bp.intended_connectors:
        src, dst = model.components[spec.source], model.components[spec.target]
        if src is not None and dst is not None and not any(c == spec for c in model.connectors):
            out.append(Violation(ViolationKind.MISSING_CONNECTOR, spec))
    return out


def reference_observe(prev, cur):
    """Slot events from observe itself (no connectors to compare), then
    connector events from sets built unconditionally."""
    events = observe(
        dataclasses.replace(prev, connectors=()), dataclasses.replace(cur, connectors=())
    )
    prev_set, cur_set = set(prev.connectors), set(cur.connectors)
    events += [
        ChangeEvent(EventKind.CONNECTOR_REMOVED, s, at=cur.clock)
        for s in prev.connectors
        if s not in cur_set
    ]
    events += [
        ChangeEvent(EventKind.CONNECTOR_ADDED, s, at=cur.clock)
        for s in cur.connectors
        if s not in prev_set
    ]
    return events


def apply_step(model, step):
    bp = model.blueprint
    slots = bp.slot_names()
    op, choice, i, j = step
    if op == "inject":
        kind = list(FaultKind)[choice]
        if kind is FaultKind.CF4:
            targets = bp.intended_connectors
            fault = FaultInstance(kind, targets[i % len(targets)])
        else:
            fault = FaultInstance(
                kind, slots[i % len(slots)], 1 + j % 9 if kind is FaultKind.CF2 else None
            )
        inject(model, fault)
    elif op == "execute":
        strategy = list(Strategy)[choice]
        if strategy is Strategy.AS3:
            conns = bp.intended_connectors
            subject = conns[i % len(conns)].render()
        else:
            subject = slots[i % len(slots)]
        execute(model, RepairPlan(strategy, subject, "oracle"))
    else:
        src, dst = slots[i % len(slots)], slots[j % len(slots)]
        spec = ConnectorSpec(src, dst, bp.type_of_slot(dst).provided_interface)
        if bp.find_intended(src, dst) != spec:
            def seen():  # what the next take_snapshot and observe read
                return (model.slot_views(), model.live_connectors(), model.clock,
                        dict(model._journal))

            before = seen()
            with pytest.raises(UnknownConnector):
                model.add_connector(spec)
            assert seen() == before  # rejected without a trace
        elif model.present(src) and model.present(dst):
            model.add_connector(spec)
            assert spec in model.connectors
        else:
            with pytest.raises(TargetAbsent):
                model.add_connector(spec)


STEP = st.tuples(
    st.sampled_from(["inject", "execute", "connect"]),
    st.integers(0, 3),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
STEPS = st.lists(STEP, max_size=40)


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
# each fault kind followed by the repair that undoes it, on the same target
@example(steps=[("inject", 1, 2, 3), ("execute", 0, 2, 0)])  # CF2, AS1
@example(steps=[("inject", 1, 1, 3), ("execute", 1, 1, 0)])  # CF2, AS2 in place
@example(steps=[("inject", 2, 1, 0), ("execute", 1, 1, 0)])  # CF3, AS2
@example(steps=[("inject", 0, 3, 0), ("execute", 3, 3, 0)])  # CF1, AS4
@example(steps=[("inject", 3, 0, 0), ("execute", 2, 0, 0)])  # CF4 first, AS3
@example(steps=[("inject", 3, -1, 0), ("execute", 2, -1, 0)])  # CF4 last, AS3
@example(steps=[("connect", 0, 2, 3), ("inject", 2, 2, 0), ("inject", 2, 3, 0)])  # connect, CF3s
def test_fast_paths_equal_references_over_random_steps(doc, steps):
    bp = load(doc)
    model = instantiate_blueprint(bp)
    first = take_snapshot(model)
    for step in steps:
        before = take_snapshot(model)
        scanned_before = scan_snapshot(model)
        try:
            apply_step(model, step)
        except (ModelError, ExecutionError):
            pass
        after = take_snapshot(model)

        assert validate(model) == brute_validate(model)

        live = model.live_connector_specs()
        assert len(live) == len(model.connectors) and set(live) == model.connectors
        assert live == [s for s in bp.intended_connectors if s in model.connectors]
        for spec in live:  # a live spec always joins two present slots
            assert model.components[spec.source] is not None
            assert model.components[spec.target] is not None

        assert observe(before, after) == reference_observe(before, after)
        assert observe(first, after) == reference_observe(first, after)
        # equal but not identical specs take the same path
        copied = dataclasses.replace(
            after, connectors=tuple(dataclasses.replace(s) for s in after.connectors)
        )
        assert observe(before, copied) == reference_observe(before, copied)
        # the views the mutations keep current equal from-scratch scans
        assert after == scan_snapshot(model)
        assert observe(before, after) == scan_observe(scanned_before, scan_snapshot(model))
        assert_views_match_scans(model, step[3])


# -- (c) derived views kept by the mutations vs from-scratch scans -----------


def scan_live(model):
    """Canonical connector order from a full scan: declaration order."""
    return [s for s in model.blueprint.intended_connectors if s in model.connectors]


def scan_snapshot(model):
    """A snapshot built slot by slot, sharing nothing with the model's views."""
    slots = []
    for slot in model.blueprint.slot_names():
        comp = model.components[slot]
        if comp is None:
            slots.append((slot, ABSENT_SLOT))
        else:
            slots.append((slot, SlotView(True, comp.state, comp.exception_count)))
    return Snapshot(tuple(slots), tuple(scan_live(model)), model.clock)


def scan_observe(prev, cur):
    """Every slot looked up by name, every connector compared by set."""
    at, events = cur.clock, []
    cur_views = dict(cur.slots)
    for slot, before in prev.slots:
        after = cur_views[slot]
        if before.present and not after.present:
            events.append(ChangeEvent(EventKind.COMPONENT_REMOVED, slot, old=before, at=at))
        elif not before.present and after.present:
            events.append(ChangeEvent(EventKind.COMPONENT_ADDED, slot, new=after, at=at))
        elif before.present and after.present:
            if before.state is not after.state:
                events.append(ChangeEvent(
                    EventKind.STATE_CHANGED, slot, old=before.state, new=after.state, at=at
                ))
            if before.exception_count != after.exception_count:
                events.append(ChangeEvent(
                    EventKind.EXCEPTIONS_CHANGED, slot,
                    old=before.exception_count, new=after.exception_count, at=at,
                ))
    prev_set, cur_set = set(prev.connectors), set(cur.connectors)
    events += [
        ChangeEvent(EventKind.CONNECTOR_REMOVED, s, at=at) for s in prev.connectors if s not in cur_set
    ]
    events += [
        ChangeEvent(EventKind.CONNECTOR_ADDED, s, at=at) for s in cur.connectors if s not in prev_set
    ]
    return events


class ScriptedRng:
    """Hands draw_fault fixed numbers: kind index, target index, CF2 magnitude."""

    def __init__(self, *values):
        self.values = iter(values)

    def next(self):
        return next(self.values)


def drawn_targets(model, kind_index, count):
    """The first ``count`` targets draw_fault can pick for a kind, then the
    one it picks for index ``count`` (which wraps around)."""
    return [draw_fault(ScriptedRng(kind_index, k, 0), model).target for k in range(count + 1)]


def assert_views_match_scans(model, pick):
    bp = model.blueprint
    assert take_snapshot(model) == scan_snapshot(model)
    assert model.live_connector_specs() == scan_live(model)
    assert validate(model) == brute_validate(model)

    present = [slot for slot in bp.slot_names() if model.present(slot)]
    assert model.present_slots() == present
    live = scan_live(model)
    for kind_index, targets in ((0, present), (1, present), (2, present), (3, live)):
        if targets:
            assert drawn_targets(model, kind_index, len(targets)) == targets + targets[:1]
        else:
            with pytest.raises(NoEligibleTarget):
                draw_fault(ScriptedRng(kind_index, 0), model)

    if present:  # remove_component on a copy: same specs, same order as the scan
        slot = present[pick % len(present)]
        clone = copy.deepcopy(model)
        expected = [s for s in scan_live(clone) if slot in (s.source, s.target)]
        assert clone.remove_component(slot) == expected
        assert take_snapshot(clone) == scan_snapshot(clone)
        assert validate(clone) == brute_validate(clone)


def test_directly_built_model_matches_scans():
    """A model handed components and connectors instead of built through
    its mutations: an empty slot, damaged states, a missing intended
    connector with both ends present, one whose end is absent. Connectors
    the blueprint does not intend are rejected, the first by name reported."""
    bp = blueprint_from_json(REPLICA_DOC)
    components = {
        slot: Component(f"{slot}#1", bp.type_of_slot(slot).name) for slot in bp.slot_names()
    }
    components["Store B"] = None
    components["App B"].state = ComponentState.UNKNOWN
    components["Client"].state = ComponentState.UNDEPLOYED
    components["App A"].exception_count = 4
    extras = {ConnectorSpec("App B", "Store A", "Store"),
              ConnectorSpec("App A", "Store B", "Store")}
    with pytest.raises(UnknownConnector, match="^connector App A->Store B is not intended$"):
        ArchitectureModel(bp, components, {bp.intended_connectors[0], *extras})
    model = ArchitectureModel(bp, components, {bp.intended_connectors[0]})

    assert validate(model) == brute_validate(model) == [
        Violation(ViolationKind.NOT_STARTED, "Client"),
        Violation(ViolationKind.UNKNOWN_STATE, "App B"),
        Violation(ViolationKind.MISSING_COMPONENT, "Store B"),
        Violation(ViolationKind.MISSING_CONNECTOR, bp.intended_connectors[1]),
    ]
    assert model.live_connector_specs() == [bp.intended_connectors[0]]
    for pick in range(len(bp.slots)):
        assert_views_match_scans(model, pick)

    before = take_snapshot(model)
    assert model.remove_component("App B") == []  # its one connector's end is absent
    model.instantiate("Store B", "Store B#2")
    model.add_connector(bp.intended_connectors[1])
    model.set_state("Client", ComponentState.STARTED)
    after = take_snapshot(model)
    assert after == scan_snapshot(model)
    assert observe(before, after) == scan_observe(before, after)
    assert_views_match_scans(model, 0)


# -- (d) the change journal vs the full diff ---------------------------------


@contextlib.contextmanager
def full_diff_unavailable():
    """observe's full diff builds connector sets; its journal path builds none."""

    def no_set(*args):
        raise AssertionError("observe took the full diff")

    with mock.patch.object(monitor, "set", no_set, create=True):
        yield


def apply_steps(model, steps):
    for step in steps:
        try:
            apply_step(model, step)
        except (ModelError, ExecutionError):
            pass


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=40, deadline=None)
@given(windows=st.lists(st.lists(STEP, min_size=1, max_size=6), max_size=8))
@example(windows=[[("inject", 3, 0, 0), ("execute", 2, 0, 0)]])  # connector removed, re-added
@example(windows=[[("inject", 2, 1, 0), ("execute", 1, 1, 0)]])  # slot emptied, re-instantiated
@example(windows=[[("inject", 2, 1, 0), ("inject", 3, 0, 0), ("execute", 1, 1, 0),
                   ("execute", 2, 0, 0), ("inject", 0, 1, 0), ("execute", 3, 1, 0)]])
@example(windows=[[("connect", 0, 2, 3), ("inject", 2, 3, 0), ("execute", 1, 3, 0),
                   ("connect", 0, 2, 3)]])  # connect around its target's removal and redeploy
def test_journal_windows_equal_full_diff(doc, windows):
    """Several mutations between consecutive snapshots of one model take the
    journal; snapshots of another model of the same blueprint, of a deep
    copy, and replaced snapshots take the full diff. All equal scan_observe."""
    bp = load(doc)
    model, other = instantiate_blueprint(bp), instantiate_blueprint(bp)
    first, before = take_snapshot(model), take_snapshot(model)
    for window in windows:
        scanned_before = scan_snapshot(model)
        clone = copy.deepcopy(model)
        apply_steps(model, window)
        apply_steps(clone, window[::-1])
        apply_steps(other, window[1:])
        after = take_snapshot(model)
        with full_diff_unavailable():
            assert observe(before, after) == scan_observe(scanned_before, scan_snapshot(model))

        cloned, another = take_snapshot(clone), take_snapshot(other)
        pairs = [
            (before, cloned), (cloned, after), (before, another), (another, after),
            (first, after), (dataclasses.replace(before), after),
            (before, dataclasses.replace(after)),
        ]
        for prev, cur in pairs:
            if cur.clock >= prev.clock:
                assert observe(prev, cur) == scan_observe(prev, cur)
                with full_diff_unavailable(), pytest.raises(AssertionError):
                    observe(prev, cur)
        before = after


@pytest.mark.parametrize("doc", [None, layered_blueprint_doc(50)], ids=["default", "layered50"])
def test_harness_observes_through_the_journal(doc, monkeypatch):
    """Every harness observe reads the journal and equals the full diff; the
    model keeps only the changes made since the round's last snapshot."""
    afters = []

    def checked_observe(before, after):
        with full_diff_unavailable():
            events = observe(before, after)
        assert events == scan_observe(before, after)
        afters.append(after)
        return events

    monkeypatch.setattr(harness, "observe", checked_observe)
    runner = ScenarioRunner(ScenarioConfig(seed=7, rounds=300), blueprint=load(doc))
    for _ in range(300):
        runner.run_round()
        assert runner.model._journal is afters[-1]._journal[1]
    assert len(afters) == 300


# -- (e) the direct report encoder vs the dict form --------------------------
#
# harness.round_json writes each round's canonical JSON text directly. The
# dict form it replaced, encoded by canonical_json, is the reference for
# scenario.json; a plain csv.writer loop over the records is the reference
# for rounds.csv.


def fault_doc(fault):
    out = {"kind": fault.kind.value, "target": fault.render_target(),
           "injected_at": fault.injected_at}
    if fault.magnitude is not None:
        out["magnitude"] = fault.magnitude
    return out


def report_doc(report):
    return {
        "report_id": report.report_id,
        "kind": report.kind.value,
        "subject": report.render_subject(),
        "exception_count": report.exception_count,
        "detected_at": report.detected_at,
        "dependent_slots": list(report.dependent_slots),
    }


def plan_doc(report, plan):
    if plan is None:
        return {"report_id": report.report_id, "no_match": True}
    return {
        "report_id": report.report_id,
        "strategy": plan.strategy.value,
        "subject": plan.subject,
        "fired_rule": plan.fired_rule,
    }


def execution_doc(result):
    return {
        "strategy": result.plan.strategy.value,
        "subject": result.plan.subject,
        "mutations": list(result.applied_mutations),
        "new_instance_id": result.new_instance_id,
        "completed_at": result.completed_at,
    }


def round_doc(record):
    return {
        "round": record.index,
        "clock_start": record.clock_start,
        "clock_end": record.clock_end,
        "fault": fault_doc(record.fault),
        "reports": [report_doc(r) for r in record.reports],
        "plans": [plan_doc(r, p) for r, p in zip(record.reports, record.plans)],
        "executions": [execution_doc(e) for e in record.executions],
        "post_violations": [
            {"kind": v.kind.value, "subject": v.render_subject()}
            for v in record.post_violations
        ],
    }


def reference_scenario_json(report):
    config = report.config
    return canonical_json({
        "config": {
            "seed": config.seed,
            "rounds": config.rounds,
            "exception_threshold": config.exception_threshold,
            "rootcause_threshold": config.rootcause_threshold,
            "planner": config.planner,
            "rules": config.rules_path,
            "blueprint": config.blueprint_path,
            "script": config.script_path,
        },
        "rounds": [round_doc(r) for r in report.rounds],
        "root_cause": {"threshold": config.rootcause_threshold, "counters": report.counters},
        "suspects": [
            {
                "component": s.slot,
                "count": s.count,
                "implicated_by": list(s.implicated_by),
                "first_at": s.first_at,
                "last_at": s.last_at,
            }
            for s in report.suspects
        ],
        "unhandled_failures": report.unhandled_failures,
    })


def reference_rounds_csv(report):
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(harness.ROUNDS_CSV_HEADER)
    for record in report.rounds:
        fired = [p for p in record.plans if p is not None]
        writer.writerow([
            record.index,
            record.clock_end,
            record.fault.kind.value,
            record.fault.render_target(),
            len(record.reports),
            len(fired),
            ";".join(p.strategy.value for p in fired),
            len(record.post_violations),
            sum(1 for p in record.plans if p is None),
        ])
    return out.getvalue().encode("utf-8")


# The layered-degraded policy: CF4 goes unhandled, so removed connectors stay
# removed and violations persist, and an escalation rule wins by salience.
DEGRADED_RULES = (
    'rule "restart-on-cf1" when kind == CF1 then AS1\n'
    'rule "replace-on-cf2" when kind == CF2 then AS4\n'
    'rule "redeploy-on-cf3" when kind == CF3 then AS2\n'
    'rule "escalate" salience 10 when kind == CF1 and prior_failures_of_subject >= 2 then AS4\n'
)

# Names with every character class the escaper treats specially: a quote, a
# backslash, a newline, a comma (for the CSV) and non-ASCII text.
QUOTE, BACKSLASH, NEWLINE, COMMA, UNICODE = (
    'Front "end"', "Back\\slash", "Line\nbreak", "Comma, Inc", "Zürich ☃  ",
)
ODD_NAMES_EDGES = [
    (QUOTE, BACKSLASH), (QUOTE, COMMA), (BACKSLASH, NEWLINE), (BACKSLASH, UNICODE),
    (COMMA, UNICODE),
]
ODD_NAMES_DOC = {
    "types": [
        {"name": f"type {s}", "provides": f"api {s}",
         "requires": [f"api {b}" for a, b in ODD_NAMES_EDGES if a == s]}
        for s in (QUOTE, BACKSLASH, NEWLINE, COMMA, UNICODE)
    ],
    "slots": [
        {"slot": s, "type": f"type {s}"} for s in (QUOTE, BACKSLASH, NEWLINE, COMMA, UNICODE)
    ],
    "connectors": [{"from": a, "to": b, "interface": f"api {b}"} for a, b in ODD_NAMES_EDGES],
}
ODD_RULES = (
    'rule "restart \\"cf1\\"" when kind == CF1 then AS1\n'
    'rule "replace\\\\cf2, ü" when kind == CF2 then AS4\n'
    'rule "redeploy ☃" when kind == CF3 then AS2\n'
    'rule "reconnect cf4" when kind == CF4 then AS3\n'
)

CF2_SCRIPT = [
    FaultInstance(FaultKind.CF2, "Bid Service", magnitude=6),
    FaultInstance(FaultKind.CF4, ConnectorSpec("Query Service", "Reputation Service",
                                               "Reputation Service")),
    FaultInstance(FaultKind.CF2, "Bid Service", magnitude=123456789),
    FaultInstance(FaultKind.CF3, "Reputation Service"),
    FaultInstance(FaultKind.CF1, "Frontend"),
    FaultInstance(FaultKind.CF2, "Query Service", magnitude=7),
]


def encoder_cases():
    shop = [(f"shop-seed{seed}", ScenarioConfig(seed=seed, rounds=300), None, None)
            for seed in (1, 7, 42, 2**64 - 1)]
    return shop + [
        ("zero-rounds", ScenarioConfig(seed=5, rounds=0), None, None),
        ("layered50-degraded",
         ScenarioConfig(seed=3, rounds=400, rules_path="degraded.rules"),
         layered_blueprint_doc(50), DEGRADED_RULES),
        ("cf2-script",
         ScenarioConfig(seed=9, rounds=6, script=CF2_SCRIPT, script_path="cf2 \"script\".json",
                        exception_threshold=2, rootcause_threshold=1),
         None, None),
        ("odd-names-default",
         ScenarioConfig(seed=4, rounds=200, rules_path='odd\\"rules".rules',
                        blueprint_path="odd,\nnames ü.json", planner="tcp://[::1]:7070"),
         ODD_NAMES_DOC, ODD_RULES),
        ("odd-names-degraded",
         ScenarioConfig(seed=8, rounds=200, rootcause_threshold=1),
         ODD_NAMES_DOC, DEGRADED_RULES),
    ]


def run_case(case):
    _, config, doc, rules = case
    ruleset = parse_rules(rules) if rules is not None else None
    # The planner spec is only echoed: plan in-process whatever it says.
    runner = ScenarioRunner(dataclasses.replace(config, planner="inproc"), ruleset=ruleset,
                            blueprint=load(doc))
    try:
        return dataclasses.replace(runner.run(), config=config)
    finally:
        runner.close()


@pytest.mark.parametrize("case", encoder_cases(), ids=lambda case: case[0])
def test_report_encoder_equals_dict_form(case, tmp_path):
    report = run_case(case)
    assert harness.scenario_json(report) == reference_scenario_json(report)
    harness.emit_reports(report, str(tmp_path))
    assert (tmp_path / "scenario.json").read_bytes() == reference_scenario_json(report)
    assert (tmp_path / "rounds.csv").read_bytes() == reference_rounds_csv(report)


def test_encoder_cases_cover_every_branch():
    """The cases above reach no-match plans, persisting violations, CF2
    magnitudes, executions with and without a new instance, suspects, and
    targets and fired rules that need escaping."""
    seen = collections.Counter()
    for case in encoder_cases():
        report = run_case(case)
        seen["suspects"] += bool(report.suspects)
        for record in report.rounds:
            seen["magnitude"] += record.fault.magnitude is not None
            seen["no_match"] += None in record.plans
            seen["violations"] += bool(record.post_violations)
            seen["new_instance"] += any(e.new_instance_id for e in record.executions)
            seen["no_new_instance"] += any(e.new_instance_id is None for e in record.executions)
            seen["odd_target"] += any(c in record.fault.render_target() for c in '"\\\n,ü')
            seen["odd_rule"] += any('"' in p.fired_rule for p in record.plans if p is not None)
    assert all(seen[k] for k in ("suspects", "magnitude", "no_match", "violations",
                                 "new_instance", "no_new_instance", "odd_target",
                                 "odd_rule")), seen


def test_enum_values_need_no_escaping():
    # round_json writes enum values between quotes without escaping them
    for text in harness._VALUE.values():
        assert text.isascii() and text.isidentifier()
        assert json.dumps(text) == f'"{text}"'
