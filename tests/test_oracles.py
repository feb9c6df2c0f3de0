"""Oracles for the fast paths: every indexed, compiled or short-cut answer
must equal the plain linear-scan, full-diff or table-walking answer it
replaced."""

import collections
import copy
import csv
import io
import itertools
import json
import re
from enum import EnumMeta
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from healsim import harness, planner, rules
from healsim.analyzer import FailureReport, classify
from healsim.executor import execute
from healsim.faults import FaultInstance, FaultKind, NoEligibleTarget, draw_fault, inject
from healsim.harness import RoundRecord, ScenarioConfig, ScenarioReport, ScenarioRunner
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
    render_subject,
    validate,
)
from healsim.monitor import (
    ChangeEvent,
    ClockRegression,
    EventKind,
    NotConsecutive,
    Snapshot,
    _events,
    observe,
    take_snapshot,
)
from healsim.planner import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ErrorOutcome,
    MalformedFrame,
    NoMatch,
    RemotePlanner,
    decode,
    encode,
    lines,
)
from healsim.rules import _OPS as OPS
from healsim.rules import (
    INT_FIELDS,
    MAX_NESTING,
    And,
    Comparison,
    Fact,
    Not,
    Or,
    RepairPlan,
    Rule,
    RuleError,
    RuleSet,
    RuleSyntaxError,
    Strategy,
    _Token,
    evaluate,
    parse_rules,
)
from healsim.service import _PlanHandler
from test_golden import layered_blueprint_doc
from test_rules import format_rules

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


def connectors_incident_to(bp, slot):
    """Intended connectors with the slot at either end, in declaration order,
    read from the incidence index that ``restore_connectors`` walks; empty
    for an unknown slot."""
    incident = bp._incident[bp._slot_pos[slot]] if bp.has_slot(slot) else ()
    return [bp.intended_connectors[pos] for pos in incident]


def scan_find_intended(bp, source, target):
    for spec in bp.intended_connectors:
        if spec.source == source and spec.target == target:
            return spec
    return None


def scan_connector_named(bp, name):
    for spec in bp.intended_connectors:
        if spec.name == name:
            return spec
    return None


# A slot name with an arrow: the intended "A" to "B->C" and the pair "A->B" to
# "C", which is no connector, both render as "A->B->C".
ARROW_DOC = {
    "types": [
        {"name": "Front", "provides": "Front", "requires": ["Back"]},
        {"name": "Back", "provides": "Back", "requires": []},
    ],
    "slots": [
        {"slot": "A", "type": "Front"},
        {"slot": "B->C", "type": "Back"},
        {"slot": "D", "type": "Back"},
    ],
    "connectors": [{"from": "A", "to": "B->C", "interface": "Back"}],
}


@pytest.mark.parametrize("doc", [None, layered_blueprint_doc(50), ARROW_DOC],
                         ids=["default", "layered50", "arrows"])
def test_indexed_lookups_equal_linear_scans(doc):
    bp = load(doc)
    for spec in bp.intended_connectors:  # every split of its name into a source and a target
        for i in range(len(spec.name) - 1):
            if spec.name.startswith("->", i):
                source, target = spec.name[:i], spec.name[i + 2:]
                assert bp.find_intended(source, target) is scan_find_intended(bp, source, target)
    if doc is ARROW_DOC:
        assert bp.find_intended("A->B", "C") is None
        assert bp.find_intended("A", "B->C") is bp.intended_connectors[0]
    slots = [slot for slot, _ in bp.slots]
    assert bp.slot_names() == slots
    for slot in slots:
        assert bp.has_slot(slot) and scan_has_slot(bp, slot)
        assert bp.dependencies_of(slot) == scan_dependencies_of(bp, slot)
        assert connectors_incident_to(bp, slot) == scan_incident(bp, slot)
        for other in slots:
            assert bp.find_intended(slot, other) is scan_find_intended(bp, slot, other)
            rendered = f"{slot}->{other}"
            assert bp.connector_named(rendered) is scan_connector_named(bp, rendered)
    for unknown in ("Order Service", "", "L50", "A->B->C->D"):
        assert not bp.has_slot(unknown)
        with pytest.raises(UnknownSlot):
            bp.dependencies_of(unknown)
        assert connectors_incident_to(bp, unknown) == []
        assert bp.find_intended(unknown, slots[0]) is None
        assert bp.connector_named(unknown) is scan_connector_named(bp, unknown)


def test_lookups_return_fresh_lists():
    bp = default_blueprint()
    bp.dependencies_of("Frontend").clear()
    assert bp.dependencies_of("Frontend") == scan_dependencies_of(bp, "Frontend")


# -- (b) validate, live order and observe over random damage and repair ------


def brute_validate(model):
    bp = model.blueprint
    out = []
    for slot, _ in bp.slots:
        comp = model.component(slot)
        if comp is None:
            out.append(Violation(ViolationKind.MISSING_COMPONENT, slot))
        elif comp.state is ComponentState.UNKNOWN:
            out.append(Violation(ViolationKind.UNKNOWN_STATE, slot))
        elif comp.state in (ComponentState.STOPPED, ComponentState.UNDEPLOYED):
            out.append(Violation(ViolationKind.NOT_STARTED, slot))
    live = model.live_connector_specs()
    for spec in bp.intended_connectors:
        src, dst = model.component(spec.source), model.component(spec.target)
        if src is not None and dst is not None and not any(c == spec for c in live):
            out.append(Violation(ViolationKind.MISSING_CONNECTOR, spec))
    return tuple(out)


def assert_rep_invariant(model):
    """The representation invariant the ArchitectureModel docstring states,
    recounted from the model's own fields: every live connector joins two
    present slots, the damaged slots are exactly those empty or not STARTED,
    and every held ``SLOT#N`` has an N no greater than the slot's counter."""
    for spec in model.live_connector_specs():
        assert model.present(spec.source) and model.present(spec.target), spec
    assert model._damaged == {pos for pos, comp in enumerate(model._components)
                              if comp is None or comp.state is not ComponentState.STARTED}
    for slot, comp in model.slot_views():
        if comp is not None:
            head, _, n = comp.instance_id.rpartition("#")
            if head == slot and n.isdecimal():
                assert int(n) <= model._instance_seq.get(slot, 0), comp


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
            subject = conns[i % len(conns)].name
        else:
            subject = slots[i % len(slots)]
        execute(model, RepairPlan(strategy, subject, "oracle"))
    else:
        src, dst = slots[i % len(slots)], slots[j % len(slots)]
        spec = ConnectorSpec(src, dst, scan_type_of_slot(bp, dst).provided_interface)
        if bp.find_intended(src, dst) != spec:
            def seen():  # what the next take_snapshot and observe read
                return (model.slot_views(), model.live_connector_specs(), model.clock,
                        dict(model._journal))

            before = seen()
            with pytest.raises(UnknownConnector):
                model.add_connector(spec)
            assert seen() == before  # rejected without a trace
        elif model.present(src) and model.present(dst):
            model.add_connector(spec)
            assert spec in model.live_connector_specs()
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


def assert_draws_match_lists(model):
    """The k-th present slot and live connector, damaged or healed, are the
    k-th of the whole-blueprint lists."""
    present, live = model.present_slots(), model.live_connector_specs()
    assert model.present_count() == len(present) and model.live_count() == len(live)
    assert [model.present_slot(k) for k in range(len(present))] == present
    assert [model.live_connector(k) for k in range(len(live))] == list(live)


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
    assert validate(model) == brute_validate(model) == ()
    assert_draws_match_lists(model)  # healed: nothing damaged, nothing missing
    assert_rep_invariant(model)
    for step in steps:
        before = take_snapshot(model)
        scanned_before = scan_snapshot(model)
        try:
            apply_step(model, step)
        except ModelError:
            pass
        after = take_snapshot(model)

        assert_rep_invariant(model)
        assert validate(model) == brute_validate(model)
        assert_draws_match_lists(model)

        live = model.live_connector_specs()
        assert len(live) == model.live_count() and live == scan_live(model)

        assert observe(before, after) == scan_observe(before, after)
        # the views the mutations keep current equal from-scratch scans
        assert after == scan_snapshot(model)
        assert observe(before, after) == scan_observe(scanned_before, scan_snapshot(model))
        assert_views_match_scans(model, step[3])


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=40, deadline=None)
@given(steps=STEPS)
@example(steps=[("inject", 2, 1, 0), ("execute", 1, 1, 0), ("inject", 2, 1, 0)])  # CF3 twice
@example(steps=[("inject", 3, 0, 0), ("execute", 2, 0, 0), ("inject", 3, 0, 0)])  # CF4 twice
@example(steps=[("inject", 0, 1, 0), ("inject", 2, 1, 0), ("execute", 1, 1, 0),
                ("inject", 0, 1, 0)])  # one slot: UNKNOWN, then missing, then UNKNOWN again
def test_validate_shares_one_violation_per_deviation(doc, steps):
    """validate equals the brute-force list after every step, and a model
    hands out one object per (kind, subject) for its whole life."""
    model = instantiate_blueprint(load(doc))
    shared = {}
    for step in steps:
        try:
            apply_step(model, step)
        except ModelError:
            pass
        assert_rep_invariant(model)
        violations = validate(model)
        assert violations == brute_validate(model)
        for violation, again in zip(violations, validate(model)):
            assert again is violation
            assert shared.setdefault((violation.kind, violation.subject), violation) is violation


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=60, deadline=None)
@given(steps=STEPS, twice=st.lists(st.booleans(), max_size=40))
@example(steps=[("inject", 3, 0, 0), ("inject", 3, 1, 0)], twice=[True, True])  # M, then M' stands
@example(steps=[("inject", 3, 0, 0), ("inject", 0, 1, 0)], twice=[])  # M, then a slot damaged
@example(steps=[("inject", 3, 0, 0), ("execute", 2, 0, 0), ("inject", 3, 0, 0)],
         twice=[])  # M, healed, M again: not the previous call's tuple
def test_validate_keeps_its_answer_exactly_while_the_damage_stands(doc, steps, twice):
    """After every step, called once or twice, validate equals the brute-force
    tuple, and it returns the very tuple of its previous call exactly when
    neither call found a slot damaged and the missing connectors are the same."""
    model = instantiate_blueprint(load(doc))
    previous = None  # the last call's answer, and (no slot damaged, the missing positions)

    def check():
        nonlocal previous
        answer = validate(model)
        assert answer == brute_validate(model)
        standing = not model._damaged, set(model._missing)
        if previous is not None:
            assert (answer is previous[0]) == (standing[0] and standing == previous[1])
        previous = answer, standing

    check()
    for i, step in enumerate(steps):
        try:
            apply_step(model, step)
        except ModelError:
            pass
        check()
        if i < len(twice) and twice[i]:
            check()


@st.composite
def constructor_arguments(draw, bp):
    """``components`` and ``connectors`` for ``ArchitectureModel(bp, ...)``:
    slots emptied or held by an instance in any state, its id well-formed
    (``SLOT#N``) or foreign; now and then a missing or unknown slot, a value
    that is no Component, or a connector that is not intended."""
    slots = bp.slot_names()
    components = {}
    for slot in slots:
        instance_id = draw(st.one_of(
            st.builds("{}#{}".format, st.just(slot), st.integers(0, 12)),
            st.builds("{}#{}".format, st.sampled_from(slots), st.integers(1, 12)),
            st.sampled_from(["", "#3", f"{slot}#", f"{slot}#x", f"{slot}#2#3", f"{slot}#-1"])))
        components[slot] = draw(st.one_of(st.none(), st.builds(
            Component, st.just(instance_id), st.sampled_from(ComponentState), st.integers(0, 3))))
    odd = draw(st.sampled_from(["none"] * 9 + ["missing slot", "unknown slot", "not a component"]))
    if odd == "missing slot":
        del components[draw(st.sampled_from(slots))]
    elif odd == "unknown slot":
        components["No Such Slot"] = None
    elif odd == "not a component":
        components[draw(st.sampled_from(slots))] = "an id"
    intended = bp.intended_connectors
    held = {slot for slot, comp in components.items() if comp is not None}
    joined = [spec for spec in intended if spec.source in held and spec.target in held]
    dangling = [spec for spec in intended if spec not in joined]
    connectors = draw(st.lists(st.sampled_from(joined), unique=True)) if joined else []
    extra = draw(st.sampled_from(["none"] * 3 + ["dangling"] * 2 + ["not intended"]))
    if extra == "dangling" and dangling:
        connectors.append(draw(st.sampled_from(dangling)))
    elif extra == "not intended":
        spec = draw(st.sampled_from(intended))
        connectors.append(draw(st.sampled_from([ConnectorSpec(spec.target, spec.source, "Back"),
                                                ConnectorSpec(spec.source, spec.target, "Other")])))
    return components, tuple(connectors)


def constructor_error(bp, components, connectors):
    """The ModelError subclass the constructor documents for these arguments,
    by the order of its checks; None if they are valid."""
    if components.keys() != set(bp.slot_names()):
        return UnknownSlot
    if any(comp is not None and not isinstance(comp, Component) for comp in components.values()):
        return ModelError
    if any(scan_find_intended(bp, spec.source, spec.target) != spec for spec in connectors):
        return UnknownConnector
    if any(components[spec.source] is None or components[spec.target] is None
           for spec in connectors):
        return TargetAbsent
    return None


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=STEPS)
def test_constructed_models_raise_a_documented_error_or_hold_the_invariant(doc, data, steps):
    """A model built from drawn constructor arguments either raises the
    ModelError subclass its docstring names, or holds the representation
    invariant, answers validate and the draws as the references do, and
    keeps the invariant through random steps: an id it allocates never
    repeats one it was built with."""
    bp = load(doc)
    components, connectors = data.draw(constructor_arguments(bp))
    expected = constructor_error(bp, components, connectors)
    try:
        model = ArchitectureModel(bp, components, connectors)
    except ModelError as exc:
        assert type(exc) is expected, exc
        return
    assert expected is None
    assert_rep_invariant(model)
    assert validate(model) == brute_validate(model)
    assert_draws_match_lists(model)
    apply_steps(model, steps)


def three_step_replace(model, slot):
    """What AS4 did before ``replace``: remove_component when the slot is
    occupied, then a fresh ``SLOT#N`` one past the slot's counter, then
    restore_connectors; returns the new instance and the restored specs."""
    if model.present(slot):
        model.remove_component(slot)
    seq = model._instance_seq[slot] = model._instance_seq.get(slot, 0) + 1
    model._put(model.blueprint._slot_pos[slot], comp := Component(f"{slot}#{seq}"))
    return comp, model.restore_connectors(slot)


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=STEPS)
def test_replace_leaves_the_model_as_removal_fill_and_restore_do(doc, data, steps):
    """On any valid constructed model, damaged further by random steps, one
    ``replace`` of any slot ends in the state the three steps leave: the
    instances, missing connectors, damaged slots, id counters, journal and
    clock; and it returns the specs that ``restore_connectors`` did."""
    bp = load(doc)
    components, connectors = data.draw(constructor_arguments(bp))
    assume(constructor_error(bp, components, connectors) is None)
    model = ArchitectureModel(bp, components, connectors)
    apply_steps(model, steps)
    slot = data.draw(st.sampled_from(bp.slot_names()))
    fast, slow = copy.deepcopy(model), copy.deepcopy(model)
    assert fast.replace(slot) == three_step_replace(slow, slot)
    for name in ("_components", "_missing", "_damaged", "_instance_seq", "_journal", "clock"):
        assert getattr(fast, name) == getattr(slow, name), name
    assert_rep_invariant(fast)


# -- (c) derived views kept by the mutations vs from-scratch scans -----------


def scan_live(model):
    """Canonical connector order from a full scan of the model's one store of
    connector facts, the positions not live: declaration order."""
    intended = model.blueprint.intended_connectors
    return [intended[pos] for pos in range(len(intended)) if pos not in model._missing]


def scan_snapshot(model):
    """A snapshot built slot by slot, sharing nothing with the model's views."""
    slots = []
    for slot in model.blueprint.slot_names():
        comp = model.component(slot)
        if comp is not None:
            comp = Component(comp.instance_id, comp.state, comp.exception_count)
        slots.append((slot, comp))
    return Snapshot(tuple(slots), tuple(scan_live(model)), model.clock)


def scan_observe(prev, cur):
    """Every slot looked up by name, every connector compared by set."""
    at, events = cur.clock, []
    cur_views = dict(cur.slots)
    for slot, before in prev.slots:
        after = cur_views[slot]
        if before is not None and after is None:
            events.append(ChangeEvent(EventKind.COMPONENT_REMOVED, slot, old=before, at=at))
        elif before is None and after is not None:
            events.append(ChangeEvent(EventKind.COMPONENT_ADDED, slot, new=after, at=at))
        elif before is not None and after is not None:
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
    return [draw_fault(ScriptedRng(kind_index, k, 0), model, 5).target for k in range(count + 1)]


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
                draw_fault(ScriptedRng(kind_index, 0), model, 5)

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
    components = {slot: Component(f"{slot}#1") for slot in bp.slot_names()}
    components["Store B"] = None
    components["App B"] = Component("App B#1", ComponentState.UNKNOWN)
    components["Client"] = Component("Client#1", ComponentState.UNDEPLOYED)
    components["App A"] = Component("App A#1", exception_count=4)
    extras = {ConnectorSpec("App B", "Store A", "Store"),
              ConnectorSpec("App A", "Store B", "Store")}
    with pytest.raises(UnknownConnector, match="^connector App A->Store B is not intended$"):
        ArchitectureModel(bp, components, {bp.intended_connectors[0], *extras})
    model = ArchitectureModel(bp, components, {bp.intended_connectors[0]})

    assert validate(model) == brute_validate(model) == (
        Violation(ViolationKind.NOT_STARTED, "Client"),
        Violation(ViolationKind.UNKNOWN_STATE, "App B"),
        Violation(ViolationKind.MISSING_COMPONENT, "Store B"),
        Violation(ViolationKind.MISSING_CONNECTOR, bp.intended_connectors[1]),
    )
    assert model.live_connector_specs() == [bp.intended_connectors[0]]
    for pick in range(len(bp.slots)):
        assert_views_match_scans(model, pick)

    before = take_snapshot(model)
    assert model.remove_component("App B") == []  # its one connector's end is absent
    # built empty: no id held; its one connector's other end is absent
    assert model.replace("Store B") == (Component("Store B#1"), [])
    model.add_connector(bp.intended_connectors[1])
    model.set_state("Client", ComponentState.STARTED)
    after = take_snapshot(model)
    assert after == scan_snapshot(model)
    assert observe(before, after) == scan_observe(before, after)
    assert_views_match_scans(model, 0)


def test_an_empty_slot_with_no_connectors_is_skipped_while_every_connector_is_live():
    """A slot with no intended connectors empties without a connector going
    missing, so only the slot damage tells the draw which slot to skip."""
    doc = copy.deepcopy(REPLICA_DOC)
    doc["slots"].insert(2, {"slot": "Spare", "type": "Store"})
    model = instantiate_blueprint(blueprint_from_json(doc))
    assert model.remove_component("Spare") == [] and model.live_count() == 3
    assert_draws_match_lists(model)
    assert model.present_slot(2) == "App B"
    assert validate(model) == brute_validate(model) == (
        Violation(ViolationKind.MISSING_COMPONENT, "Spare"),)
    assert model.replace("Spare") == (Component("Spare#2"), [])
    assert_draws_match_lists(model)
    assert validate(model) == brute_validate(model) == ()


# -- (d) the change journal vs the full diff ---------------------------------


def apply_steps(model, steps):
    """Each step in turn, a ModelError skipping it; the representation
    invariant holds after each."""
    for step in steps:
        try:
            apply_step(model, step)
        except ModelError:
            pass
        assert_rep_invariant(model)


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(6), REPLICA_DOC], ids=["default", "layered6", "replica"]
)
@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
@example(steps=[("inject", 2, 0, 0), ("inject", 2, -1, 0), ("inject", 3, 1, 0)])  # both ends
def test_indexed_draws_equal_the_listed_targets(doc, steps):
    """On a damaged model, the k-th present slot and live connector, found
    from the damage alone, are the k-th of the whole-blueprint lists."""
    model = instantiate_blueprint(load(doc))
    apply_steps(model, steps)
    assert_draws_match_lists(model)


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
@example(windows=[[("inject", 0, 2, 0), ("inject", 1, 2, 4)]])  # CF1, CF2 on one slot: state first
@example(windows=[[("inject", 3, 5, 0), ("inject", 2, 0, 0)]])  # CF4 away from a CF3: both event kinds
def test_journal_windows_equal_full_diff(doc, windows):
    """Several mutations between consecutive snapshots of one model: observe
    reads the journal and equals scan_observe. Any other pair (snapshots of
    another model of the same blueprint or of a deep copy, not consecutive,
    replaced, a snapshot with itself) raises NotConsecutive, or
    ClockRegression first when its clock goes back."""
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
        assert observe(before, after) == scan_observe(scanned_before, scan_snapshot(model))

        cloned, another = take_snapshot(clone), take_snapshot(other)
        pairs = [
            (before, cloned), (cloned, after), (before, another), (another, after),
            (first, after), (Snapshot(before.slots, before.connectors, before.clock), after),
            (before, Snapshot(after.slots, after.connectors, after.clock)), (after, after),
        ]
        for prev, cur in pairs:
            with pytest.raises(ClockRegression if cur.clock < prev.clock else NotConsecutive):
                observe(prev, cur)
        before = after


def observe_changes(model):
    """The events since the model's journal was last cut, which this cuts:
    what ``observe`` gives for snapshots taken then and now, without them."""
    return _events(model.cut_journal()[0], model.blueprint._slot_names, model._components,
                   model.clock)


def event_classify(events, model, exception_threshold, first_report_id=0):
    """The failure reports of change events, in event order: the classifier
    that read ``observe_changes`` before ``classify`` read the journal.

    STATE_CHANGED to UNKNOWN is CF1; EXCEPTIONS_CHANGED past the threshold
    is CF2; COMPONENT_REMOVED is CF3; CONNECTOR_REMOVED is CF4 only while
    both endpoints are still present. Additions and benign changes yield
    nothing."""
    reports = []
    for event in events:
        kind, subject = event.kind, event.subject
        if kind is EventKind.STATE_CHANGED and event.new is ComponentState.UNKNOWN:
            fault, count = FaultKind.CF1, 0
        elif kind is EventKind.EXCEPTIONS_CHANGED and event.new > exception_threshold:
            fault, count = FaultKind.CF2, event.new
        elif kind is EventKind.COMPONENT_REMOVED:
            fault, count = FaultKind.CF3, 0
        elif (kind is EventKind.CONNECTOR_REMOVED and model.present(subject.source)
              and model.present(subject.target)):
            reports.append(FailureReport(first_report_id + len(reports), FaultKind.CF4, subject,
                                         0, event.at, ()))
            continue
        else:
            continue
        reports.append(FailureReport(first_report_id + len(reports), fault, subject, count,
                                     event.at, tuple(model.blueprint.dependencies_of(subject))))
    return reports


@pytest.mark.parametrize(
    "doc", [None, layered_blueprint_doc(50), ARROW_DOC], ids=["default", "layered50", "arrow"]
)
@settings(max_examples=60, deadline=None)
@given(windows=st.lists(st.lists(STEP, min_size=1, max_size=3), max_size=10),
       threshold=st.integers(1, 9), first_id=st.integers(0, 10**6))
@example(windows=[[("inject", 0, 2, 0), ("inject", 1, 2, 4)]], threshold=3, first_id=0)  # CF1, CF2
@example(windows=[[("inject", 3, 5, 0), ("inject", 2, 0, 0)]], threshold=5, first_id=9)  # CF4, CF3
@example(windows=[[("inject", 3, 0, 0), ("inject", 3, 4, 0), ("inject", 3, 2, 0)]],
         threshold=5, first_id=0)  # three CF4s: reported in connector order
@example(windows=[[("inject", 2, 1, 0), ("execute", 1, 1, 0)]], threshold=5, first_id=0)
# CF1 on a slot already past the threshold: its unchanged exception count is no CF2
@example(windows=[[("inject", 1, 0, 6)], [("inject", 0, 0, 0)]], threshold=3, first_id=0)
def test_journal_classifier_equals_event_reference(doc, windows, threshold, first_id):
    """``classify`` reads a journal window directly and gives, id for id, the
    reports the event classifier gives for the full diff of scan snapshots
    taken at the window's ends; it leaves an empty journal."""
    model = instantiate_blueprint(load(doc))
    model.cut_journal()
    for window in windows:
        before = scan_snapshot(model)
        model.advance_clock(window[0][2] % 1000)
        apply_steps(model, window)
        events = scan_observe(before, scan_snapshot(model))
        reports = classify(model, threshold, first_id)
        assert model._journal == {}
        assert reports == event_classify(events, model, threshold, first_id)
        for report in reports:
            if report.kind is not FaultKind.CF4:
                assert report.dependent_slots is model.blueprint._dependencies[report.subject]


@pytest.mark.parametrize("doc", [None, layered_blueprint_doc(50)], ids=["default", "layered50"])
def test_harness_observes_through_the_journal(doc, monkeypatch):
    """Every round's reports equal the event classifier's over the full diff
    of scan snapshots taken just before and just after its injection, and
    classifying leaves the model an empty journal."""
    scans, classified = [], []

    def scanned_inject(model, fault):
        scans.append(scan_snapshot(model))
        inject(model, fault)
        scans.append(scan_snapshot(model))

    def checked_classify(model, exception_threshold, first_report_id):
        events = scan_observe(*scans[-2:])
        reports = classify(model, exception_threshold, first_report_id)
        assert model._journal == {}
        assert reports == event_classify(events, model, exception_threshold, first_report_id)
        classified.append((events, reports))
        return reports

    monkeypatch.setattr(harness, "inject", scanned_inject)
    monkeypatch.setattr(harness, "classify", checked_classify)
    runner = ScenarioRunner(ScenarioConfig(seed=7, rounds=300), blueprint=load(doc))
    for _ in range(300):
        runner.run_round()
    assert len(classified) == 300 and all(events and reports for events, reports in classified)


def test_a_run_builds_no_change_event(monkeypatch):
    """A round classifies the journal window itself: 300 rounds build no ChangeEvent."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a round built a ChangeEvent")

    monkeypatch.setattr(ChangeEvent, "__init__", refuse)
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=300))
    report = runner.run()
    runner.close()
    assert len(report.rounds) == 300 and all(r.reports for r in report.rounds)


# -- (e) the direct report encoder vs the dict form --------------------------
#
# harness.scenario_chunks writes scenario.json's canonical JSON text
# directly: its head and tail, and each round through round_json. The dict
# form it replaced, encoded by canonical_json, is the reference for
# scenario.json, and the wire codec's frames are checked against it too; a
# plain csv.writer loop over the records is the reference for rounds.csv.

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc):
    """Sorted keys, compact separators, ASCII escapes, UTF-8, one LF: equal docs, equal bytes."""
    return _CANONICAL.encode(doc).encode("utf-8") + b"\n"


def fault_doc(fault):
    out = {"kind": fault.kind.value, "target": render_subject(fault.target),
           "injected_at": fault.injected_at}
    if fault.magnitude is not None:
        out["magnitude"] = fault.magnitude
    return out


def report_doc(report):
    return {
        "report_id": report.report_id,
        "kind": report.kind.value,
        "subject": render_subject(report.subject),
        "exception_count": report.exception_count,
        "detected_at": report.detected_at,
        "dependent_slots": list(report.dependent_slots),
    }


def plan_doc(report, plan):
    if isinstance(plan, NoMatch):
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
            {"kind": v.kind.value, "subject": render_subject(v.subject)}
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
        fired = [p for p in record.plans if not isinstance(p, NoMatch)]
        writer.writerow([
            record.index,
            record.clock_end,
            record.fault.kind.value,
            render_subject(record.fault.target),
            len(record.reports),
            len(fired),
            ";".join(p.strategy.value for p in fired),
            len(record.post_violations),
            sum(1 for p in record.plans if isinstance(p, NoMatch)),
        ])
    return out.getvalue().encode("utf-8")


def reference_suspects_csv(report):
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(harness.SUSPECT_CSV_HEADER)
    for s in report.suspects:
        writer.writerow([s.slot, s.count, ";".join(s.implicated_by), s.first_at, s.last_at])
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

# Slot names whose rounds.csv cell goes through csv (a comma, a quote, a
# carriage return, a line feed) beside ones written as they are (a leading
# space, a non-ASCII letter).
CSV_NAMES = ("Comma, Ltd", 'Say "hi"', "Carriage\rReturn", "Line\nFeed", " Leading", "Ærø")
CSV_NAMES_DOC = {
    "types": [
        {"name": f"type {i}", "provides": f"api {i}", "requires": [f"api {i + 1}"] if i < 5 else []}
        for i in range(len(CSV_NAMES))
    ],
    "slots": [{"slot": name, "type": f"type {i}"} for i, name in enumerate(CSV_NAMES)],
    "connectors": [
        {"from": CSV_NAMES[i], "to": CSV_NAMES[i + 1], "interface": f"api {i + 1}"}
        for i in range(len(CSV_NAMES) - 1)
    ],
}

CF2_SCRIPT = [
    FaultInstance(FaultKind.CF2, "Bid Service", magnitude=6),
    FaultInstance(FaultKind.CF4, ConnectorSpec("Query Service", "Reputation Service",
                                               "Reputation Service")),
    FaultInstance(FaultKind.CF2, "Bid Service", magnitude=123456789),
    FaultInstance(FaultKind.CF3, "Reputation Service"),
    FaultInstance(FaultKind.CF1, "Frontend"),
    FaultInstance(FaultKind.CF2, "Query Service", magnitude=7),
]

# Under a CF2-only policy nothing else is repaired, so one slot is reported
# first as UNKNOWN_STATE and then as MISSING_COMPONENT: two violations of one
# subject, each rendered by its own kind.
UNREPAIRED_SCRIPT = [
    FaultInstance(FaultKind.CF1, "Bid Service"),
    FaultInstance(FaultKind.CF4, ConnectorSpec("Query Service", "Reputation Service",
                                               "Reputation Service")),
    FaultInstance(FaultKind.CF3, "Bid Service"),
    FaultInstance(FaultKind.CF1, "Query Service"),
    FaultInstance(FaultKind.CF2, "Frontend", magnitude=6),
]
CF2_ONLY_RULES = 'rule "replace-on-cf2" when kind == CF2 then AS4\n'

# A CF4 repaired in a round that ends with no violations, so its report's
# dependent_slots and the round's post_violations are both the empty tuple;
# then CF1s left unrepaired take the violations from A to B and, once a
# replacement heals the second slot, back to a tuple equal to A.
STANDING_SCRIPT = [
    FaultInstance(FaultKind.CF4, ConnectorSpec("Query Service", "Reputation Service",
                                               "Reputation Service")),
    FaultInstance(FaultKind.CF1, "Bid Service"),  # A
    FaultInstance(FaultKind.CF2, "Frontend", magnitude=6),  # A stands: one tuple
    FaultInstance(FaultKind.CF1, "Frontend"),  # B
    FaultInstance(FaultKind.CF2, "Frontend", magnitude=7),  # A again, a tuple of its own
]
NO_CF1_RULES = (
    'rule "replace-on-cf2" when kind == CF2 then AS4\n'
    'rule "reconnect-on-cf4" when kind == CF4 then AS3\n'
)


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
        ("unrepaired-script",
         ScenarioConfig(seed=2, rounds=5, script=UNREPAIRED_SCRIPT, script_path="unrepaired.json"),
         None, CF2_ONLY_RULES),
        ("odd-names-default",
         ScenarioConfig(seed=4, rounds=200, rules_path='odd\\"rules".rules',
                        blueprint_path="odd,\nnames ü.json", planner="tcp://[::1]:7070"),
         ODD_NAMES_DOC, ODD_RULES),
        ("odd-names-degraded",
         ScenarioConfig(seed=8, rounds=200, rootcause_threshold=1),
         ODD_NAMES_DOC, DEGRADED_RULES),
        ("csv-names", ScenarioConfig(seed=11, rounds=48), CSV_NAMES_DOC, None),
        ("standing-script",
         ScenarioConfig(seed=6, rounds=5, script=STANDING_SCRIPT, script_path="standing.json"),
         None, NO_CF1_RULES),
        # The directly written head: every path escaped as canonical_json escapes
        # it (a quote, a backslash, control characters, non-ASCII text outside and
        # inside the BMP), a None path written as null, and a negative seed.
        ("escaped-config",
         ScenarioConfig(seed=-42, rounds=6, script=CF2_SCRIPT,
                        rules_path='rules "q" \\ \x07\t é.rules',
                        blueprint_path='bp "\\" \x1f ☃.json', script_path='s\\"\n\x00 😀.json'),
         None, ODD_RULES),
        ("escaped-config-null-script",
         ScenarioConfig(seed=-(2**63), rounds=60, rules_path='r\\"\x7f\u2028.rules',
                        blueprint_path="layered \x01 ü.json"),
         layered_blueprint_doc(12), DEGRADED_RULES),
    ]


def run_case(case):
    _, config, doc, rules = case
    ruleset = parse_rules(rules) if rules is not None else None
    # The planner spec is only echoed: plan in-process whatever it says.
    inproc = ScenarioConfig(config.seed, config.rounds, config.exception_threshold,
                            config.rootcause_threshold, "inproc", config.rules_path,
                            config.blueprint_path, config.script_path, config.script,
                            config.out_dir)
    runner = ScenarioRunner(inproc, ruleset=ruleset, blueprint=load(doc))
    try:
        report = runner.run()
        return ScenarioReport(config, report.rounds, report.counters, report.suspects,
                              report.unhandled_failures)
    finally:
        runner.close()


@pytest.mark.parametrize("case", encoder_cases(), ids=lambda case: case[0])
def test_report_encoder_equals_dict_form(case, tmp_path):
    report = run_case(case)
    assert harness.scenario_json(report) == reference_scenario_json(report)
    harness.emit_reports(report, str(tmp_path))
    assert (tmp_path / "scenario.json").read_bytes() == reference_scenario_json(report)
    assert (tmp_path / "rounds.csv").read_bytes() == reference_rounds_csv(report)
    assert (tmp_path / "suspects.csv").read_bytes() == reference_suspects_csv(report)


def test_equal_but_distinct_violations_give_the_dict_form_bytes():
    """scenario_chunks renders a violation once per object: a report whose
    violations are equal but not shared gives the same bytes as the shared ones."""
    case = next(c for c in encoder_cases() if c[0] == "layered50-degraded")
    report = run_case(case)
    copied = ScenarioReport(report.config, [
        RoundRecord(r.index, r.fault, r.reports, r.plans, r.executions, tuple(
            Violation(v.kind, ConnectorSpec(v.subject.source, v.subject.target, v.subject.interface)
                      if isinstance(v.subject, ConnectorSpec) else v.subject)
            for v in r.post_violations), r.clock_start, r.clock_end)
        for r in report.rounds
    ], report.counters, report.suspects, report.unhandled_failures)
    ids = [id(v) for r in copied.rounds for v in r.post_violations]
    assert len(set(ids)) == len(ids) > 1000  # no object is shared
    assert harness.scenario_json(copied) == reference_scenario_json(copied)
    assert harness.scenario_json(copied) == harness.scenario_json(report)


def test_degraded_run_builds_each_violation_once(monkeypatch):
    """On a layered-50 degraded run, damage stands for many rounds, yet each
    distinct (kind, subject) it reports is built as a Violation at most once."""
    built = collections.Counter()
    init = Violation.__init__

    def counting_init(self, kind, subject):
        built[kind, subject] += 1
        init(self, kind, subject)

    monkeypatch.setattr(Violation, "__init__", counting_init)
    case = next(c for c in encoder_cases() if c[0] == "layered50-degraded")
    report = run_case(case)
    reported = {(v.kind, v.subject) for r in report.rounds for v in r.post_violations}
    assert sum(len(r.post_violations) for r in report.rounds) > 5 * len(reported)
    assert set(built) == reported and max(built.values()) == 1


def test_standing_violations_share_one_tuple_and_the_empty_tuple_renders_empty():
    """The standing-script case: a round whose violations equal the previous
    round's holds that round's tuple, and one equal to an earlier, not the
    previous, round's holds its own. The empty tuple is one object as a CF4
    report's dependent_slots and as its round's post_violations, and renders
    as empty text in both."""
    case = next(c for c in encoder_cases() if c[0] == "standing-script")
    rounds = run_case(case).rounds
    cf4, a, a_stands, b, a_again = (r.post_violations for r in rounds)
    assert rounds[0].reports[0].kind is FaultKind.CF4
    assert rounds[0].reports[0].dependent_slots is cf4 == ()
    assert a_stands is a and len(a) == 1 and len(b) == 2
    assert a_again == a and a_again is not a
    text = harness.round_json(rounds[0], {})
    assert '"dependent_slots":[]' in text and '"post_violations":[]' in text
    rendered = {}
    texts = [harness.round_json(r, rendered) for r in rounds]
    assert texts[1].count('"UNKNOWN_STATE"') == texts[2].count('"UNKNOWN_STATE"') == 1
    assert [json.loads(t)["post_violations"] for t in texts] == [
        [{"kind": v.kind.value, "subject": render_subject(v.subject)} for v in r.post_violations]
        for r in rounds]


def test_degraded_run_shares_each_standing_violation_tuple(monkeypatch):
    """On layered-200 under the degraded policy at seed 42, consecutive rounds
    with equal violations hold one tuple: there are as many distinct tuples as
    changes of the violations, and scenario_chunks joins each of them once."""
    runner = ScenarioRunner(ScenarioConfig(seed=42, rounds=200),
                            ruleset=parse_rules(DEGRADED_RULES),
                            blueprint=load(layered_blueprint_doc(200)))
    try:
        report = runner.run()
    finally:
        runner.close()
    records = report.rounds
    stretches = [[r.post_violations for r in group] for _, group in
                 itertools.groupby(records, key=lambda r: r.post_violations)]
    assert all(t is stretch[0] for stretch in stretches for t in stretch)
    standing = [stretch for stretch in stretches if stretch[0]]  # () is one object anyway
    assert len({id(r.post_violations) for r in records if r.post_violations}) == len(standing)
    assert sum(len(stretch) - 1 for stretch in standing) > len(records) // 2

    class CountedTuple(tuple):
        def __iter__(self):
            joined[id(self)] += 1
            return super().__iter__()

    joined = collections.Counter()
    counted = {}
    copied = ScenarioReport(report.config, [
        RoundRecord(r.index, r.fault, r.reports, r.plans, r.executions,
                    counted.setdefault(id(r.post_violations), CountedTuple(r.post_violations)),
                    r.clock_start, r.clock_end)
        for r in records
    ], report.counters, report.suspects, report.unhandled_failures)
    assert harness.scenario_json(copied) == harness.scenario_json(report)
    assert len(joined) == len(counted) and set(joined.values()) == {1}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), doc=st.sampled_from([None, layered_blueprint_doc(12), REPLICA_DOC]))
def test_validate_equals_brute_force_with_missing_connectors(data, doc):
    """With missing connectors, validate equals the brute-force list both with
    no slot damaged (where it checks no endpoint) and once one is."""
    model = instantiate_blueprint(load(doc))
    intended = model.blueprint.intended_connectors
    for spec in data.draw(st.lists(st.sampled_from(intended), min_size=1, unique=True)):
        model.remove_connector(spec)
    assert not model._damaged
    assert validate(model) == brute_validate(model) != ()
    slot = data.draw(st.sampled_from(model.blueprint.slot_names()))
    kind = data.draw(st.sampled_from([FaultKind.CF1, FaultKind.CF3]))
    inject(model, FaultInstance(kind, slot))
    assert model._damaged
    assert validate(model) == brute_validate(model)


def test_encoder_cases_cover_every_branch():
    """The cases above reach no-match plans, persisting violations, one
    subject under two violation kinds, CF2 magnitudes, executions with and
    without a new instance, suspects, targets and fired rules that need
    escaping, targets whose rounds.csv cell goes through csv (a carriage
    return) or is written as it is (a leading space), and suspects whose
    suspects.csv cells go through csv."""
    seen = collections.Counter()
    for case in encoder_cases():
        report = run_case(case)
        seen["suspects"] += bool(report.suspects)
        seen["quoted_suspect"] += any(c in text for s in report.suspects
                                      for text in (s.slot, *s.implicated_by) for c in ',"\r\n')
        kinds_of = collections.defaultdict(set)
        for record in report.rounds:
            for v in record.post_violations:
                kinds_of[v.subject].add(v.kind)
        seen["subject_of_two_kinds"] += any(len(kinds) > 1 for kinds in kinds_of.values())
        for record in report.rounds:
            seen["magnitude"] += record.fault.magnitude is not None
            seen["no_match"] += NoMatch() in record.plans
            seen["violations"] += bool(record.post_violations)
            seen["new_instance"] += any(e.new_instance_id for e in record.executions)
            seen["no_new_instance"] += any(e.new_instance_id is None for e in record.executions)
            target = render_subject(record.fault.target)
            seen["odd_target"] += any(c in target for c in '"\\\n,ü')
            seen["carriage_return_target"] += "\r" in target
            seen["leading_space_target"] += target.startswith(" ")
            seen["odd_rule"] += any('"' in getattr(p, "fired_rule", "") for p in record.plans)
    assert all(seen[k] for k in ("suspects", "magnitude", "no_match", "violations",
                                 "new_instance", "no_new_instance", "odd_target",
                                 "carriage_return_target", "leading_space_target",
                                 "odd_rule", "subject_of_two_kinds", "quoted_suspect")), seen


def test_enum_values_need_no_escaping():
    # round_json writes each member's _value_ between quotes without escaping it
    for member in (*FaultKind, *Strategy, *ViolationKind):
        text = member._value_
        assert text == member.value and text.isascii() and text.isidentifier()
        assert json.dumps(text) == f'"{text}"'


# -- (f) the written-out wire codec and rule order vs the walkers they replaced --
# The planner's encode and decode write and check each field of the two
# frames by hand, and a RuleSet ranks its compiled conditions by salience
# so that evaluate stops at the first match. _BODIES below is the wire
# schema, one table per frame type and per body class; the table walkers
# that read it on every call, and the pick over all rules, are the
# references. A message is a ``(request_id, body)`` pair, as encode takes
# and decode returns it: a request for a Fact body, else a response. Each
# table maps a field to its kind: str or int (a JSON string or integer,
# never a bool), an Enum (a string naming a member), a class (an object per
# that class's table), a dict (an object holding exactly one of its keys,
# with that key's kind), or a constant the field must equal, type included.
# NoMatch's body is ``true``.

_BODIES: dict[object, object] = {
    "plan_request": {"type": "plan_request", "version": PROTOCOL_VERSION,
                     "request_id": int, "fact": Fact},
    "plan_response": {"type": "plan_response", "version": PROTOCOL_VERSION, "request_id": int,
                      "outcome": {"plan": RepairPlan, "no_match": NoMatch, "error": ErrorOutcome}},
    Fact: {"kind": FaultKind, "subject": str, **dict.fromkeys(INT_FIELDS, int)},
    RepairPlan: {"strategy": Strategy, "subject": str, "fired_rule": str},
    NoMatch: True,
    ErrorOutcome: {"code": str, "message": str},
}


_BODY_KEY = {"plan_request": "fact", "plan_response": "outcome"}  # each frame type's body field


def reference_message_json(request_id, body):
    """The JSON form of the frame that carries ``body``."""
    frame_type = "plan_request" if type(body) is Fact else "plan_response"
    fields = SimpleNamespace(request_id=request_id, **{_BODY_KEY[frame_type]: body})
    return reference_json(fields, frame_type)


def reference_json(value, kind):
    """The JSON form of ``value``, whose kind is a frame type, a class or a dict."""
    if isinstance(kind, dict):
        for key, cls in kind.items():
            if type(value) is cls:
                return {key: reference_json(value, cls)}
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
            obj[key] = reference_json(getattr(value, key), field)
        else:
            obj[key] = field
    return obj


def reference_fields(obj, table, where):
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
            if type(value) is not kind:
                raise MalformedFrame(f"{where}.{key} must be {kind.__name__}")
            fields[key] = value
        elif isinstance(kind, EnumMeta):
            try:
                fields[key] = kind(value)
            except ValueError:
                raise MalformedFrame(f"{where}.{key} has unknown value {value!r}") from None
        elif isinstance(kind, (type, dict)):
            fields[key] = reference_value(value, kind, f"{where}.{key}")
        elif type(value) is not type(kind) or value != kind:
            raise MalformedFrame(f"{where}.{key} must be {json.dumps(kind)}")
    return fields


def reference_value(value, kind, where):
    if isinstance(kind, dict):
        if type(value) is not dict or len(value) != 1 or next(iter(value)) not in kind:
            raise MalformedFrame(f"{where} must hold exactly one of {', '.join(kind)}")
        ((key, body),) = value.items()
        return reference_value(body, kind[key], f"{where}.{key}")
    body = _BODIES[kind]
    if type(body) is dict:
        return kind(**reference_fields(value, body, where))
    if value is not body:
        raise MalformedFrame(f"{where} must be {json.dumps(body)}")
    return kind()


def reference_decode(data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrame(f"frame is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedFrame(f"frame is not JSON: {exc}") from exc
    if type(obj) is not dict:
        raise MalformedFrame("frame is not a JSON object")
    for frame_type, body_key in _BODY_KEY.items():
        if obj.get("type") == frame_type:
            fields = reference_fields(obj, _BODIES[frame_type], "frame")
            return fields["request_id"], fields[body_key]
    raise MalformedFrame(f"unknown message type {obj.get('type')!r}")


def reference_eval_condition(cond, fact):
    if isinstance(cond, Or):
        return any(reference_eval_condition(p, fact) for p in cond.parts)
    if isinstance(cond, And):
        return all(reference_eval_condition(p, fact) for p in cond.parts)
    if isinstance(cond, Not):
        return not reference_eval_condition(cond.term, fact)
    return OPS[cond.op](getattr(fact, cond.field), cond.value)


def reference_evaluate(ruleset, fact):
    """Every rule is checked; the best key (-salience, file position) wins."""
    best, best_key = None, None
    for idx, rule in enumerate(ruleset.rules):
        if reference_eval_condition(rule.condition, fact):
            key = (-rule.salience, idx)
            if best_key is None or key < best_key:
                best, best_key = rule, key
    if best is None:
        return NoMatch()
    return RepairPlan(strategy=best.strategy, subject=fact.subject, fired_rule=best.name)


WIRE_INTS = st.integers(-(2**70), 2**70)
WIRE_TEXT = st.text(max_size=12)
FACTS = st.builds(Fact, st.sampled_from(FaultKind), WIRE_TEXT, WIRE_INTS, WIRE_INTS, WIRE_INTS)
OUTCOMES = st.one_of(
    st.builds(RepairPlan, st.sampled_from(Strategy), WIRE_TEXT, WIRE_TEXT),
    st.just(NoMatch()),
    st.builds(ErrorOutcome, WIRE_TEXT, WIRE_TEXT),
)
MESSAGES = st.one_of(st.tuples(WIRE_INTS, FACTS), st.tuples(WIRE_INTS, OUTCOMES))


def decoded(decoder, frame):
    try:
        return decoder(frame)
    except MalformedFrame as exc:
        return ("MalformedFrame", str(exc))


@settings(max_examples=300, deadline=None)
@given(message=MESSAGES)
def test_compiled_codec_equals_table_walkers(message):
    frame = encode(*message)
    assert frame == canonical_json(reference_message_json(*message))
    assert decode(frame) == decode(frame.rstrip(b"\n")) == reference_decode(frame) == message


def json_objects(doc):
    """``doc`` and every object nested in it."""
    yield doc
    for value in doc.values():
        if isinstance(value, dict):
            yield from json_objects(value)


def mutate(obj, key, mutation, draw):
    """Break one field of a frame's JSON object; False if it does not apply."""
    value = obj[key]
    if mutation == "drop":
        del obj[key]
    elif mutation == "extra":
        obj[draw(st.text(max_size=4).filter(lambda k: k not in obj))] = draw(WIRE_INTS)
    elif mutation == "bool for int" and type(value) is int:
        obj[key] = draw(st.booleans())
    elif mutation == "number for true" and value is True:
        obj[key] = draw(st.sampled_from([1, 1.0]))
    elif mutation == "unknown enum value" and key in ("kind", "strategy"):
        obj[key] = draw(st.sampled_from(["CF9", "AS0", "cf1", "", 1]))
    else:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(message=MESSAGES, data=st.data())
def test_compiled_decoder_equals_reference_on_mutated_frames(message, data):
    doc = reference_message_json(*message)
    obj = data.draw(st.sampled_from(list(json_objects(doc))))
    key = data.draw(st.sampled_from(sorted(obj)))
    mutation = data.draw(st.sampled_from(
        ["drop", "extra", "bool for int", "number for true", "unknown enum value"]))
    assume(mutate(obj, key, mutation, data.draw))
    frame = json.dumps(doc).encode("utf-8")
    result = decoded(decode, frame)
    assert result == decoded(reference_decode, frame)
    assert result[0] == "MalformedFrame"  # every mutation breaks the schema


CANONICAL_FRAMES = [encode(12, body).rstrip(b"\n") for body in (
    Fact(FaultKind.CF1, "Query Service", 3, 2, 1),
    RepairPlan(Strategy.AS1, "Query Service", "restart-on-cf1"),
    NoMatch(),
)]


def boundary_edits(frame):
    """``frame`` with one byte-level edit at a time, each on the edge of the
    layout that decode matches in one step."""
    for number in re.finditer(rb"(?<=:)-?[0-9]+", frame):
        for digits in (b"0" + number[0].lstrip(b"-"), b"-0", b"1" * 19, b"7" * 5000):
            yield frame[:number.start()] + digits + frame[number.end():]
    for text in re.finditer(rb'(?<=:")', frame):
        for inserted in (rb"\"", rb"\u0041", b"\x01", "\u00fc".encode(), b"\xff"):
            yield frame[:text.start()] + inserted + frame[text.start():]
    for at in range(len(frame) + 1):
        yield frame[:at] + b" " + frame[at:]
        yield frame[:at] + b"\r" + frame[at:]
    for trailing in (b"\n", b"\n\n", b"\r\n", b" ", b"x", b"}"):
        yield frame + trailing
    for old, new in ((b'"version":1', b'"version":2'), (b'"CF1"', b'"CF5"'),
                     (b'"AS1"', b'"AS5"'), (b'"no_match":true', b'"no_match":1')):
        if old in frame:
            yield frame.replace(old, new)


@pytest.mark.parametrize("frame", CANONICAL_FRAMES, ids=["request", "plan", "no_match"])
def test_one_match_decode_equals_full_check_on_edited_frames(frame):
    """Around the one-match path, decode gives what the table walker gives
    and what decode gives with that path switched off, message or error
    text."""
    never = re.compile(b"(?!)")
    for edited in [frame, *boundary_edits(frame)]:
        result = decoded(decode, edited)
        with mock.patch.dict(planner._LAYOUTS, {True: never, False: never}):
            assert result == decoded(decode, edited), edited
        assert result == decoded(reference_decode, edited), edited


COMPARISONS = st.one_of(
    st.builds(Comparison, st.just("kind"), st.sampled_from(["==", "!="]),
              st.sampled_from(FaultKind)),
    st.builds(Comparison, st.just("subject"), st.sampled_from(["==", "!="]),
              st.sampled_from(["a", "b"])),
    st.builds(Comparison, st.sampled_from(INT_FIELDS), st.sampled_from(sorted(OPS)),
              st.integers(-1, 3)),
)
CONDITIONS = st.recursive(
    COMPARISONS,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, st.lists(inner, min_size=2, max_size=3).map(tuple)),
        st.builds(Or, st.lists(inner, min_size=2, max_size=3).map(tuple)),
    ),
    max_leaves=6,
)
RULESETS = st.lists(
    st.tuples(st.integers(-2, 2), CONDITIONS, st.sampled_from(Strategy)), max_size=8,
).map(lambda rules: RuleSet(tuple(
    Rule(f"r{i}", salience, cond, strategy) for i, (salience, cond, strategy) in enumerate(rules)
)))
RULE_FACTS = st.builds(Fact, st.sampled_from(FaultKind), st.sampled_from(["a", "b"]),
                       st.integers(-1, 3), st.integers(-1, 3), st.integers(-1, 3))


@settings(max_examples=300, deadline=None)
@given(ruleset=RULESETS, facts=st.lists(RULE_FACTS, min_size=1, max_size=8))
def test_ranked_first_match_equals_all_rules_pick(ruleset, facts):
    for fact in facts:
        assert evaluate(ruleset, fact) == reference_evaluate(ruleset, fact)
    # Parsing the printed rule set compiles the same conditions again.
    reparsed = parse_rules(format_rules(ruleset))
    for fact in facts:
        assert evaluate(reparsed, fact) == reference_evaluate(ruleset, fact)


# -- (g) the frame reader vs splitting the whole stream at once ---------------
# planner.lines, which both ends of the wire read with, searches and copies
# each received byte once, however the stream is cut into recv chunks. The
# reference splits the whole stream at LF.


class ChunkedSocket:
    """Hands out the given chunks, at most ``size`` bytes per recv and the rest
    of a chunk at the next, then EOF; keeps what is sent to it."""

    def __init__(self, chunks):
        self.chunks, self.handed_out, self.sent = list(chunks), 0, []

    def settimeout(self, timeout):
        pass

    def setsockopt(self, level, option, value):
        pass

    def recv(self, size):
        chunk = self.chunks.pop(0) if self.chunks else b""
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
            chunk = chunk[:size]
        self.handed_out += len(chunk)
        return chunk

    def send(self, data, flags=0):
        self.sent.append(data)
        return len(data)

    def close(self):
        pass


def reference_lines(stream):
    """Lines with their LF, then the bytes after the last LF, if any."""
    *complete, rest = stream.split(b"\n")
    return [line + b"\n" for line in complete] + ([rest] if rest else [])


STREAMS = st.lists(st.sampled_from([b"a", b"bc", b"\n", b"\n\n", b"d" * 7]), max_size=12).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(stream=STREAMS, data=st.data())
def test_line_splitter_equals_whole_stream_split(stream, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, max(len(stream) - 1, 1)))))
    bounds = [0, *(cut for cut in cuts if cut < len(stream)), len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    with mock.patch("healsim.planner.MAX_FRAME", 8):
        got = list(lines(ChunkedSocket(chunks), 1.0))
    expected = reference_lines(stream)
    oversize = next((i for i, line in enumerate(expected) if len(line) > 8), None)
    if oversize is None:
        assert got == expected
    else:  # the same lines up to the first one over the cap, cut to 9 bytes, and no more
        assert got == expected[:oversize] + [expected[oversize][:9]]


@pytest.mark.parametrize("end, whole", [
    pytest.param(end, whole, id=("whole-" if whole else "") + end)
    for whole in (False, True) for end in ("reader", "client", "server")])
def test_an_over_long_line_in_two_chunks_is_held_to_max_frame_plus_one(end, whole, monkeypatch):
    """MAX_FRAME bytes with no LF, then MAX_FRAME more; or, ``whole``, one read
    of MAX_FRAME + 1 bytes ending in LF, then more: each end takes exactly
    MAX_FRAME + 1 bytes off the socket, then answers as the protocol says."""
    first = b"x" * MAX_FRAME + b"\n" if whole else b"x" * MAX_FRAME
    sock = ChunkedSocket([first, b"x" * MAX_FRAME])
    if end == "reader":
        got = list(lines(sock, 1.0))
        assert [len(line) for line in got] == [MAX_FRAME + 1]
        assert (got[0] is first) is whole  # a whole line is the read's own bytes
    elif end == "client":
        monkeypatch.setattr("socket.create_connection", lambda *args, **kwargs: sock)
        with pytest.raises(MalformedFrame, match=f"reply exceeds {MAX_FRAME} bytes"):
            RemotePlanner("127.0.0.1", 0).plan(Fact(FaultKind.CF1, "x"))
    else:
        handler = _PlanHandler.__new__(_PlanHandler)  # not constructed: that would serve at once
        handler.request, handler.client_address = sock, ("peer", 0)
        handler.handle()
        too_large = ErrorOutcome("too_large", f"frame exceeds {MAX_FRAME} bytes")
        assert sock.sent == [encode(0, too_large)]
    rest = b"x" * MAX_FRAME if whole else b"x" * (MAX_FRAME - 1)
    assert sock.handed_out == MAX_FRAME + 1 and sock.chunks == [rest]


# -- (h) the one-pattern rule lexer vs the character loops it replaced --------
# The reference is the lexer as it was before ``_tokenize`` became one
# ``finditer`` and ``_unescape`` one ``re.sub``: a hand-written loop over the
# characters, matching a token pattern at each position that starts a token.

REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<int>-?\d+)
      | (?P<op>==|!=|>=|<=|>|<)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def reference_unescape(raw, line, col):
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            nxt = body[i + 1] if i + 1 < len(body) else ""
            if nxt not in ('"', "\\"):
                raise RuleSyntaxError(f"unsupported escape \\{nxt}", line, col)
            out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def reference_tokenize(text):
    tokens = []
    line = 1
    line_start = 0
    depth = 0  # of parentheses
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        m = REFERENCE_TOKEN_RE.match(text, i)
        if m is None:
            if ch == '"':
                raise RuleSyntaxError("unterminated string literal", line, col)
            raise RuleSyntaxError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup.upper()
        depth += (kind == "LPAREN") - (kind == "RPAREN")
        if depth > MAX_NESTING:
            raise RuleSyntaxError(f"parentheses nest deeper than {MAX_NESTING}", line, col)
        tokens.append(_Token(kind, m.group(), line, col))
        i = m.end()
    tokens.append(_Token("EOF", "", line, (n - line_start) + 1))
    return tokens


def lexed(lex, *args):
    """What a lexer gives: its result, or its error's class, message, line and col."""
    try:
        return lex(*args)
    except RuleError as exc:
        return (type(exc), exc.message, exc.line, exc.col)


# Every character class the lexer treats apart: newlines, skipped and
# unskipped whitespace (a vertical tab, a form feed, a no-break space),
# comments, quotes, backslashes, operator and parenthesis characters, ASCII
# and non-ASCII digits and letters.
LEX_ALPHABET = ' \t\r\n\x0b\x0c\xa0#"\\()=!<>-_aZ09\u0663\u0966\u00e9\u2603'
LEX_WORDS = ("rule", "when", "then", "salience", "and", "or", "not", "kind", "CF1", "AS4",
             "subject", "==", "!=", ">=", "<=", "-12", '"a b"', '"\\""', '"\\\\"', '"\\x"',
             '"\\', "# note", "(" * 40, ")" * 40)
RULE_TEXTS = st.lists(st.one_of(st.sampled_from(LEX_WORDS), st.text(LEX_ALPHABET, max_size=4),
                                st.text(max_size=2)), max_size=24).map("".join)


@settings(max_examples=1500, deadline=None)
@given(text=RULE_TEXTS)
@example(text='rule "unterminated when kind == CF1 then AS1')
@example(text='rule "a\\\nb" when')  # a backslash before a newline ends no string
@example(text='rule "a\\qb" when kind == CF1 then AS1')
@example(text='rule "r" when ' + "(" * (MAX_NESTING + 1) + "kind == CF1")
@example(text="((" * MAX_NESTING + "))" * MAX_NESTING + "(")  # nesting is a running total
@example(text="\x0bkind")
@example(text="rule\n  salience \u0663\u0664 -\u0966")
@example(text="kind == CF1 # a comment at end of file")
@example(text="#")
@example(text="")
def test_tokenize_equals_the_character_loop(text):
    tokens = lexed(rules._tokenize, text)
    assert tokens == lexed(reference_tokenize, text)
    for tok in tokens if isinstance(tokens, list) else ():
        if tok.kind == "STRING":
            assert (lexed(rules._unescape, tok.text, tok.line, tok.col)
                    == lexed(reference_unescape, tok.text, tok.line, tok.col))


@settings(max_examples=500, deadline=None)
@given(body=st.text(st.sampled_from('\\"\n ab\u2603'), max_size=12))
@example(body="ab\\")  # a lone backslash at the end: "unsupported escape \"
@example(body="\\\n")
def test_unescape_equals_the_character_loop(body):
    raw = f'"{body}"'
    assert lexed(rules._unescape, raw, 3, 7) == lexed(reference_unescape, raw, 3, 7)
