"""Oracles for the fast paths: every indexed or short-cut answer must equal
the plain linear-scan or full-diff answer it replaced."""

import contextlib
import copy
import dataclasses
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
from healsim.rules import RepairPlan, Strategy
from test_golden import layered_blueprint_doc

# Two App and two Store slots, wired in pairs: the cross links satisfy the
# interfaces without being intended, so live non-intended extras can occur.
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
            extras = sorted(model.connectors - set(bp.intended_connectors))
            targets = list(bp.intended_connectors) + extras
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
        model.add_connector(ConnectorSpec(src, dst, bp.type_of_slot(dst).provided_interface))


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
@example(steps=[("connect", 0, 2, 3), ("inject", 2, 2, 0), ("inject", 2, 3, 0)])  # extra, CF3s
def test_fast_paths_equal_references_over_random_steps(doc, steps):
    bp = load(doc)
    model = instantiate_blueprint(bp)
    intended = set(bp.intended_connectors)
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
        in_order = [s for s in bp.intended_connectors if s in model.connectors]
        extras = sorted(s for s in model.connectors if s not in intended)
        assert live == in_order + extras
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
    """Canonical connector order from a full scan: intended ones in
    declaration order, then extras sorted."""
    intended = model.blueprint.intended_connectors
    return [s for s in intended if s in model.connectors] + sorted(
        s for s in model.connectors if s not in intended
    )


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
    connector with both ends present, one whose end is absent, an extra."""
    bp = blueprint_from_json(REPLICA_DOC)
    components = {
        slot: Component(f"{slot}#1", bp.type_of_slot(slot).name) for slot in bp.slot_names()
    }
    components["Store B"] = None
    components["App B"].state = ComponentState.UNKNOWN
    components["Client"].state = ComponentState.UNDEPLOYED
    components["App A"].exception_count = 4
    extra = ConnectorSpec("App B", "Store A", "Store")
    model = ArchitectureModel(bp, components, {bp.intended_connectors[0], extra})

    assert validate(model) == brute_validate(model) == [
        Violation(ViolationKind.NOT_STARTED, "Client"),
        Violation(ViolationKind.UNKNOWN_STATE, "App B"),
        Violation(ViolationKind.MISSING_COMPONENT, "Store B"),
        Violation(ViolationKind.MISSING_CONNECTOR, bp.intended_connectors[1]),
    ]
    assert model.live_connector_specs() == [bp.intended_connectors[0], extra]
    for pick in range(len(bp.slots)):
        assert_views_match_scans(model, pick)

    before = take_snapshot(model)
    assert model.remove_component("App B") == [extra]
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
                   ("connect", 0, 2, 3)]])  # an extra dropped with its end, then restored
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
