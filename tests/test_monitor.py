import pytest
from hypothesis import given, settings, strategies as st

from healsim.executor import execute
from healsim.faults import FaultInstance, FaultKind, inject
from healsim.model import Component, ComponentState, ConnectorSpec, build_default_model
from healsim.monitor import (
    ChangeEvent,
    ClockRegression,
    EventKind,
    NotConsecutive,
    observe,
    take_snapshot,
)
from healsim.rules import RepairPlan, Strategy
from test_oracles import observe_changes

QS_REP = ConnectorSpec("Query Service", "Reputation Service", "Reputation Service")


def test_change_event_compares_and_prints_by_its_five_fields():
    event = ChangeEvent(EventKind.STATE_CHANGED, "Frontend", old=ComponentState.STARTED,
                        new=ComponentState.UNKNOWN, at=7)
    assert event == ChangeEvent(EventKind.STATE_CHANGED, "Frontend", ComponentState.STARTED,
                                ComponentState.UNKNOWN, 7)
    for other in (ChangeEvent(EventKind.EXCEPTIONS_CHANGED, "Frontend", event.old, event.new, 7),
                  ChangeEvent(EventKind.STATE_CHANGED, "Auth Service", event.old, event.new, 7),
                  ChangeEvent(EventKind.STATE_CHANGED, "Frontend", None, event.new, 7),
                  ChangeEvent(EventKind.STATE_CHANGED, "Frontend", event.old, None, 7),
                  ChangeEvent(EventKind.STATE_CHANGED, "Frontend", event.old, event.new, 8)):
        assert event != other
    assert event != (event.kind, event.subject, event.old, event.new, event.at)
    assert repr(ChangeEvent(EventKind.CONNECTOR_REMOVED, QS_REP, at=3)) == (
        "ChangeEvent(kind=<EventKind.CONNECTOR_REMOVED: 'CONNECTOR_REMOVED'>, "
        "subject=ConnectorSpec(source='Query Service', target='Reputation Service', "
        "interface='Reputation Service'), old=None, new=None, at=3)"
    )
    with pytest.raises(TypeError):
        hash(event)
    with pytest.raises(AttributeError):
        event.extra = 1  # slots only


def test_snapshot_of_unchanged_model_is_equal():
    model = build_default_model()
    assert take_snapshot(model) == take_snapshot(model)


def test_snapshot_reflects_clock():
    model = build_default_model()
    model.advance_clock(123)
    assert take_snapshot(model).clock == 123


def test_snapshot_differs_in_one_field_after_state_change():
    model = build_default_model()
    before = take_snapshot(model)
    model.set_state("Query Service", ComponentState.UNKNOWN)
    after = take_snapshot(model)
    assert before != after
    changed = [
        (slot, a, b) for (slot, a), (_, b) in zip(before.slots, after.slots) if a != b
    ]
    assert len(changed) == 1 and changed[0][0] == "Query Service"
    assert before.connectors == after.connectors


def test_observe_identical_snapshots():
    """A snapshot is not the next snapshot of itself: observe has no journal to read."""
    snap = take_snapshot(build_default_model())
    with pytest.raises(NotConsecutive):
        observe(snap, snap)


def test_observe_state_change():
    model = build_default_model()
    before = take_snapshot(model)
    model.set_state("Query Service", ComponentState.UNKNOWN)
    events = observe(before, take_snapshot(model))
    assert len(events) == 1
    event = events[0]
    assert event.kind is EventKind.STATE_CHANGED
    assert event.subject == "Query Service"
    assert event.old is ComponentState.STARTED
    assert event.new is ComponentState.UNKNOWN


def test_observe_orders_slot_events_before_connector_events():
    model = build_default_model()
    before = take_snapshot(model)
    model.remove_connector(QS_REP)
    model.add_exceptions("Bid Service", 6)
    events = observe(before, take_snapshot(model))
    assert [e.kind for e in events] == [
        EventKind.EXCEPTIONS_CHANGED,
        EventKind.CONNECTOR_REMOVED,
    ]
    assert events[0].subject == "Bid Service"
    assert events[1].subject == QS_REP


def test_observe_component_removal_is_single_slot_event():
    model = build_default_model()
    before = take_snapshot(model)
    model.remove_component("Persistence Service")
    events = observe(before, take_snapshot(model))
    slot_events = [e for e in events if e.kind is EventKind.COMPONENT_REMOVED]
    conn_events = [e for e in events if e.kind is EventKind.CONNECTOR_REMOVED]
    assert len(slot_events) == 1
    assert slot_events[0].subject == "Persistence Service"
    assert len(conn_events) == 4
    # slot events come first
    assert events[0] is slot_events[0]


def test_observe_additions():
    model = build_default_model()
    model.remove_component("Bid Service")
    before = take_snapshot(model)
    model.replace("Bid Service")
    model.remove_connector(ConnectorSpec("Bid Service", "Persistence Service",
                                         "Persistence Service"))
    events = observe(before, take_snapshot(model))
    assert [e.kind for e in events] == [
        EventKind.COMPONENT_ADDED,
        EventKind.CONNECTOR_ADDED,
    ]
    assert events[1].subject == ConnectorSpec("Frontend", "Bid Service", "Bid Service")
    assert events[0].new.state is ComponentState.STARTED


def test_a_slot_filled_and_emptied_within_one_window_yields_no_event():
    """Empty at both ends of the window: the redeploy and the removal cancel,
    and so do the connectors the redeploy restored and the removal dropped."""
    model = build_default_model()
    model.remove_component("Bid Service")
    before = take_snapshot(model)
    execute(model, RepairPlan(Strategy.AS2, "Bid Service", "redeploy"))
    model.remove_component("Bid Service")
    assert observe(before, take_snapshot(model)) == []
    execute(model, RepairPlan(Strategy.AS2, "Bid Service", "redeploy"))
    model.remove_component("Bid Service")
    assert observe_changes(model) == []


def test_snapshots_and_slot_events_hold_the_models_own_components():
    model = build_default_model()
    before = take_snapshot(model)
    old = model.component("Bid Service")
    assert dict(before.slots)["Bid Service"] is old
    model.remove_component("Bid Service")
    emptied = take_snapshot(model)
    assert dict(emptied.slots)["Bid Service"] is None
    removed = observe(before, emptied)[0]
    assert removed.kind is EventKind.COMPONENT_REMOVED and removed.old is old
    new, _ = model.replace("Bid Service")
    refilled = take_snapshot(model)
    assert dict(refilled.slots)["Bid Service"] is new
    assert observe(emptied, refilled)[0].new is new


def test_observe_clock_regression():
    model = build_default_model()
    later = take_snapshot(model)
    model.advance_clock(5)
    earlier = take_snapshot(model)
    with pytest.raises(ClockRegression):
        observe(earlier, later)


def test_event_timestamps_use_current_clock():
    model = build_default_model()
    before = take_snapshot(model)
    model.advance_clock(250)
    model.set_state("Frontend", ComponentState.UNKNOWN)
    events = observe(before, take_snapshot(model))
    assert all(e.at == 250 for e in events)


# -- replay completeness ----------------------------------------------------


def _content(snapshot):
    return dict(snapshot.slots), set(snapshot.connectors)


def _replay(snapshot, events):
    """Independent reconstruction: apply events to the old content."""
    slots, connectors = _content(snapshot)
    for event in events:
        if event.kind is EventKind.STATE_CHANGED:
            old = slots[event.subject]
            slots[event.subject] = Component(old.instance_id, event.new, old.exception_count)
        elif event.kind is EventKind.EXCEPTIONS_CHANGED:
            old = slots[event.subject]
            slots[event.subject] = Component(old.instance_id, old.state, event.new)
        elif event.kind is EventKind.COMPONENT_REMOVED:
            slots[event.subject] = None
        elif event.kind is EventKind.COMPONENT_ADDED:
            slots[event.subject] = event.new
        elif event.kind is EventKind.CONNECTOR_REMOVED:
            connectors.discard(event.subject)
        else:
            connectors.add(event.subject)
    return slots, connectors


_mutations = st.lists(
    st.sampled_from(
        [
            ("cf1", "Query Service"),
            ("cf1", "Persistence Service"),
            ("stop", "Auth Service"),
            ("cf2", "Bid Service"),
            ("cf2", "Frontend"),
            ("cf3", "Reputation Service"),
            ("cf3", "Persistence Service"),
            ("cf4", QS_REP),
            ("cf4", ConnectorSpec("Frontend", "Auth Service", "Auth Service")),
            ("tick", 50),
        ]
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_mutations)
def test_replay_reconstructs_content(steps):
    model = build_default_model()
    before = take_snapshot(model)
    for op, arg in steps:
        try:
            if op == "cf1":
                inject(model, FaultInstance(FaultKind.CF1, arg))
            elif op == "stop":
                model.set_state(arg, ComponentState.STOPPED)
            elif op == "cf2":
                inject(model, FaultInstance(FaultKind.CF2, arg, magnitude=7))
            elif op == "cf3":
                inject(model, FaultInstance(FaultKind.CF3, arg))
            elif op == "cf4":
                inject(model, FaultInstance(FaultKind.CF4, arg))
            else:
                model.advance_clock(arg)
        except Exception:
            continue  # already-removed targets etc.; any reachable state will do
    after = take_snapshot(model)
    events = observe(before, after)
    assert _replay(before, events) == _content(after)
    if not events:
        assert _content(before) == _content(after)
