"""Monitoring stage: the model's change journal turned into change events.

Every mutation journals a slot's ``Component`` (or None) as it was before
its first change, or a connector that went or came back. The loop cuts the
journal before each injection and ``observe_changes`` turns what the
injection journalled into events, so monitoring costs what the fault
changed, not the blueprint's size.

Snapshots, built on demand, serve tests and tracing. ``observe(prev, cur)``
builds the same events from the journal ``cur`` carries, so it takes a
snapshot and the next snapshot of one model; any other pair (built directly,
replaced, not consecutive, a snapshot with itself, of another model or a
copy) raises ``NotConsecutive``.
"""

from __future__ import annotations

from enum import Enum

from .model import ArchitectureModel, Component, ConnectorSpec, Frozen, Record, _set


class ClockRegression(Exception):
    """The later snapshot has an earlier clock."""


class NotConsecutive(Exception):
    """The later snapshot is not the next snapshot of the earlier one's model."""


class Snapshot(Frozen):
    """Read-only capture of a model: each slot's component (None when
    empty), live connectors in canonical order, clock."""

    _fields = ("slots", "connectors", "clock")
    # And, from take_snapshot: (model's journal since its last cut, the one opened now)
    __slots__ = _fields + ("_journal",)

    def __init__(self, slots: tuple[tuple[str, Component | None], ...],
                 connectors: tuple[ConnectorSpec, ...], clock: int) -> None:
        _set(self, "slots", slots)
        _set(self, "connectors", connectors)
        _set(self, "clock", clock)
        _set(self, "_journal", (None, None))


class EventKind(Enum):
    STATE_CHANGED = "STATE_CHANGED"
    EXCEPTIONS_CHANGED = "EXCEPTIONS_CHANGED"
    COMPONENT_REMOVED = "COMPONENT_REMOVED"
    CONNECTOR_REMOVED = "CONNECTOR_REMOVED"
    COMPONENT_ADDED = "COMPONENT_ADDED"
    CONNECTOR_ADDED = "CONNECTOR_ADDED"


(_STATE_CHANGED, _EXCEPTIONS_CHANGED, _COMPONENT_REMOVED, _CONNECTOR_REMOVED,
 _COMPONENT_ADDED, _CONNECTOR_ADDED) = EventKind  # read as module globals on the round path


class ChangeEvent(Record):
    """One observed difference between consecutive snapshots.

    ``old``/``new`` carry the changed value for *_CHANGED events, and the
    Component removed or added for COMPONENT_REMOVED/COMPONENT_ADDED;
    connector events need neither. ``at`` is the later snapshot's clock.
    """

    __slots__ = _fields = ("kind", "subject", "old", "new", "at")

    def __init__(self, kind: EventKind, subject: str | ConnectorSpec,
                 old: object = None, new: object = None, at: int = 0) -> None:
        self.kind = kind
        self.subject = subject
        self.old = old
        self.new = new
        self.at = at


def take_snapshot(model: ArchitectureModel) -> Snapshot:
    snap = Snapshot(model.slot_views(), tuple(model.live_connector_specs()), model.clock)
    _set(snap, "_journal", model.cut_journal())
    return snap


def observe(prev: Snapshot, cur: Snapshot) -> list[ChangeEvent]:
    """The events between a snapshot and the next snapshot of its model,
    read from the journal ``cur`` carries."""
    if cur.clock < prev.clock:
        raise ClockRegression(f"clock moved from {prev.clock} back to {cur.clock}")
    since = cur._journal[0]
    if since is None or since is not prev._journal[1]:
        raise NotConsecutive("observe compares a snapshot with the next snapshot of its model")
    return _events(since, [slot for slot, _ in cur.slots], [comp for _, comp in cur.slots],
                   cur.clock)


def observe_changes(model: ArchitectureModel) -> list[ChangeEvent]:
    """The events since the model's journal was last cut, which this cuts:
    what ``observe`` gives for snapshots taken then and now, without them."""
    return _events(model.cut_journal()[0], model.blueprint._slot_names, model._components,
                   model.clock)


def _events(since: dict, names, components, at: int) -> list[ChangeEvent]:
    """Minimal, complete diff in deterministic order: slot events in
    blueprint order (state before exceptions within a slot), then connector
    removals, then connector additions, each in canonical connector order.
    ``names`` and ``components`` hold each slot's name and its Component or
    None, by position, as the journal window ``since`` ends. Instance ids
    are not compared: a slot refilled with an equal state and exception
    count yields no event.
    """
    events: list[ChangeEvent] = []
    removed: list[ChangeEvent] = []
    added: list[ChangeEvent] = []
    # A connector is journalled at ~position, below every slot position, so
    # the ascending keys give its events in descending position order.
    for key in sorted(since):
        if key < 0:
            spec, live = since[key]
            if live:
                added.append(ChangeEvent(_CONNECTOR_ADDED, spec, None, None, at))
            else:
                removed.append(ChangeEvent(_CONNECTOR_REMOVED, spec, None, None, at))
            continue
        before, after = since[key], components[key]
        if before is after:  # empty at both ends: filled and emptied again
            continue
        if after is None:
            events.append(ChangeEvent(_COMPONENT_REMOVED, names[key], before, None, at))
        elif before is None:
            events.append(ChangeEvent(_COMPONENT_ADDED, names[key], None, after, at))
        else:
            if before.state is not after.state:
                events.append(ChangeEvent(_STATE_CHANGED, names[key], before.state, after.state,
                                          at))
            if before.exception_count != after.exception_count:
                events.append(ChangeEvent(_EXCEPTIONS_CHANGED, names[key],
                                          before.exception_count, after.exception_count, at))
    if removed or added:
        events += removed[::-1]
        events += added[::-1]
    return events
