"""Monitoring stage: snapshots of the model, and the change events between
any two of them.

A snapshot only reads the model: each slot's component, the live
connectors and the clock. ``observe(prev, cur)`` is the full diff of two
snapshots, whichever they are. The round path builds neither:
``analyzer.classify`` reads what the injection journalled directly, so
monitoring costs what the fault changed, not the blueprint's size, and a
round builds no event. Snapshots and events serve tests and tracing.
"""

from __future__ import annotations

from enum import Enum

from .model import ArchitectureModel, Component, ConnectorSpec, Frozen, Record


class ClockRegression(Exception):
    """The later snapshot has an earlier clock."""


class Snapshot(Frozen):
    """Read-only capture of a model: each slot's component (None when
    empty), live connectors in canonical order, clock."""

    __slots__ = _fields = ("slots", "connectors", "clock")

    def __init__(self, slots: tuple[tuple[str, Component | None], ...],
                 connectors: tuple[ConnectorSpec, ...], clock: int) -> None:
        set_slots, set_connectors, set_clock = self._setters
        set_slots(self, slots)
        set_connectors(self, connectors)
        set_clock(self, clock)


class EventKind(Enum):
    STATE_CHANGED = "STATE_CHANGED"
    EXCEPTIONS_CHANGED = "EXCEPTIONS_CHANGED"
    COMPONENT_REMOVED = "COMPONENT_REMOVED"
    CONNECTOR_REMOVED = "CONNECTOR_REMOVED"
    COMPONENT_ADDED = "COMPONENT_ADDED"
    CONNECTOR_ADDED = "CONNECTOR_ADDED"


class ChangeEvent(Record):
    """One observed difference between two snapshots.

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
    return Snapshot(model.slot_views(), tuple(model.live_connector_specs()), model.clock)


def observe(prev: Snapshot, cur: Snapshot) -> list[ChangeEvent]:
    """The minimal, complete diff of two snapshots of one blueprint, in
    deterministic order: slot events by position, in blueprint order (state
    before exceptions within a slot), then the connectors removed, then
    those added, each in canonical connector order. Instance ids are not
    compared: a slot refilled with an equal state and exception count
    yields no event."""
    if cur.clock < prev.clock:
        raise ClockRegression(f"clock moved from {prev.clock} back to {cur.clock}")
    at, events = cur.clock, []
    for (slot, before), (_, after) in zip(prev.slots, cur.slots):
        if before is after:
            continue
        if after is None:
            events.append(ChangeEvent(EventKind.COMPONENT_REMOVED, slot, before, None, at))
        elif before is None:
            events.append(ChangeEvent(EventKind.COMPONENT_ADDED, slot, None, after, at))
        else:
            if before.state is not after.state:
                events.append(ChangeEvent(EventKind.STATE_CHANGED, slot, before.state,
                                          after.state, at))
            if before.exception_count != after.exception_count:
                events.append(ChangeEvent(EventKind.EXCEPTIONS_CHANGED, slot,
                                          before.exception_count, after.exception_count, at))
    was, now = set(prev.connectors), set(cur.connectors)
    events += [ChangeEvent(EventKind.CONNECTOR_REMOVED, spec, None, None, at)
               for spec in prev.connectors if spec not in now]
    events += [ChangeEvent(EventKind.CONNECTOR_ADDED, spec, None, None, at)
               for spec in cur.connectors if spec not in was]
    return events
