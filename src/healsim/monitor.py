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

from dataclasses import dataclass, field
from enum import Enum

from .model import ArchitectureModel, Component, ConnectorSpec


class ClockRegression(Exception):
    """The later snapshot has an earlier clock."""


class NotConsecutive(Exception):
    """The later snapshot is not the next snapshot of the earlier one's model."""


@dataclass(frozen=True)
class Snapshot:
    """Read-only capture of a model: each slot's component (None when
    empty), live connectors in canonical order, clock."""

    slots: tuple[tuple[str, Component | None], ...]
    connectors: tuple[ConnectorSpec, ...]
    clock: int
    # From take_snapshot: (model's journal since its last cut, the one opened now)
    _journal: tuple = field(default=(None, None), init=False, repr=False, compare=False)


class EventKind(Enum):
    STATE_CHANGED = "STATE_CHANGED"
    EXCEPTIONS_CHANGED = "EXCEPTIONS_CHANGED"
    COMPONENT_REMOVED = "COMPONENT_REMOVED"
    CONNECTOR_REMOVED = "CONNECTOR_REMOVED"
    COMPONENT_ADDED = "COMPONENT_ADDED"
    CONNECTOR_ADDED = "CONNECTOR_ADDED"


@dataclass(slots=True)
class ChangeEvent:
    """One observed difference between consecutive snapshots.

    ``old``/``new`` carry the changed value for *_CHANGED events, and the
    Component removed or added for COMPONENT_REMOVED/COMPONENT_ADDED;
    connector events need neither. ``at`` is the later snapshot's clock.
    """

    kind: EventKind
    subject: str | ConnectorSpec
    old: object = None
    new: object = None
    at: int = 0


def take_snapshot(model: ArchitectureModel) -> Snapshot:
    snap = Snapshot(model.slot_views(), model.live_connectors(), model.clock)
    object.__setattr__(snap, "_journal", model.cut_journal())
    return snap


def observe(prev: Snapshot, cur: Snapshot) -> list[ChangeEvent]:
    """The events between a snapshot and the next snapshot of its model,
    read from the journal ``cur`` carries."""
    if cur.clock < prev.clock:
        raise ClockRegression(f"clock moved from {prev.clock} back to {cur.clock}")
    since = cur._journal[0]
    if since is None or since is not prev._journal[1]:
        raise NotConsecutive("observe compares a snapshot with the next snapshot of its model")
    return _events(since, cur.slots, cur.clock)


def observe_changes(model: ArchitectureModel) -> list[ChangeEvent]:
    """The events since the model's journal was last cut, which this cuts:
    what ``observe`` gives for snapshots taken then and now, without them."""
    return _events(model.cut_journal()[0], model._views, model.clock)


def _events(since: dict, slots, at: int) -> list[ChangeEvent]:
    """Minimal, complete diff in deterministic order: slot events in
    blueprint order (state before exceptions within a slot), then connector
    removals, then connector additions, each in canonical connector order.
    ``slots`` holds ``(slot, Component or None)`` by position as the journal
    window ``since`` ends. Instance ids are not compared: a slot refilled
    with an equal state and exception count yields no event.
    """
    events: list[ChangeEvent] = []
    for pos in sorted(k for k in since if k >= 0):
        before, (slot, after) = since[pos], slots[pos]
        if before is after:  # empty at both ends: filled and emptied again
            continue
        if after is None:
            events.append(ChangeEvent(EventKind.COMPONENT_REMOVED, slot, old=before, at=at))
        elif before is None:
            events.append(ChangeEvent(EventKind.COMPONENT_ADDED, slot, new=after, at=at))
        else:
            for kind, was, now in (
                (EventKind.STATE_CHANGED, before.state, after.state),
                (EventKind.EXCEPTIONS_CHANGED, before.exception_count, after.exception_count),
            ):
                if was != now:
                    events.append(ChangeEvent(kind, slot, old=was, new=now, at=at))
    # A connector is journalled at ~position, so descending keys are ascending positions.
    flipped = [since[k] for k in sorted((k for k in since if k < 0), reverse=True)]
    for want, kind in ((False, EventKind.CONNECTOR_REMOVED), (True, EventKind.CONNECTOR_ADDED)):
        events += [ChangeEvent(kind, spec, at=at) for spec, live in flipped if live is want]
    return events
