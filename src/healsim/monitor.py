"""Monitoring stage: immutable model snapshots and snapshot diffing.

The loop takes a snapshot before and after each disturbance and turns the
difference into change events; the analyzer never touches the model's
mutation history directly.

Snapshots hold the model's cached slot-entry and connector tuples, so
consecutive snapshots share every unchanged part and ``observe`` skips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import ABSENT_SLOT, ArchitectureModel, ConnectorSpec, SlotView  # noqa: F401


class ClockRegression(Exception):
    """The later snapshot has an earlier clock."""


@dataclass(frozen=True)
class Snapshot:
    """Read-only capture of a model: per-slot view, live connectors in
    canonical order, clock."""

    slots: tuple[tuple[str, SlotView], ...]
    connectors: tuple[ConnectorSpec, ...]
    clock: int


class EventKind(Enum):
    STATE_CHANGED = "STATE_CHANGED"
    EXCEPTIONS_CHANGED = "EXCEPTIONS_CHANGED"
    COMPONENT_REMOVED = "COMPONENT_REMOVED"
    CONNECTOR_REMOVED = "CONNECTOR_REMOVED"
    COMPONENT_ADDED = "COMPONENT_ADDED"
    CONNECTOR_ADDED = "CONNECTOR_ADDED"


@dataclass(frozen=True)
class ChangeEvent:
    """One observed difference between consecutive snapshots.

    ``old``/``new`` carry the changed value for *_CHANGED events and the
    full SlotView for component removal/addition; connector events need
    neither. ``at`` is the later snapshot's clock.
    """

    kind: EventKind
    subject: str | ConnectorSpec
    old: object = None
    new: object = None
    at: int = 0


def take_snapshot(model: ArchitectureModel) -> Snapshot:
    return Snapshot(slots=model.slot_views(), connectors=model.live_connectors(), clock=model.clock)


def observe(prev: Snapshot, cur: Snapshot) -> list[ChangeEvent]:
    """Minimal, complete diff in deterministic order: slot events in
    blueprint order (state before exceptions within a slot), then connector
    removals, then connector additions, each in canonical connector order.
    Both snapshots must list the same slots in one order, as any of one blueprint do.
    """
    if cur.clock < prev.clock:
        raise ClockRegression(f"clock moved from {prev.clock} back to {cur.clock}")
    at = cur.clock
    events: list[ChangeEvent] = []
    for (slot, before), (_, after) in zip(prev.slots, cur.slots):
        if before is after:  # a slot the model did not touch
            continue
        if before.present and not after.present:
            events.append(ChangeEvent(EventKind.COMPONENT_REMOVED, slot, old=before, at=at))
        elif not before.present and after.present:
            events.append(ChangeEvent(EventKind.COMPONENT_ADDED, slot, new=after, at=at))
        elif before.present and after.present:
            for kind, was, now in (
                (EventKind.STATE_CHANGED, before.state, after.state),
                (EventKind.EXCEPTIONS_CHANGED, before.exception_count, after.exception_count),
            ):
                if was != now:
                    events.append(ChangeEvent(kind, slot, old=was, new=now, at=at))
    old, new = prev.connectors, cur.connectors
    if old == new:
        return events
    # Unchanged connectors keep their place: diff what lies between common ends.
    lo, hi, end = 0, 0, min(len(old), len(new))
    while lo < end and old[lo] is new[lo]:
        lo += 1
    while hi < end - lo and old[-1 - hi] is new[-1 - hi]:
        hi += 1
    old, new = old[lo:len(old) - hi], new[lo:len(new) - hi]
    old_set, new_set = set(old), set(new)
    events += [ChangeEvent(EventKind.CONNECTOR_REMOVED, s, at=at) for s in old if s not in new_set]
    events += [ChangeEvent(EventKind.CONNECTOR_ADDED, s, at=at) for s in new if s not in old_set]
    return events
