"""Monitoring stage: immutable model snapshots and snapshot diffing.

The loop takes a snapshot before and after each disturbance and turns the
difference into change events; the analyzer never touches the model's
mutation history directly.

Snapshots share the model's cached tuples, and each carries the model's
change journal since its previous snapshot. When ``cur`` is the next snapshot
of ``prev``'s model, ``observe`` compares only what that journal names; every
other pair (built directly, ``dataclasses.replace`` copies, not consecutive,
of different or deep-copied models) gets the full diff of slots and connectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # From take_snapshot: (model's journal since its last snapshot, the one opened now)
    _journal: tuple = field(default=(None, None), init=False, repr=False, compare=False)


class EventKind(Enum):
    STATE_CHANGED = "STATE_CHANGED"
    EXCEPTIONS_CHANGED = "EXCEPTIONS_CHANGED"
    COMPONENT_REMOVED = "COMPONENT_REMOVED"
    CONNECTOR_REMOVED = "CONNECTOR_REMOVED"
    COMPONENT_ADDED = "COMPONENT_ADDED"
    CONNECTOR_ADDED = "CONNECTOR_ADDED"


class ChangeEvent:
    """One observed difference between consecutive snapshots.

    ``old``/``new`` carry the changed value for *_CHANGED events and the
    full SlotView for component removal/addition; connector events need
    neither. ``at`` is the later snapshot's clock.

    A plain ``__slots__`` class, cheap to build, that compares and prints like
    a dataclass of its five fields. It is unhashable: nothing keys on events.
    """

    __slots__ = ("kind", "subject", "old", "new", "at")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, kind: EventKind, subject: str | ConnectorSpec,
                 old: object = None, new: object = None, at: int = 0) -> None:
        self.kind = kind
        self.subject = subject
        self.old = old
        self.new = new
        self.at = at

    def _fields(self) -> tuple:
        return (self.kind, self.subject, self.old, self.new, self.at)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"ChangeEvent(kind={self.kind!r}, subject={self.subject!r}, "
                f"old={self.old!r}, new={self.new!r}, at={self.at!r})")


def take_snapshot(model: ArchitectureModel) -> Snapshot:
    snap = Snapshot(model.slot_views(), model.live_connectors(), model.clock)
    object.__setattr__(snap, "_journal", model.cut_journal())
    return snap


def observe(prev: Snapshot, cur: Snapshot) -> list[ChangeEvent]:
    """Minimal, complete diff in deterministic order: slot events in
    blueprint order (state before exceptions within a slot), then connector
    removals, then connector additions, each in canonical connector order.
    Both snapshots must list the same slots in one order, as any of one blueprint do.
    The journal (consecutive snapshots of one model) and the full diff give equal events.
    """
    if cur.clock < prev.clock:
        raise ClockRegression(f"clock moved from {prev.clock} back to {cur.clock}")
    since = cur._journal[0]
    if since is not None and since is prev._journal[1]:  # cur is the next snapshot of prev's model
        positions = sorted(k for k in since if k.__class__ is int)
        flipped = sorted(filter(None, since.values()))  # by position, unique: canonical order
        removed = [s for _, s, live in flipped if not live]
        added = [s for _, s, live in flipped if live]
    else:
        positions = range(len(prev.slots))
        old_set, new_set = set(prev.connectors), set(cur.connectors)
        removed = [s for s in prev.connectors if s not in new_set]
        added = [s for s in cur.connectors if s not in old_set]
    at = cur.clock
    events: list[ChangeEvent] = []
    for pos in positions:
        (slot, before), (_, after) = prev.slots[pos], cur.slots[pos]
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
    events += [ChangeEvent(EventKind.CONNECTOR_REMOVED, s, at=at) for s in removed]
    events += [ChangeEvent(EventKind.CONNECTOR_ADDED, s, at=at) for s in added]
    return events
