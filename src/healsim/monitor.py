"""Monitoring stage: immutable model snapshots and snapshot diffing.

The loop takes a snapshot before and after each disturbance and turns the
difference into change events; the analyzer never touches the model's
mutation history directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import ArchitectureModel, ComponentState, ConnectorSpec


class ClockRegression(Exception):
    """The later snapshot has an earlier clock."""


@dataclass(frozen=True)
class SlotView:
    present: bool
    state: ComponentState | None = None
    exception_count: int | None = None


ABSENT_SLOT = SlotView(present=False)


@dataclass(frozen=True)
class Snapshot:
    """Read-only capture of a model: per-slot view, live connectors in
    canonical order, clock."""

    slots: tuple[tuple[str, SlotView], ...]
    connectors: tuple[ConnectorSpec, ...]
    clock: int

    def slot_view(self, slot: str) -> SlotView:
        for name, view in self.slots:
            if name == slot:
                return view
        raise KeyError(slot)


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
    slots = []
    for slot in model.blueprint.slot_names():
        comp = model.components[slot]
        if comp is None:
            slots.append((slot, ABSENT_SLOT))
        else:
            slots.append((slot, SlotView(True, comp.state, comp.exception_count)))
    return Snapshot(
        slots=tuple(slots),
        connectors=tuple(model.live_connector_specs()),
        clock=model.clock,
    )


def observe(prev: Snapshot, cur: Snapshot) -> list[ChangeEvent]:
    """Minimal, complete diff in deterministic order: slot events in
    blueprint order (state before exceptions within a slot), then connector
    removals, then connector additions, each in canonical connector order.
    """
    if cur.clock < prev.clock:
        raise ClockRegression(f"clock moved from {prev.clock} back to {cur.clock}")
    at = cur.clock
    events: list[ChangeEvent] = []
    cur_views = dict(cur.slots)
    for slot, before in prev.slots:
        after = cur_views[slot]
        if before.present and not after.present:
            events.append(ChangeEvent(EventKind.COMPONENT_REMOVED, slot, old=before, at=at))
        elif not before.present and after.present:
            events.append(ChangeEvent(EventKind.COMPONENT_ADDED, slot, new=after, at=at))
        elif before.present and after.present:
            if before.state is not after.state:
                events.append(
                    ChangeEvent(
                        EventKind.STATE_CHANGED, slot, old=before.state, new=after.state, at=at
                    )
                )
            if before.exception_count != after.exception_count:
                events.append(
                    ChangeEvent(
                        EventKind.EXCEPTIONS_CHANGED,
                        slot,
                        old=before.exception_count,
                        new=after.exception_count,
                        at=at,
                    )
                )
    if prev.connectors == cur.connectors:
        return events
    prev_conns = set(prev.connectors)
    cur_conns = set(cur.connectors)
    for spec in prev.connectors:
        if spec not in cur_conns:
            events.append(ChangeEvent(EventKind.CONNECTOR_REMOVED, spec, at=at))
    for spec in cur.connectors:
        if spec not in prev_conns:
            events.append(ChangeEvent(EventKind.CONNECTOR_ADDED, spec, at=at))
    return events
