"""Architectural runtime model: the live component/connector graph and the
blueprint it is validated against.

The blueprint describes the intended architecture (component types, named
slots, intended connectors). The model holds what is actually running:
at most one component instance per slot, the live connectors as slot-level
``ConnectorSpec``s, and a logical clock in milliseconds. Live connectors are
always a subset of the intended ones: faults only remove connectors, repairs
re-add intended ones, and ``add_connector`` rejects any other spec. Faults
damage the model; repairs restore it; ``validate`` lists every deviation
from the blueprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources


class ModelError(Exception):
    """Base class for architecture-model errors."""


class UnknownSlot(ModelError):
    """A slot name does not exist in the blueprint."""


class TargetAbsent(ModelError):
    """A mutation addressed a component or connector that is not there."""


class UnknownConnector(ModelError):
    """A connector is not one of the blueprint's intended connectors."""


class BlueprintError(ModelError):
    """A blueprint definition is internally inconsistent."""


class ComponentState(Enum):
    STARTED = "STARTED"
    STOPPED = "STOPPED"
    UNDEPLOYED = "UNDEPLOYED"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ComponentType:
    """Template for component instances: what it provides and requires."""

    name: str
    provided_interface: str
    required_interfaces: tuple[str, ...]


@dataclass
class Component:
    """A running instance filling one slot."""

    instance_id: str
    type_name: str
    state: ComponentState = ComponentState.STARTED
    exception_count: int = 0


@dataclass(frozen=True)
class ConnectorSpec:
    """Slot-level connector identity: source slot, target slot, interface.

    This is the stable way to name a connector across instance replacement;
    fault targets, violations, and repair subjects all use it.
    """

    source: str
    target: str
    interface: str

    def render(self) -> str:
        return f"{self.source}->{self.target}"


class ViolationKind(Enum):
    UNKNOWN_STATE = "UNKNOWN_STATE"
    MISSING_COMPONENT = "MISSING_COMPONENT"
    MISSING_CONNECTOR = "MISSING_CONNECTOR"
    NOT_STARTED = "NOT_STARTED"


@dataclass(frozen=True)
class Violation:
    """One deviation of the live model from its blueprint."""

    kind: ViolationKind
    subject: str | ConnectorSpec

    def render_subject(self) -> str:
        return self.subject.render() if isinstance(self.subject, ConnectorSpec) else self.subject


@dataclass(frozen=True)
class Blueprint:
    """The intended architecture. Immutable; validated on construction.

    Slot and connector declaration order is meaningful: it fixes the
    deterministic ordering used by validation, monitoring, dependency
    lookup, and fault target selection.
    """

    component_types: tuple[ComponentType, ...]
    slots: tuple[tuple[str, str], ...]
    intended_connectors: tuple[ConnectorSpec, ...]
    # Lookup maps, built once by __post_init__ from the frozen fields above.
    _slot_types: dict[str, ComponentType] = field(init=False, repr=False, compare=False)
    _dependencies: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _incident: dict[str, list[ConnectorSpec]] = field(init=False, repr=False, compare=False)
    _by_pair: dict[tuple[str, str], ConnectorSpec] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, ConnectorSpec] = field(init=False, repr=False, compare=False)
    _slot_pos: dict[str, int] = field(init=False, repr=False, compare=False)
    _spec_pos: dict[ConnectorSpec, int] = field(init=False, repr=False, compare=False)
    _slot_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        types = {}
        for ct in self.component_types:
            if not ct.name:
                raise BlueprintError("component type with empty name")
            if ct.name in types:
                raise BlueprintError(f"duplicate component type {ct.name!r}")
            if len(set(ct.required_interfaces)) != len(ct.required_interfaces):
                raise BlueprintError(f"type {ct.name!r} lists a required interface twice")
            types[ct.name] = ct
        slot_types = {}
        for slot, type_name in self.slots:
            if slot in slot_types:
                raise BlueprintError(f"duplicate slot {slot!r}")
            if type_name not in types:
                raise BlueprintError(f"slot {slot!r} references unknown type {type_name!r}")
            slot_types[slot] = types[type_name]
        dependencies: dict[str, list[str]] = {slot: [] for slot in slot_types}
        incident: dict[str, list[ConnectorSpec]] = {slot: [] for slot in slot_types}
        by_pair: dict[tuple[str, str], ConnectorSpec] = {}
        by_name: dict[str, ConnectorSpec] = {}
        for spec in self.intended_connectors:
            if spec.source not in slot_types or spec.target not in slot_types:
                raise BlueprintError(f"connector {spec.render()} references an unknown slot")
            if spec.source == spec.target:
                raise BlueprintError(f"connector {spec.render()} is a self loop")
            if spec.interface not in slot_types[spec.source].required_interfaces:
                raise BlueprintError(
                    f"{spec.source!r} does not require interface {spec.interface!r}"
                )
            if spec.interface != slot_types[spec.target].provided_interface:
                raise BlueprintError(
                    f"{spec.target!r} does not provide interface {spec.interface!r}"
                )
            if (spec.source, spec.target) in by_pair:
                raise BlueprintError(f"connector {spec.render()} is declared twice")
            by_pair[spec.source, spec.target] = spec
            name = spec.render()
            if name in by_name:
                other = by_name[name]
                raise BlueprintError(
                    f"connectors ({other.source!r}, {other.target!r}) and "
                    f"({spec.source!r}, {spec.target!r}) both render as {name!r}"
                )
            by_name[name] = spec
            dependencies[spec.source].append(spec.target)
            incident[spec.source].append(spec)
            incident[spec.target].append(spec)
        object.__setattr__(self, "_slot_types", slot_types)
        object.__setattr__(self, "_dependencies", dependencies)
        object.__setattr__(self, "_incident", incident)
        object.__setattr__(self, "_by_pair", by_pair)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_slot_names", tuple(slot_types))
        object.__setattr__(self, "_slot_pos", {slot: i for i, slot in enumerate(slot_types)})
        object.__setattr__(self, "_spec_pos", {s: i for i, s in enumerate(by_pair.values())})
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Depth-first with an explicit stack, so that no chain depth reaches the
        # recursion limit. The sentinel at the bottom yields every slot as a root.
        adjacency = self._dependencies
        seen: dict[str, int] = {}  # 1 = on the stack, 2 = done
        stack = [("", iter(adjacency))]
        while stack:
            slot, deps = stack[-1]
            for nxt in deps:
                if seen.get(nxt) == 1:
                    cycle = " -> ".join([s for s, _ in stack[1:]] + [nxt])
                    raise BlueprintError(f"dependency cycle through {cycle}")
                if nxt not in seen:
                    seen[nxt] = 1
                    stack.append((nxt, iter(adjacency[nxt])))
                    break
            else:
                seen[slot] = 2
                stack.pop()

    # -- lookups ---------------------------------------------------------

    def slot_names(self) -> list[str]:
        return list(self._slot_names)

    def has_slot(self, slot: str) -> bool:
        return slot in self._slot_types

    def type_of_slot(self, slot: str) -> ComponentType:
        try:
            return self._slot_types[slot]
        except KeyError:
            raise UnknownSlot(f"no slot named {slot!r}") from None

    def dependencies_of(self, slot: str) -> list[str]:
        """Slots this slot requires, per intended connectors, in declaration
        order. Reads the blueprint only, so the answer is unaffected by any
        damage to the live graph."""
        try:
            return list(self._dependencies[slot])
        except KeyError:
            raise UnknownSlot(f"no slot named {slot!r}") from None

    def connectors_incident_to(self, slot: str) -> list[ConnectorSpec]:
        """Intended connectors with the slot at either end, in declaration
        order; empty for an unknown slot."""
        return list(self._incident.get(slot, ()))

    def find_intended(self, source: str, target: str) -> ConnectorSpec | None:
        return self._by_pair.get((source, target))

    def connector_named(self, name: str) -> ConnectorSpec | None:
        """The intended connector whose render() is ``name``."""
        return self._by_name.get(name)


def _name(value: object) -> str:
    if not isinstance(value, str):
        raise BlueprintError(f"malformed blueprint document: name {value!r} is not a string")
    return value


def _names(value: object) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise BlueprintError(f"malformed blueprint document: requires {value!r} is not a list")
    return tuple(map(_name, value))


def blueprint_from_json(obj: dict) -> Blueprint:
    """Build a Blueprint from the documented JSON document shape:
    ``{"types": [{name, provides, requires}], "slots": [{slot, type}],
    "connectors": [{from, to, interface}]}``.
    """
    try:
        types = tuple(
            ComponentType(_name(t["name"]), _name(t["provides"]), _names(t["requires"]))
            for t in obj["types"]
        )
        slots = tuple((_name(s["slot"]), _name(s["type"])) for s in obj["slots"])
        connectors = tuple(
            ConnectorSpec(_name(c["from"]), _name(c["to"]), _name(c["interface"]))
            for c in obj["connectors"]
        )
    except (KeyError, TypeError) as exc:
        raise BlueprintError(f"malformed blueprint document: {exc}") from exc
    return Blueprint(types, slots, connectors)


def load_blueprint(path: str) -> Blueprint:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, huge integer
            raise BlueprintError(f"{path}: {exc}") from exc
    return blueprint_from_json(obj)


def default_blueprint() -> Blueprint:
    """The bundled single-shop blueprint: 7 slots, 9 intended connectors."""
    text = resources.files(__package__).joinpath("data/default_blueprint.json").read_text("utf-8")
    return blueprint_from_json(json.loads(text))


@dataclass(frozen=True)
class SlotView:
    present: bool
    state: ComponentState | None = None
    exception_count: int | None = None


ABSENT_SLOT = SlotView(present=False)


def _omit(items, positions) -> list:
    """``items`` without the entries at ``positions``, joined from slices."""
    kept, start = [], 0
    for pos in (*sorted(positions), len(items)):
        kept += items[start:pos]
        start = pos + 1
    return kept


@dataclass
class ArchitectureModel:
    """The live architecture plus the blueprint it should match.

    ``components`` maps every blueprint slot to its instance or None;
    ``connectors`` holds the live connectors, each one of the blueprint's
    intended ConnectorSpecs: construction and ``add_connector`` reject any
    other spec with UnknownConnector. A slot holds at most one instance and
    removing it drops its connectors, so a spec names exactly one live edge
    between instances.

    Mutations are primitive and apply exactly the named change, except that
    removing a component also drops its incident connectors (a connector
    cannot outlive an endpoint). A single writer at a time is assumed;
    reads are safe from anywhere between mutations. Change ``components`` and
    ``connectors`` only through the mutation methods: they keep current the derived
    views and the change journal that monitoring, validation and fault drawing read.
    """

    blueprint: Blueprint
    components: dict[str, Component | None]
    connectors: set[ConnectorSpec]
    clock: int = 0
    _instance_seq: dict[str, int] = field(default_factory=dict)
    # Derived views. Positions are blueprint declaration indices.
    _views: list[tuple[str, SlotView]] = field(init=False, repr=False, compare=False)
    _views_tuple: tuple | None = field(init=False, repr=False, compare=False)  # None: stale
    _damaged: set[int] = field(init=False, repr=False, compare=False)  # absent or not STARTED
    _missing: set[int] = field(init=False, repr=False, compare=False)  # intended, not live
    _live: tuple | None = field(init=False, repr=False, compare=False)  # None: stale
    # Changes since the last cut_journal(): slot position -> None, and
    # spec -> (position, spec, live afterwards) while its flips are odd.
    _journal: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._views, self._damaged = [ABSENT_SLOT] * len(self.blueprint.slots), set()
        for slot in self.blueprint.slot_names():
            self._slot_changed(slot)
        positions = self.blueprint._spec_pos
        if unknown := self.connectors.difference(positions):
            name = min(spec.render() for spec in unknown)  # set order varies with the hash seed
            raise UnknownConnector(f"connector {name} is not intended")
        self._missing = {pos for spec, pos in positions.items() if spec not in self.connectors}
        self._live = None

    def _slot_changed(self, slot: str) -> None:
        pos, comp = self.blueprint._slot_pos[slot], self.components[slot]
        view = ABSENT_SLOT if comp is None else SlotView(True, comp.state, comp.exception_count)
        self._views[pos], self._views_tuple = (slot, view), None
        (self._damaged.discard if view.state is ComponentState.STARTED else self._damaged.add)(pos)
        self._journal[pos] = None

    def _connector_changed(self, spec: ConnectorSpec) -> None:
        pos, live = self.blueprint._spec_pos[spec], spec in self.connectors
        (self._missing.discard if live else self._missing.add)(pos)
        self._live = None
        if self._journal.pop(spec, None) is None:  # a second flip undoes the first
            self._journal[spec] = (pos, spec, live)

    def _occupied(self, slot: str) -> Component:
        if (comp := self.component(slot)) is None:
            raise TargetAbsent(f"slot {slot!r} is empty")
        return comp

    # -- queries ---------------------------------------------------------

    def component(self, slot: str) -> Component | None:
        if slot not in self.components:
            raise UnknownSlot(f"no slot named {slot!r}")
        return self.components[slot]

    def present(self, slot: str) -> bool:
        return self.component(slot) is not None

    def present_slots(self) -> list[str]:
        """Slots that hold an instance, in blueprint order."""
        absent = [pos for pos in self._damaged if not self._views[pos][1].present]
        return _omit(self.blueprint._slot_names, absent)

    def has_connector(self, spec: ConnectorSpec) -> bool:
        return spec in self.connectors

    def slot_views(self) -> tuple[tuple[str, SlotView], ...]:
        """``(slot, SlotView)`` per slot; a slot change replaces only its entry."""
        if self._views_tuple is None:
            self._views_tuple = tuple(self._views)
        return self._views_tuple

    def live_connectors(self) -> tuple[ConnectorSpec, ...]:
        """Live connectors in blueprint declaration order."""
        if self._live is None:
            self._live = tuple(_omit(self.blueprint.intended_connectors, self._missing))
        return self._live

    def live_connector_specs(self) -> list[ConnectorSpec]:
        """``live_connectors()`` as a fresh list."""
        return list(self.live_connectors())

    def cut_journal(self) -> tuple[dict, dict]:
        """The journal since the previous cut, and the fresh one started now."""
        since, self._journal = self._journal, {}
        return since, self._journal

    # -- mutations -------------------------------------------------------

    def set_state(self, slot: str, state: ComponentState) -> None:
        self._occupied(slot).state = state
        self._slot_changed(slot)

    def add_exceptions(self, slot: str, n: int) -> None:
        if n < 0:
            raise ValueError("exception increment must be non-negative")
        self._occupied(slot).exception_count += n
        self._slot_changed(slot)

    def reset_exceptions(self, slot: str) -> None:
        self._occupied(slot).exception_count = 0
        self._slot_changed(slot)

    def remove_component(self, slot: str) -> list[ConnectorSpec]:
        """Empty the slot, dropping incident live connectors with it.
        Returns a ConnectorSpec for each connector that went away."""
        self._occupied(slot)
        dropped = [s for s in self.blueprint.connectors_incident_to(slot) if s in self.connectors]
        for spec in dropped:
            self.remove_connector(spec)
        self.components[slot] = None
        self._slot_changed(slot)
        return dropped

    def remove_connector(self, spec: ConnectorSpec) -> None:
        if spec not in self.connectors:
            raise TargetAbsent(f"connector {spec.render()} is not live")
        self.connectors.discard(spec)
        self._connector_changed(spec)

    def add_connector(self, spec: ConnectorSpec) -> None:
        """Make an intended connector live; a no-op if it already is. The
        blueprint checked every intended spec's slots and interfaces."""
        if spec not in self.blueprint._spec_pos:
            raise UnknownConnector(f"connector {spec.render()} is not intended")
        if self.components[spec.source] is None or self.components[spec.target] is None:
            raise TargetAbsent(f"connector {spec.render()} has an absent endpoint")
        if spec not in self.connectors:
            self.connectors.add(spec)
            self._connector_changed(spec)

    def instantiate(self, slot: str, instance_id: str) -> Component:
        """Fill an empty slot with a fresh instance: STARTED, zero exceptions."""
        if slot not in self.components:
            raise UnknownSlot(f"no slot named {slot!r}")
        if self.components[slot] is not None:
            raise ModelError(f"slot {slot!r} is already occupied")
        comp = Component(instance_id, self.blueprint.type_of_slot(slot).name)
        self.components[slot] = comp
        self._slot_changed(slot)
        return comp

    def allocate_instance_id(self, slot: str) -> str:
        """Next never-before-used instance id for this slot."""
        if not self.blueprint.has_slot(slot):
            raise UnknownSlot(f"no slot named {slot!r}")
        seq = self._instance_seq.get(slot, 0) + 1
        self._instance_seq[slot] = seq
        return f"{slot}#{seq}"

    def advance_clock(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("clock can only move forward")
        self.clock += ms


def instantiate_blueprint(blueprint: Blueprint) -> ArchitectureModel:
    """A fresh model with every slot filled, every intended connector live,
    and the clock at zero."""
    model = ArchitectureModel(blueprint, dict.fromkeys(blueprint.slot_names()), set())
    for slot in blueprint.slot_names():
        model.instantiate(slot, model.allocate_instance_id(slot))
    for spec in blueprint.intended_connectors:
        model.add_connector(spec)
    return model


def build_default_model() -> ArchitectureModel:
    return instantiate_blueprint(default_blueprint())


def validate(model: ArchitectureModel) -> list[Violation]:
    """Every deviation from the blueprint, in deterministic order: slots in
    declaration order, then intended connectors in declaration order.

    A missing connector is only reported when both endpoints are present;
    an empty slot is already covered by its MISSING_COMPONENT entry. An
    empty list means the architecture carries no further failures.
    """
    violations: list[Violation] = []
    for pos in sorted(model._damaged):
        slot, view = model._views[pos]
        if not view.present:
            violations.append(Violation(ViolationKind.MISSING_COMPONENT, slot))
        elif view.state is ComponentState.UNKNOWN:
            violations.append(Violation(ViolationKind.UNKNOWN_STATE, slot))
        elif view.state in (ComponentState.STOPPED, ComponentState.UNDEPLOYED):
            violations.append(Violation(ViolationKind.NOT_STARTED, slot))
    for pos in sorted(model._missing):
        spec = model.blueprint.intended_connectors[pos]
        if model.components[spec.source] is not None and model.components[spec.target] is not None:
            violations.append(Violation(ViolationKind.MISSING_CONNECTOR, spec))
    return violations
