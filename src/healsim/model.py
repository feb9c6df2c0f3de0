"""Architectural runtime model: the live component/connector graph and the
blueprint it is validated against.

The blueprint describes the intended architecture (component types, named
slots, intended connectors). The model holds what is actually running, by
blueprint position: at most one component instance per slot, which
intended connectors are live, and a logical clock in milliseconds. Faults
only remove connectors, repairs re-add intended ones, and ``add_connector``
rejects any other spec; a new instance gets its id from the model. Faults
damage the model; repairs restore it; ``validate`` lists every deviation
from the blueprint. The model keeps its damage by position and journals
each change, so validation, fault targets and change events cost what
changed, not the blueprint's size; whole-blueprint views are built on demand.
"""

from __future__ import annotations

import json
import os
from enum import Enum
from operator import attrgetter

# The bundled blueprint and policy, read as plain files: on Python 3.12 and
# later importlib.resources imports inspect, a fifth to a third of ``import healsim``.
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class Record:
    """Base of the record classes: equality and ``repr`` by the value fields
    that a subclass names in ``_fields``, in order. ``__slots__`` holds those
    and any derived attribute, which stays out of both. A record equals only
    a record of its own class, and a mutable one is unhashable.

    They are written out by hand because the ``dataclasses`` module execs
    generated code per class and loads ``inspect``, which together took a
    third of a cold start (see README, "Cold start").
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # What equality and the hash compare: the class's name and the value
        # fields, read in C. An attrgetter is not a method: call it ``_key(self)``.
        cls._key = attrgetter("__class__.__qualname__", *cls._fields)
        # Each slot's own setter, in __slots__ order, for a frozen record's __init__ to unpack.
        cls._setters = tuple([cls.__dict__[name].__set__ for name in cls.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A hashable record whose fields cannot change. Its ``__init__`` takes the value
    fields in ``_fields`` order and sets every slot with its own ``_setters`` entry,
    not ``object.__setattr__``; copy and pickle call it again, rebuilding derived slots."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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


# The members a round reads, as module globals: on Python 3.11 one reads in
# about 4 ns, against about 40 ns for an Enum class attribute.
_STARTED, _UNKNOWN = ComponentState.STARTED, ComponentState.UNKNOWN


class ComponentType(Frozen):
    """Template for component instances: what it provides and requires."""

    __slots__ = _fields = ("name", "provided_interface", "required_interfaces")

    def __init__(self, name: str, provided_interface: str,
                 required_interfaces: tuple[str, ...]) -> None:
        set_name, set_provided_interface, set_required_interfaces = self._setters
        set_name(self, name)
        set_provided_interface(self, provided_interface)
        set_required_interfaces(self, required_interfaces)


class Component(Frozen):
    """A running instance filling one slot; frozen, so a change replaces it."""

    __slots__ = _fields = ("instance_id", "state", "exception_count")

    def __init__(self, instance_id: str, state: ComponentState = ComponentState.STARTED,
                 exception_count: int = 0) -> None:
        set_instance_id, set_state, set_exception_count = self._setters
        set_instance_id(self, instance_id)
        set_state(self, state)
        set_exception_count(self, exception_count)


class ConnectorSpec(Frozen):
    """Slot-level connector identity: source slot, target slot, interface.

    This is the stable way to name a connector across instance replacement;
    fault targets, violations, and repair subjects all use it. Its ``name``,
    ``SOURCE->TARGET``, is built once, at construction, and the hash is
    the name's: equal specs have equal names, and no hash integer is kept,
    so a pickled or copied spec hashes right under any hash seed.
    """

    _fields = ("source", "target", "interface")
    __slots__ = _fields + ("name",)

    def __init__(self, source: str, target: str, interface: str) -> None:
        set_source, set_target, set_interface, set_name = self._setters
        set_source(self, source)
        set_target(self, target)
        set_interface(self, interface)
        set_name(self, f"{source}->{target}")

    def __hash__(self) -> int:
        return hash(self.name)


def render_subject(subject: str | ConnectorSpec) -> str:
    """A slot's name, or a connector's ``SOURCE->TARGET``: the text a failure
    is reported, planned and counted under, unique within a blueprint."""
    return subject.name if isinstance(subject, ConnectorSpec) else subject


class ViolationKind(Enum):
    UNKNOWN_STATE = "UNKNOWN_STATE"
    MISSING_COMPONENT = "MISSING_COMPONENT"
    MISSING_CONNECTOR = "MISSING_CONNECTOR"
    NOT_STARTED = "NOT_STARTED"


_UNKNOWN_STATE, _MISSING_COMPONENT, _MISSING_CONNECTOR, _NOT_STARTED = ViolationKind


class Violation(Frozen):
    """One deviation of the live model from its blueprint."""

    __slots__ = _fields = ("kind", "subject")

    def __init__(self, kind: ViolationKind, subject: str | ConnectorSpec) -> None:
        set_kind, set_subject = self._setters
        set_kind(self, kind)
        set_subject(self, subject)


class Blueprint(Frozen):
    """The intended architecture. Immutable; validated on construction.

    Slot and connector declaration order is meaningful: it fixes the
    deterministic ordering used by validation, monitoring, dependency
    lookup, and fault target selection.
    """

    _fields = ("component_types", "slots", "intended_connectors")
    # And the lookup maps, built once by __init__ from the value fields.
    __slots__ = _fields + ("_dependencies", "_incident", "_ends", "_connector_at",
                           "_slot_pos", "_slot_names")

    def __init__(self, component_types: tuple[ComponentType, ...],
                 slots: tuple[tuple[str, str], ...],
                 intended_connectors: tuple[ConnectorSpec, ...]) -> None:
        (set_component_types, set_slots, set_intended_connectors, set_dependencies, set_incident,
         set_ends, set_connector_at, set_slot_pos, set_slot_names) = self._setters
        set_component_types(self, component_types)
        set_slots(self, slots)
        set_intended_connectors(self, intended_connectors)
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
        slot_pos = {slot: i for i, slot in enumerate(slot_types)}
        dependencies: dict[str, list[str]] = {slot: [] for slot in slot_types}
        # By position: each slot's incident connectors, each connector's (source, target) slots.
        incident: list[list[int]] = [[] for _ in slot_types]
        ends: list[tuple[int, int]] = []
        connector_at: dict[str, int] = {}  # each connector's name -> its position
        for pos, spec in enumerate(self.intended_connectors):
            if spec.source not in slot_types or spec.target not in slot_types:
                raise BlueprintError(f"connector {spec.name} references an unknown slot")
            if spec.source == spec.target:
                raise BlueprintError(f"connector {spec.name} is a self loop")
            if spec.interface not in slot_types[spec.source].required_interfaces:
                raise BlueprintError(
                    f"{spec.source!r} does not require interface {spec.interface!r}"
                )
            if spec.interface != slot_types[spec.target].provided_interface:
                raise BlueprintError(
                    f"{spec.target!r} does not provide interface {spec.interface!r}"
                )
            # A name already taken is never a slot's: its first holder was checked.
            if (taken := connector_at.get(name := spec.name)) is not None:
                other = self.intended_connectors[taken]
                if (other.source, other.target) == (spec.source, spec.target):
                    raise BlueprintError(f"connector {name} is declared twice")
                raise BlueprintError(
                    f"connectors ({other.source!r}, {other.target!r}) and "
                    f"({spec.source!r}, {spec.target!r}) both render as {name!r}"
                )
            if name in slot_types:
                raise BlueprintError(f"slot {name!r} and connector ({spec.source!r}, "
                                     f"{spec.target!r}) both render as {name!r}")
            connector_at[name] = pos
            dependencies[spec.source].append(spec.target)
            ends.append((source := slot_pos[spec.source], target := slot_pos[spec.target]))
            incident[source].append(pos)
            incident[target].append(pos)
        set_dependencies(self, {slot: tuple(deps) for slot, deps in dependencies.items()})
        set_incident(self, incident)
        set_ends(self, ends)
        set_connector_at(self, connector_at)
        set_slot_names(self, tuple(slot_types))
        set_slot_pos(self, slot_pos)
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
        return slot in self._slot_pos

    def dependencies_of(self, slot: str) -> list[str]:
        """Slots this slot requires, per intended connectors, in declaration
        order. Reads the blueprint only, so the answer is unaffected by any
        damage to the live graph."""
        try:
            return list(self._dependencies[slot])
        except KeyError:
            raise UnknownSlot(f"no slot named {slot!r}") from None

    def find_intended(self, source: str, target: str) -> ConnectorSpec | None:
        """The intended connector from ``source`` to ``target``, its ends checked:
        ``A->B`` to ``C`` renders as ``A`` to ``B->C`` does."""
        spec = self.connector_named(f"{source}->{target}")
        return spec if spec is not None and (spec.source, spec.target) == (source, target) else None

    def _connector_pos(self, spec: ConnectorSpec) -> int | None:
        """An intended spec's declaration index, found by its name, whose hash
        is native, not by the spec's own ``__hash__``; else None."""
        pos = self._connector_at.get(spec.name)
        if pos is not None and ((known := self.intended_connectors[pos]) is spec or known == spec):
            return pos
        return None

    def connector_named(self, name: str) -> ConnectorSpec | None:
        """The intended connector named ``name``."""
        pos = self._connector_at.get(name)
        return None if pos is None else self.intended_connectors[pos]


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
    return load_blueprint(os.path.join(DATA_DIR, "default_blueprint.json"))


def _kth_kept(k: int, skipped: list[int]) -> int:
    """The position of the k-th entry (from 0) not at an ascending position in ``skipped``."""
    for pos in skipped:  # once one lies past k, so do all that follow
        k += pos <= k
    return k


class ArchitectureModel(Record):
    """The live architecture plus the blueprint it should match, each fact
    stored once, by blueprint position: a list of each slot's instance or
    None, and the set of intended connectors that are not live.

    The constructor's ``components`` maps every blueprint slot, and nothing
    else, to its instance or None (UnknownSlot otherwise, and ModelError for
    a value that is neither); its ``connectors`` are the live ones, each an
    intended ConnectorSpec (UnknownConnector otherwise, as for
    ``add_connector``), and each joins two occupied slots (TargetAbsent
    otherwise, as for ``add_connector``). A slot holds at most one instance
    and removing it drops its connectors, so a spec names exactly one live edge.

    The representation invariant, which the constructor establishes and every
    mutation keeps: every live connector joins two present slots; the damaged
    slots are exactly those empty or not STARTED; and every held instance id
    ``SLOT#N`` has an N no greater than the slot's counter, which only
    ``replace`` moves on, so no caller hands the model an id to check.

    Mutations apply exactly the named change, except that removing a
    component also drops its incident connectors, and replacing one makes
    them live again where it can. A single writer at a time
    is assumed; reads are safe between mutations. Change the model only
    through its mutation methods: they keep current the damaged slots and
    the change journal that monitoring, validation and fault drawing read.
    """

    _fields = ("blueprint", "_components", "_missing", "clock", "_instance_seq")
    __slots__ = _fields + ("_damaged", "_violations", "_journal")

    def __init__(self, blueprint: Blueprint, components: dict[str, Component | None],
                 connectors: set[ConnectorSpec] | tuple[ConnectorSpec, ...],
                 clock: int = 0) -> None:
        self.blueprint, self.clock, self._instance_seq = blueprint, clock, {}
        if odd := components.keys() ^ blueprint._slot_pos.keys():
            name = min(odd)
            raise UnknownSlot(f"no slot named {name!r}" if name in components
                              else f"slot {name!r} is missing from the components")
        # By slot position: the instance or None, and the slots absent or not STARTED.
        self._components: list[Component | None] = [None] * len(blueprint.slots)
        self._damaged: set[int] = set()
        # Changes since the last cut_journal(): slot position -> its Component (or None)
        # before the first change; ~connector position -> (spec, live) while its flips are odd.
        self._journal: dict = {}
        for pos, slot in enumerate(blueprint._slot_names):
            if (comp := components[slot]) is not None:
                if not isinstance(comp, Component):
                    raise ModelError(f"slot {slot!r} holds a {type(comp).__name__}, not a Component")
                head, _, n = comp.instance_id.rpartition("#")
                if head == slot and n.isdecimal():  # an id SLOT#N sets the slot's counter to N
                    self._instance_seq[slot] = int(n)
            self._put(pos, comp)
        positions = {spec.name: blueprint._connector_pos(spec) for spec in connectors}
        if unknown := [name for name, pos in positions.items() if pos is None]:
            raise UnknownConnector(f"connector {min(unknown)} is not intended")  # min: any hash seed
        if dangling := [name for name, pos in positions.items() if not self._ends_present(pos)]:
            raise TargetAbsent(f"connector {min(dangling)} has an absent endpoint")
        live = set(positions.values())
        self._missing = set(range(len(blueprint.intended_connectors))) - live
        # The Violation objects validate returns, each built on first use, by
        # 3 * slot position + (0 missing, 1 unknown state, 2 not started) or ~connector position.
        self._violations: dict[int, Violation] = {}
        self._journal = {}  # a new model has changed nothing yet

    def _put(self, pos: int, comp: Component | None) -> None:
        """Make ``comp`` the entry of the slot at ``pos``."""
        self._journal.setdefault(pos, self._components[pos])
        self._components[pos] = comp
        if comp is not None and comp.state is _STARTED:
            self._damaged.discard(pos)
        else:
            self._damaged.add(pos)

    def _flip(self, pos: int, live: bool) -> None:
        """Make the connector at ``pos`` live or not; it is not yet so."""
        (self._missing.discard if live else self._missing.add)(pos)
        if self._journal.pop(~pos, None) is None:  # a second flip undoes the first
            self._journal[~pos] = (self.blueprint.intended_connectors[pos], live)

    def _position(self, slot: str) -> int:
        if (pos := self.blueprint._slot_pos.get(slot)) is None:
            raise UnknownSlot(f"no slot named {slot!r}")
        return pos

    def _occupied(self, slot: str) -> tuple[int, Component]:
        if (comp := self._components[pos := self._position(slot)]) is None:
            raise TargetAbsent(f"slot {slot!r} is empty")
        return pos, comp

    def _ends_present(self, pos: int) -> bool:
        source, target = self.blueprint._ends[pos]
        return self._components[source] is not None and self._components[target] is not None

    # -- queries ---------------------------------------------------------

    def component(self, slot: str) -> Component | None:
        return self._components[self._position(slot)]

    def present(self, slot: str) -> bool:
        return self._components[self._position(slot)] is not None

    def present_slots(self) -> list[str]:
        """Slots that hold an instance, in blueprint order."""
        return [slot for slot, comp in self.slot_views() if comp is not None]

    def present_count(self) -> int:
        if not (damaged := self._damaged):
            return len(self._components)
        return len(self._components) - [self._components[pos] for pos in damaged].count(None)

    def present_slot(self, k: int) -> str:
        """``present_slots()[k]`` for 0 <= k < ``present_count()``, from the empty slots alone."""
        if not self._damaged:
            return self.blueprint._slot_names[k]
        absent = [pos for pos in self._damaged if self._components[pos] is None]
        return self.blueprint._slot_names[_kth_kept(k, sorted(absent))]

    def slot_views(self) -> tuple[tuple[str, Component | None], ...]:
        """``(slot, Component or None)`` per slot, in blueprint order."""
        return tuple(zip(self.blueprint._slot_names, self._components))

    def live_connector_specs(self) -> list[ConnectorSpec]:
        """Live connectors in blueprint declaration order, as a fresh list."""
        intended, missing = self.blueprint.intended_connectors, self._missing
        return [intended[pos] for pos in range(len(intended)) if pos not in missing]

    def live_count(self) -> int:
        """``len(live_connector_specs())``: the intended connectors less the missing."""
        return len(self.blueprint.intended_connectors) - len(self._missing)

    def live_connector(self, k: int) -> ConnectorSpec:
        """``live_connector_specs()[k]`` for 0 <= k < ``live_count()``, from the missing alone."""
        if not (missing := self._missing):
            return self.blueprint.intended_connectors[k]
        return self.blueprint.intended_connectors[_kth_kept(k, sorted(missing))]

    def cut_journal(self) -> tuple[dict, dict]:
        """The journal since the previous cut, and the fresh one started now."""
        since, self._journal = self._journal, {}
        return since, self._journal

    # -- mutations -------------------------------------------------------

    def set_state(self, slot: str, state: ComponentState) -> None:
        pos, comp = self._occupied(slot)
        self._put(pos, Component(comp.instance_id, state, comp.exception_count))

    def add_exceptions(self, slot: str, n: int) -> None:
        if n < 0:
            raise ValueError("exception increment must be non-negative")
        pos, comp = self._occupied(slot)
        self._put(pos, Component(comp.instance_id, comp.state, comp.exception_count + n))

    def restart(self, slot: str) -> None:
        """Back to STARTED with a clean exception counter: one replacement."""
        pos, comp = self._occupied(slot)
        self._put(pos, Component(comp.instance_id, _STARTED, 0))

    def remove_component(self, slot: str) -> list[ConnectorSpec]:
        """Empty the slot, dropping incident live connectors with it.
        Returns a ConnectorSpec for each connector that went away."""
        pos, _ = self._occupied(slot)
        missing, intended = self._missing, self.blueprint.intended_connectors
        dropped = [c for c in self.blueprint._incident[pos] if c not in missing]
        for c in dropped:
            self._flip(c, False)
        self._put(pos, None)
        return [intended[c] for c in dropped]

    def remove_connector(self, spec: ConnectorSpec) -> None:
        pos = self.blueprint._connector_pos(spec)
        if pos is None or pos in self._missing:
            raise TargetAbsent(f"connector {spec.name} is not live")
        self._flip(pos, False)

    def add_connector(self, spec: ConnectorSpec) -> bool:
        """Make an intended connector live; False, a no-op, if it already is
        (then both its endpoints are present). The blueprint checked every
        intended spec's slots and interfaces."""
        if (pos := self.blueprint._connector_pos(spec)) is None:
            raise UnknownConnector(f"connector {spec.name} is not intended")
        if pos not in self._missing:
            return False
        if not self._ends_present(pos):
            raise TargetAbsent(f"connector {spec.name} has an absent endpoint")
        self._flip(pos, True)
        return True

    def restore_connectors(self, slot: str) -> list[ConnectorSpec]:
        """Make live each missing intended connector of an occupied slot whose
        other endpoint is present too; returns those specs in blueprint order."""
        pos, _ = self._occupied(slot)
        missing, intended = self._missing, self.blueprint.intended_connectors
        restored = []
        for c in self.blueprint._incident[pos]:
            if c in missing and self._ends_present(c):
                self._flip(c, True)
                restored.append(intended[c])
        return restored

    def replace(self, slot: str) -> tuple[Component, list[ConnectorSpec]]:
        """Fill the slot, empty or not, with a fresh STARTED instance with zero
        exceptions, ``SLOT#N`` with N one past the slot's counter, and make live
        each incident intended connector whose other endpoint is present.
        Returns the instance and those connectors, live before or not, in
        blueprint order. The model ends as ``remove_component`` (if occupied),
        a fill and ``restore_connectors`` leave it, but no connector is flipped
        that was live."""
        pos = self._position(slot)
        seq = self._instance_seq[slot] = self._instance_seq.get(slot, 0) + 1
        self._put(pos, comp := Component(f"{slot}#{seq}"))
        missing, intended = self._missing, self.blueprint.intended_connectors
        live = []
        for c in self.blueprint._incident[pos]:
            if c in missing:
                if not self._ends_present(c):
                    continue  # compound damage, left for its own repair
                self._flip(c, True)
            live.append(intended[c])
        return comp, live

    def advance_clock(self, ms: int) -> None:
        if ms < 0:
            raise ValueError("clock can only move forward")
        self.clock += ms


def instantiate_blueprint(blueprint: Blueprint) -> ArchitectureModel:
    """A fresh model with every slot filled by ``SLOT#1``, every intended
    connector live, and the clock at zero; built whole, so its damage sets stay empty-sized."""
    components = {slot: Component(f"{slot}#1") for slot in blueprint._slot_names}
    return ArchitectureModel(blueprint, components, blueprint.intended_connectors)


def build_default_model() -> ArchitectureModel:
    return instantiate_blueprint(default_blueprint())


def validate(model: ArchitectureModel) -> list[Violation]:
    """Every deviation from the blueprint, in deterministic order: slots in
    declaration order, then intended connectors in declaration order.

    A missing connector is only reported when both endpoints are present;
    an empty slot is already covered by its MISSING_COMPONENT entry. An
    empty list means the architecture carries no further failures.

    The violations are shared: for its whole life a model returns one frozen
    object per (kind, slot) and per missing connector, built the first time
    that deviation is seen. Damage that stands over many rounds is thus
    built once, and a report writer can render each object once. With no
    slot damaged, no endpoint is checked: the invariant says both are present.
    """
    damaged, missing = model._damaged, model._missing
    if not damaged and not missing:
        return []
    bp, shared = model.blueprint, model._violations
    violations: list[Violation] = []
    if damaged:
        for pos in sorted(damaged):
            if (comp := model._components[pos]) is None:
                i, kind = 3 * pos, _MISSING_COMPONENT
            elif comp.state is _UNKNOWN:
                i, kind = 3 * pos + 1, _UNKNOWN_STATE
            else:  # STOPPED or UNDEPLOYED: a damaged slot is absent or not STARTED
                i, kind = 3 * pos + 2, _NOT_STARTED
            if (violation := shared.get(i)) is None:
                violation = shared[i] = Violation(kind, bp._slot_names[pos])
            violations.append(violation)
        missing = [pos for pos in missing if model._ends_present(pos)]
    intended = bp.intended_connectors
    connectors = [
        shared.get(~pos) or shared.setdefault(~pos, Violation(_MISSING_CONNECTOR, intended[pos]))
        for pos in sorted(missing)
    ]
    return violations + connectors if violations else connectors
