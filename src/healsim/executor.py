"""Execution stage: apply a repair plan to the model and report what changed.

Strategy semantics:
    AS1  restart: back to STARTED with a clean exception counter, in place.
    AS2  redeploy: restore the slot; a fresh instance if the slot is empty,
         otherwise a restart, plus recreation of missing intended connectors
         incident to the slot.
    AS3  reconnect: add the named connector; a no-op if it is already live.
    AS4  replace: swap in a fresh instance of the same type (an instance id
         the model picks, STARTED, zero exceptions) and recreate its
         intended connectors.

Each applied mutation advances the logical clock by one millisecond, so
successive repairs carry distinct timestamps.

The model alone decides whether a plan can apply: an unknown subject, a
restart of an empty slot or a connector with an absent endpoint raises a
``ModelError`` from the plan's first mutation, before anything has changed.
"""

from __future__ import annotations

from .model import ArchitectureModel, Frozen, UnknownConnector, _set
from .rules import RepairPlan, Strategy

_AS1, _AS2, _AS3, _AS4 = Strategy  # the members, as module globals


class ExecutionResult(Frozen):
    __slots__ = _fields = ("plan", "applied_mutations", "new_instance_id", "completed_at")

    def __init__(self, plan: RepairPlan, applied_mutations: tuple[str, ...],
                 new_instance_id: str | None, completed_at: int) -> None:
        _set(self, "plan", plan)
        _set(self, "applied_mutations", applied_mutations)
        _set(self, "new_instance_id", new_instance_id)
        _set(self, "completed_at", completed_at)


def _restore_incident_connectors(
    model: ArchitectureModel, slot: str, mutations: list[str]
) -> None:
    # Intended connectors only, in blueprint order; endpoints still absent
    # (compound damage) are left for their own repair.
    mutations += [f"add_connector({spec.name})" for spec in model.restore_connectors(slot)]


def _restart_in_place(model: ArchitectureModel, slot: str, mutations: list[str]) -> None:
    model.restart(slot)  # one replacement, recorded as the two changes it makes
    mutations += (f"set_state({slot}, STARTED)", f"reset_exceptions({slot})")


def execute(model: ArchitectureModel, plan: RepairPlan) -> ExecutionResult:
    """Apply the plan's strategy to its subject. Mutates the model in place
    and returns the ordered mutation trail."""
    mutations: list[str] = []
    new_instance_id: str | None = None

    slot, strategy = plan.subject, plan.strategy
    if strategy is _AS3:
        spec = model.blueprint.connector_named(plan.subject)
        if spec is None:
            raise UnknownConnector(f"no intended connector named {plan.subject!r}")
        if model.add_connector(spec):
            mutations.append(f"add_connector({spec.name})")
    elif strategy is _AS1:
        _restart_in_place(model, slot, mutations)
    elif strategy is _AS2:
        if model.present(slot):
            _restart_in_place(model, slot, mutations)
        else:
            new_instance_id = model.instantiate(slot).instance_id
            mutations.append(f"instantiate({slot}, {new_instance_id})")
        _restore_incident_connectors(model, slot, mutations)
    else:  # AS4; the model noted the old instance's id when it came in, so the new one is past it
        if model.present(slot):
            model.remove_component(slot)
            mutations.append(f"remove_component({slot})")
        new_instance_id = model.instantiate(slot).instance_id
        mutations.append(f"instantiate({slot}, {new_instance_id})")
        _restore_incident_connectors(model, slot, mutations)

    model.advance_clock(len(mutations))
    return ExecutionResult(plan, tuple(mutations), new_instance_id, model.clock)
