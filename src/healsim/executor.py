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

AS4, and AS2 on an empty slot, are one model step, ``replace``: it flips
only the connectors that were missing, and the trail still names the
removal (AS4 on an occupied slot), the new instance and each intended
connector it made or kept live, in blueprint order, as three steps would.

The model alone decides whether a plan can apply: an unknown subject, a
restart of an empty slot or a connector with an absent endpoint raises a
``ModelError`` from the plan's first mutation, before anything has changed.
"""

from __future__ import annotations

from .model import ArchitectureModel, Frozen, UnknownConnector
from .rules import RepairPlan, Strategy

_AS1, _AS2, _AS3, _AS4 = Strategy  # the members, as module globals


class ExecutionResult(Frozen):
    __slots__ = _fields = ("plan", "applied_mutations", "new_instance_id", "completed_at")

    def __init__(self, plan: RepairPlan, applied_mutations: tuple[str, ...],
                 new_instance_id: str | None, completed_at: int) -> None:
        set_plan, set_applied_mutations, set_new_instance_id, set_completed_at = self._setters
        set_plan(self, plan)
        set_applied_mutations(self, applied_mutations)
        set_new_instance_id(self, new_instance_id)
        set_completed_at(self, completed_at)


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
    elif strategy is _AS2 and model.present(slot):
        _restart_in_place(model, slot, mutations)
        mutations += [f"add_connector({spec.name})" for spec in model.restore_connectors(slot)]
    else:  # AS4, or AS2 on an empty slot: a fresh instance and its connectors in one step
        if strategy is _AS4 and model.present(slot):
            mutations.append(f"remove_component({slot})")
        new, restored = model.replace(slot)
        new_instance_id = new.instance_id
        mutations.append(f"instantiate({slot}, {new_instance_id})")
        mutations += [f"add_connector({spec.name})" for spec in restored]

    model.advance_clock(len(mutations))
    return ExecutionResult(plan, tuple(mutations), new_instance_id, model.clock)
