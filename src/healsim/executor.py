"""Execution stage: apply a repair plan to the model and report what changed.

Strategy semantics:
    AS1  restart: back to STARTED with a clean exception counter, in place.
    AS2  redeploy: restore the slot; a fresh instance if the slot is empty,
         otherwise a restart, plus recreation of missing intended connectors
         incident to the slot.
    AS3  reconnect: add the named connector; a no-op if it is already live.
    AS4  replace: swap in a fresh instance of the same type (new instance id,
         STARTED, zero exceptions) and recreate its intended connectors.

Each applied mutation advances the logical clock by one millisecond, so
successive repairs carry distinct timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ArchitectureModel, ComponentState, ConnectorSpec
from .rules import RepairPlan, Strategy


class ExecutionError(Exception):
    pass


class SubjectUnknown(ExecutionError):
    """The plan subject does not resolve against the blueprint."""


class RestartAbsent(ExecutionError):
    """AS1 cannot restart an empty slot."""


class EndpointAbsent(ExecutionError):
    """AS3 cannot connect to an absent component."""


@dataclass(frozen=True)
class ExecutionResult:
    plan: RepairPlan
    applied_mutations: tuple[str, ...]
    new_instance_id: str | None
    completed_at: int


def _resolve_connector(model: ArchitectureModel, subject: str) -> ConnectorSpec:
    spec = model.blueprint.connector_named(subject)
    if spec is None:
        raise SubjectUnknown(f"no intended connector named {subject!r}")
    return spec


def _resolve_slot(model: ArchitectureModel, subject: str) -> str:
    if not model.blueprint.has_slot(subject):
        raise SubjectUnknown(f"no slot named {subject!r}")
    return subject


def _restore_incident_connectors(
    model: ArchitectureModel, slot: str, mutations: list[str]
) -> None:
    # Intended connectors only, in blueprint order; endpoints still absent
    # (compound damage) are left for their own repair.
    for spec in model.blueprint.connectors_incident_to(slot):
        if model.present(spec.source) and model.present(spec.target):
            if not model.has_connector(spec):
                model.add_connector(spec)
                mutations.append(f"add_connector({spec.name})")


def _restart_in_place(model: ArchitectureModel, slot: str, mutations: list[str]) -> None:
    model.set_state(slot, ComponentState.STARTED)
    mutations.append(f"set_state({slot}, STARTED)")
    model.reset_exceptions(slot)
    mutations.append(f"reset_exceptions({slot})")


def execute(model: ArchitectureModel, plan: RepairPlan) -> ExecutionResult:
    """Apply the plan's strategy to its subject. Mutates the model in place
    and returns the ordered mutation trail."""
    mutations: list[str] = []
    new_instance_id: str | None = None

    if plan.strategy is Strategy.AS3:
        spec = _resolve_connector(model, plan.subject)
        if not model.present(spec.source) or not model.present(spec.target):
            raise EndpointAbsent(f"connector {spec.name} has an absent endpoint")
        if not model.has_connector(spec):
            model.add_connector(spec)
            mutations.append(f"add_connector({spec.name})")
    elif plan.strategy is Strategy.AS1:
        slot = _resolve_slot(model, plan.subject)
        if not model.present(slot):
            raise RestartAbsent(f"slot {slot!r} is empty; restart needs a running instance")
        _restart_in_place(model, slot, mutations)
    elif plan.strategy is Strategy.AS2:
        slot = _resolve_slot(model, plan.subject)
        if model.present(slot):
            _restart_in_place(model, slot, mutations)
        else:
            new_instance_id = model.allocate_instance_id(slot)
            model.instantiate(slot, new_instance_id)
            mutations.append(f"instantiate({slot}, {new_instance_id})")
        _restore_incident_connectors(model, slot, mutations)
    elif plan.strategy is Strategy.AS4:
        slot = _resolve_slot(model, plan.subject)
        if model.present(slot):
            model.remove_component(slot)
            mutations.append(f"remove_component({slot})")
        new_instance_id = model.allocate_instance_id(slot)
        model.instantiate(slot, new_instance_id)
        mutations.append(f"instantiate({slot}, {new_instance_id})")
        _restore_incident_connectors(model, slot, mutations)
    else:  # pragma: no cover - enum is closed
        raise ExecutionError(f"unknown strategy {plan.strategy!r}")

    model.advance_clock(len(mutations))
    return ExecutionResult(
        plan=plan,
        applied_mutations=tuple(mutations),
        new_instance_id=new_instance_id,
        completed_at=model.clock,
    )
