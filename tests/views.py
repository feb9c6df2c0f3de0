"""Whole-model views that only the tests read.

The simulator itself reads a blueprint's slots, its dependency index and a
model's present slots through their internal tuples and positions; these
copies serve the tests that check those structures against a plain list.
"""

from healsim.model import (
    ArchitectureModel,
    Blueprint,
    UnknownSlot,
    default_blueprint,
    instantiate_blueprint,
)


def build_default_model() -> ArchitectureModel:
    return instantiate_blueprint(default_blueprint())


def slot_names(blueprint: Blueprint) -> list[str]:
    return list(blueprint._slot_names)


def dependencies_of(blueprint: Blueprint, slot: str) -> list[str]:
    """Slots this slot requires, per intended connectors, in declaration
    order, as a fresh list. Reads the blueprint only, so the answer is
    unaffected by any damage to the live graph."""
    try:
        return list(blueprint._dependencies[slot])
    except KeyError:
        raise UnknownSlot(f"no slot named {slot!r}") from None


def present_slots(model: ArchitectureModel) -> list[str]:
    """Slots that hold an instance, in blueprint order."""
    return [slot for slot, comp in model.slot_views() if comp is not None]
