"""Failure taxonomy, seeded fault drawing, and injection into the model.

A draw finds its target by index, from the model's damage alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import ArchitectureModel, ComponentState, ConnectorSpec

_MASK = (1 << 64) - 1


class FaultKind(Enum):
    CF1 = "CF1"  # component enters the UNKNOWN state
    CF2 = "CF2"  # exception count pushed past the threshold
    CF3 = "CF3"  # component removed from the running architecture
    CF4 = "CF4"  # connector between two components removed


_KIND_ORDER = (FaultKind.CF1, FaultKind.CF2, FaultKind.CF3, FaultKind.CF4)


class NoEligibleTarget(Exception):
    """The drawn fault kind has nothing left to hit."""


@dataclass(frozen=True)
class FaultInstance:
    """One concrete fault: what kind, where, and (for CF2) how hard."""

    kind: FaultKind
    target: str | ConnectorSpec
    magnitude: int | None = None
    injected_at: int | None = None

    def __post_init__(self) -> None:
        if self.kind is FaultKind.CF4:
            if not isinstance(self.target, ConnectorSpec):
                raise ValueError("CF4 targets a connector")
        elif not isinstance(self.target, str):
            raise ValueError(f"{self.kind.value} targets a component slot")
        if self.kind is FaultKind.CF2:
            if self.magnitude is None or self.magnitude <= 0:
                raise ValueError("CF2 requires a positive magnitude")
        elif self.magnitude is not None:
            raise ValueError(f"{self.kind.value} takes no magnitude")


class Rng:
    """splitmix64: four lines of 64-bit integer arithmetic, so the exact
    same sequence is reproducible in any language."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


def draw_interval(rng: Rng) -> int:
    """Logical milliseconds until the next injection, uniform in [100, 500]."""
    return 100 + rng.next() % 401


def draw_fault(rng: Rng, model: ArchitectureModel, exception_threshold: int = 5) -> FaultInstance:
    """Draw a random fault: kind first, then a uniform target among the
    eligible ones in blueprint order (present components for CF1..CF3,
    live connectors for CF4). CF2 magnitudes always clear the threshold.
    """
    kind = _KIND_ORDER[rng.next() % 4]
    if kind is FaultKind.CF4:
        count, nth = len(model.connectors), model.live_connector
    else:
        count, nth = model.present_count(), model.present_slot
    if not count:
        raise NoEligibleTarget(f"no eligible target for {kind.value}")
    target = nth(rng.next() % count)
    magnitude = None
    if kind is FaultKind.CF2:
        magnitude = exception_threshold + 1 + rng.next() % 5
    return FaultInstance(kind=kind, target=target, magnitude=magnitude, injected_at=model.clock)


def inject(model: ArchitectureModel, fault: FaultInstance) -> None:
    """Apply the fault to the model. CF3 takes the component's connectors
    with it; everything else touches only the named target."""
    if fault.kind is FaultKind.CF1:
        model.set_state(fault.target, ComponentState.UNKNOWN)
    elif fault.kind is FaultKind.CF2:
        model.add_exceptions(fault.target, fault.magnitude)
    elif fault.kind is FaultKind.CF3:
        model.remove_component(fault.target)
    else:
        model.remove_connector(fault.target)
